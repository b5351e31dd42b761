"""Reproducibility harness: curve emission, Monte-Carlo verification of the
entanglement-correlation trade-off, tightness and classical-classical
boundary experiments, and the slice-solver oracle comparison.

Subcommands: curve | verify | tightness | ccbound | gd. All runs are
deterministic functions of their configuration (seed and worker count
included); outputs are CSV or JSON with LF endings and 17-significant-digit
floats. A JSON report's "config" block records every RunConfig field,
--out included, so the same run written to two paths differs in that one
field. Exit codes: 0 success, 2 config error, 3 I/O error, 4 assertion
(violation) error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .bounds import (
    LN2,
    bound_curve,
    g_d_numeric,
    optimal_slice_spectrum,
    spectrum_at_f,
    v,
    xi_ef,
    zeta_ef,
)
from .correlations import KINDS, c_distance_numeric, c_max
from .measures import (_ORBIT_ITERS, _ORBIT_RESTARTS, _concurrence_eig, _max_ef_orbit,
                       _max_ef_states, entanglement_of_formation)
from .qcore import (
    DomainError,
    _on_support,
    _partial_trace,
    _probabilities,
    strictly_correlated_cc,
    validate_density_stack,
    worker_rng,
)


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


class VerificationError(RuntimeError):
    """A checked inequality or agreement failed (exit code 4)."""


# The fields a kind's registry row must fill for the command to accept the
# kind; every row serves the commands not listed. ccbound needs a CC
# closed form (cc) and a distance to the product states to check it with
# (closest).
_NEEDS = {"tightness": ("y",), "gd": ("y",), "ccbound": ("cc", "closest")}

# Complex entries per array that one block of `verify` samples may hold.
_VERIFY_BLOCK_ENTRIES = 1 << 14


@dataclass
class RunConfig:
    command: str
    kind: str = "hellinger"
    seed: int = 0
    samples: int = 10000
    dim_b: int = 16
    grid: int = 201
    tolerance: float = 1e-9
    out: str | None = None
    format: str = "csv"
    full: bool = False
    workers: int = 1
    # Optimizer budgets; None picks the per-command defaults. Not exposed
    # as CLI flags (the flag set is fixed for reproducibility).
    opt_restarts: int | None = None
    opt_iters: int | None = None


def validate_config(cfg: RunConfig) -> None:
    if cfg.samples < 1:
        raise ConfigError("samples must be >= 1")
    if cfg.grid < 2:
        raise ConfigError("grid must be >= 2")
    if cfg.dim_b < 1:
        raise ConfigError("dim-b must be >= 1")
    if not (cfg.tolerance > 0.0):
        raise ConfigError("tolerance must be > 0")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"unknown format {cfg.format!r}")
    row = KINDS.get(cfg.kind)
    if row is None or any(getattr(row, need) is None for need in _NEEDS.get(cfg.command, ())):
        raise ConfigError(f"kind {cfg.kind!r} not supported by {cfg.command!r}")


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _meta_lines(cfg: RunConfig, **extra) -> list[str]:
    items = {
        "command": cfg.command,
        "kind": cfg.kind,
        "seed": cfg.seed,
        "grid": cfg.grid,
        "version": __version__,
        **extra,
    }
    return [f"# {k}={v}" for k, v in items.items()]


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _emit(cfg: RunConfig, header: list[str], rows: Iterable[Sequence] | None,
          summary: dict, **meta) -> None:
    """Write the rows as CSV, or as JSON with the summary; JSON leaves out
    "records" when rows is None."""
    if cfg.format == "csv":
        lines = _meta_lines(cfg, **meta)
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join([_fmt(v) if isinstance(v, float) else str(v) for v in row]))
        _write_text(cfg.out, "\n".join(lines) + "\n")
        return
    report = {"config": asdict(cfg), "summary": summary}
    if rows is not None:
        report["records"] = [dict(zip(header, row)) for row in rows]
    _write_text(cfg.out, json.dumps(report, indent=2) + "\n")


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def run_curve(cfg: RunConfig) -> None:
    curve = bound_curve(cfg.kind, cfg.grid)
    rows = [[float(x), float(b)] for x, b in zip(curve.xs, curve.bounds)]
    summary = {
        "x_max": float(curve.xs[-1]),
        "bound_at_zero": float(curve.bounds[0]),
        "bound_at_max": float(curve.bounds[-1]),
    }
    _emit(cfg, ["x", "bound"], rows, summary)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_chunk(args) -> list[tuple]:
    """Records (x, e, bound, slack, spectrum) of ``count`` Haar samples.

    Stream order: the samples run in blocks of ``rows``, and each block
    draws one (rows, 2, 4, dim_b) array of normals, sample by sample the real
    then the imaginary part. Consecutive blocks therefore consume ``stream``
    in the order of drawing one sample at a time, and the records do not
    depend on the block size. Every step is a stacked form of the one-sample
    step with the same rounding, so the records equal those of the
    one-sample loop bit for bit.

    The bound is xi_ef at each sample's own x, one call per block, for
    every kind: for the mutual information, the exact slice solution at x.

    Memory: ``rows`` is ``_VERIFY_BLOCK_ENTRIES`` over the entries of one
    sample's 4 x max(dim_b, 4) matrices, at least 1, so a block's arrays hold
    about that many complex entries, or one sample's when dim_b is larger,
    whatever dim_b and ``count`` are. Only the returned records grow with
    ``count``.
    """
    kind, dim_b, count, seed, stream = args
    rng = worker_rng(seed, stream)
    xmax = c_max(kind, 4)
    rows = max(1, _VERIFY_BLOCK_ENTRIES // (4 * max(dim_b, 4)))
    out = []
    for done in range(0, count, rows):
        g = rng.standard_normal((min(rows, count - done), 2, 4, dim_b))
        z = g[:, 0] + 1j * g[:, 1]
        # The two dot products np.linalg.norm takes of a single sample.
        flat = z.reshape(len(z), 1, -1)
        sq = flat.real @ flat.real.swapaxes(-1, -2) + flat.imag @ flat.imag.swapaxes(-1, -2)
        m = z / np.sqrt(sq)
        lam = _probabilities(np.linalg.svd(m, compute_uv=False) ** 2)
        x = np.minimum(KINDS[kind].f(lam), xmax)
        _, w, u = validate_density_stack(m @ m.conj().swapaxes(-1, -2))
        e = v(_concurrence_eig(u, _on_support(w)))
        bound = np.broadcast_to(np.asarray(xi_ef(kind, x), dtype=float), x.shape)
        sizes = (lam > 0.0).sum(axis=-1).tolist()
        spectra = (tuple(row[:n]) for row, n in zip(lam.tolist(), sizes))
        out.extend(zip(x.tolist(), e.tolist(), bound.tolist(), (bound - e).tolist(), spectra))
    return out


def run_verify(cfg: RunConfig) -> None:
    counts = [
        cfg.samples // cfg.workers + (1 if w < cfg.samples % cfg.workers else 0)
        for w in range(cfg.workers)
    ]
    # Sample worker w draws from rng stream w + 1.
    jobs = [
        (cfg.kind, cfg.dim_b, counts[w], cfg.seed, w + 1)
        for w in range(cfg.workers)
        if counts[w] > 0
    ]
    if cfg.workers == 1:
        chunks = [_verify_chunk(job) for job in jobs]
    else:
        # Jobs and streams follow cfg.workers; the pool never outnumbers the cores.
        with ProcessPoolExecutor(max_workers=min(cfg.workers, os.cpu_count() or 1)) as pool:
            chunks = list(pool.map(_verify_chunk, jobs))  # index-ordered merge

    records = [item for chunk in chunks for item in chunk]
    slacks = np.array([rec[3] for rec in records])
    violations = int(np.sum(slacks < -cfg.tolerance))
    summary = {
        "samples": cfg.samples,
        "violations": violations,
        "max_violation": float(max(0.0, -slacks.min())),
        "min_slack": float(slacks.min()),
    }

    # JSON records carry the spectrum, and past 10,000 samples JSON leaves
    # the records out unless --full.
    header = ["idx", "x", "e", "bound", "slack", "spectrum"][: 6 if cfg.format == "json" else 5]
    keep = cfg.format == "csv" or cfg.samples <= 10_000 or cfg.full
    rows = ((i, *rec[: len(header) - 1]) for i, rec in enumerate(records)) if keep else None
    _emit(
        cfg, header, rows, summary,
        samples=cfg.samples, dim_b=cfg.dim_b, workers=cfg.workers, tolerance=_fmt(cfg.tolerance),
    )

    if violations > 0:
        raise VerificationError(
            f"{violations} violations (max {summary['max_violation']:.3e})"
        )


# ---------------------------------------------------------------------------
# tightness
# ---------------------------------------------------------------------------

def run_tightness(cfg: RunConfig) -> None:
    """c_pure is f at each built state's spectrum, the Schmidt spectrum of its
    purification: the correlation that state carries, x on its slice. The
    states are built as one stack and validated once, and their eigh gives
    the construction check, ef_construct and c_pure."""
    restarts = cfg.opt_restarts if cfg.opt_restarts is not None else _ORBIT_RESTARTS
    iters = cfg.opt_iters if cfg.opt_iters is not None else _ORBIT_ITERS
    xs = np.linspace(0.0, c_max(cfg.kind, 4), cfg.grid)
    q = optimal_slice_spectrum(cfg.kind, xs)
    # Each grid point draws the Haar starts of its orbit ascents from rng
    # stream point index + 1, also when all points climb as one stack; the
    # ascents themselves draw nothing.
    rngs = [worker_rng(cfg.seed, i + 1) for i in range(len(xs))]
    e_num, _ = _max_ef_orbit(q, restarts, iters, rngs)
    _, w, u = validate_density_stack(_max_ef_states(q))
    built = w[:, ::-1]
    if not (np.abs(built - q) <= 1e-9).all():
        raise VerificationError("constructed state does not have the requested spectrum")
    e_built = v(_concurrence_eig(u, _on_support(w)))
    c_pure = KINDS[cfg.kind].f(_probabilities(built))
    bound = xi_ef(cfg.kind, xs)
    gap_built, gap_num = bound - e_built, bound - e_num
    rows = [list(row) for row in zip(*(a.tolist() for a in (
        xs, bound, e_built, gap_built, e_num, gap_num, c_pure)))]
    worst_construct = float(np.abs(gap_built).max())
    worst_numeric = float(np.abs(gap_num).max())
    summary = {
        "max_gap_construct": worst_construct,
        "max_gap_numeric": worst_numeric,
    }
    _emit(
        cfg,
        ["x", "bound", "ef_construct", "gap_construct", "ef_numeric", "gap_numeric", "c_pure"],
        rows,
        summary,
    )
    if worst_construct > 1e-6:
        raise VerificationError(f"analytic construction misses the bound by {worst_construct:.3e}")
    if worst_numeric > cfg.tolerance:
        raise VerificationError(f"orbit search misses the bound by {worst_numeric:.3e}")


# ---------------------------------------------------------------------------
# ccbound
# ---------------------------------------------------------------------------

def run_ccbound(cfg: RunConfig) -> None:
    cc_kind, scale = KINDS[cfg.kind].cc  # the CC correlation is f_cc_kind / scale
    xs = np.linspace(0.0, c_max(cc_kind, 4) / scale, cfg.grid)
    rows = []
    worst_c = 0.0
    worst_e = 0.0
    spectra = spectrum_at_f(cc_kind, scale * xs)  # Werner spectra on the slices f_cc_kind = scale x
    for x, zeta, p in zip(xs.tolist(), zeta_ef(cfg.kind, xs).tolist(), spectra):
        rho = strictly_correlated_cc(p[p > 0.0], 4, 4)
        c_num = c_distance_numeric(rho, (4, 4), cfg.kind)
        e_a = entanglement_of_formation(_partial_trace(rho, 4, 4, 1))
        rows.append([x, zeta, c_num, c_num - x, e_a])
        worst_c = max(worst_c, abs(c_num - x))
        worst_e = max(worst_e, e_a - zeta)
    summary = {"max_c_gap": worst_c, "max_ef_excess": worst_e}
    _emit(cfg, ["x", "zeta", "c_numeric", "c_gap", "ef_a"], rows, summary)
    if worst_c > cfg.tolerance:
        raise VerificationError(f"CC correlation misses its closed form by {worst_c:.3e}")
    if worst_e > 1e-9:
        raise VerificationError(f"CC state exceeds the zeta bound by {worst_e:.3e}")


# ---------------------------------------------------------------------------
# gd
# ---------------------------------------------------------------------------

def run_gd(cfg: RunConfig) -> None:
    xs = np.linspace(0.0, c_max(cfg.kind, 4), cfg.grid)
    analytic = xi_ef(cfg.kind, xs)
    numeric = LN2 - g_d_numeric(cfg.kind, xs)
    diff = np.abs(numeric - analytic)
    rows = [list(row) for row in zip(*(a.tolist() for a in (xs, analytic, numeric, diff)))]
    worst = float(diff.max())
    summary = {"max_abs_diff": worst}
    _emit(cfg, ["x", "analytic", "numeric", "abs_diff"], rows, summary)
    if worst > cfg.tolerance:
        raise VerificationError(f"slice oracle disagrees with the closed form by {worst:.3e}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_RUNNERS = {
    "curve": run_curve,
    "verify": run_verify,
    "tightness": run_tightness,
    "ccbound": run_ccbound,
    "gd": run_gd,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves
    it unchanged, so every main() call shares it."""
    parser = argparse.ArgumentParser(
        prog="entcorr",
        description="Entanglement versus external correlations: curves and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        # A flag left out takes RunConfig's default; the only defaults that
        # differ are the oracle commands' coarser grid and looser tolerance.
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--dim-b", type=int)
        p.add_argument("--grid", type=int)
        p.add_argument("--kind")
        p.add_argument("--tolerance", type=float)
        p.add_argument("--out")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--full", action="store_true")
        p.add_argument("--workers", type=int)
        if name in ("tightness", "ccbound", "gd"):
            p.set_defaults(grid=20, tolerance=1e-3)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(args))


def run(cfg: RunConfig) -> int:
    """Validate and execute one configured command; return the exit code."""
    try:
        validate_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        _RUNNERS[cfg.command](cfg)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 4
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(config_from_args(args))


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
