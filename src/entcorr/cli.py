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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .bounds import (
    LN2,
    bound_curve,
    g_d_numeric,
    optimal_slice_spectrum,
    v,
    xi_ef,
    zeta_ef,
)
from .correlations import KINDS, c_max
from .measures import _ORBIT_ITERS, _ORBIT_RESTARTS, _concurrence_eig, _max_ef_orbit, _max_ef_states
from .qcore import (
    DomainError,
    _on_support,
    _partial_trace,
    _probabilities,
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
    # Nothing reads these two; they stay only as null in the JSON "config"
    # block, whose bytes record every field.
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


def _emit(cfg: RunConfig, columns: dict, summary: dict, records: bool = True, **meta) -> None:
    """Write the table as CSV, or as JSON with the summary.

    ``columns`` maps each header name to its column: a numpy array, or a
    sequence of one value per row (a range for idx, tuples for spectra).
    Rows are formed here alone, by zipping the columns' ``tolist()``, and
    only when ``records`` is true; JSON leaves out "records" otherwise.
    """
    rows = ()
    if records:
        rows = zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()])
    if cfg.format == "csv":
        items = {"command": cfg.command, "kind": cfg.kind, "seed": cfg.seed, "grid": cfg.grid,
                 "version": __version__, **meta}
        lines = [f"# {k}={v}" for k, v in items.items()]
        lines.append(",".join(columns))
        lines.extend(",".join([_fmt(v) if isinstance(v, float) else str(v) for v in row])
                     for row in rows)
        del rows  # frees the column lists before the text is joined
        lines.append("")  # the final LF, without a second copy of the text
        text = "\n".join(lines)
    else:
        report = {"config": asdict(cfg), "summary": summary}
        if records:
            report["records"] = [dict(zip(columns, row)) for row in rows]
        text = json.dumps(report, indent=2) + "\n"
    if cfg.out is None:
        sys.stdout.write(text)
        return
    with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def run_curve(cfg: RunConfig) -> None:
    curve = bound_curve(cfg.kind, cfg.grid)
    summary = {
        "x_max": float(curve.xs[-1]),
        "bound_at_zero": float(curve.bounds[0]),
        "bound_at_max": float(curve.bounds[-1]),
    }
    _emit(cfg, {"x": curve.xs, "bound": curve.bounds}, summary)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_chunk(args) -> tuple[np.ndarray, ...]:
    """Columns (x, e, bound, lam) of ``count`` Haar samples: the level, the
    E_f of A, the bound at the level, and the spectrum padded with zeros,
    shaped (count,) and (count, min(4, dim_b)).

    Stream order: the samples run in blocks of ``rows``, and each block
    draws one (rows, 2, 4, dim_b) array of normals, sample by sample the real
    then the imaginary part. Consecutive blocks therefore consume ``stream``
    in the order of drawing one sample at a time, and the columns do not
    depend on the block size. Every step is a stacked form of the one-sample
    step with the same rounding, so the columns equal those of the
    one-sample loop bit for bit.

    The bound is xi_ef at each sample's own x, one call per block, for
    every kind: for the mutual information, the exact slice solution at x.

    Memory: ``rows`` is ``_VERIFY_BLOCK_ENTRIES`` over the entries of one
    sample's 4 x max(dim_b, 4) matrices, at least 1, so a block's arrays hold
    about that many complex entries, or one sample's when dim_b is larger,
    whatever dim_b and ``count`` are. Only the returned arrays grow with
    ``count``, by at most 56 bytes a sample.
    """
    kind, dim_b, count, seed, stream = args
    rng = worker_rng(seed, stream)
    xmax = c_max(kind, 4)
    rows = max(1, _VERIFY_BLOCK_ENTRIES // (4 * max(dim_b, 4)))
    blocks = []
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
        blocks.append((x, e, xi_ef(kind, x), lam))
    return tuple(np.concatenate(column) for column in zip(*blocks))


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

    x, e, bound, lam = (np.concatenate(column) for column in zip(*chunks))
    del chunks  # only the merged columns stay
    slack = bound - e
    violations = int(np.sum(slack < -cfg.tolerance))
    summary = {
        "samples": cfg.samples,
        "violations": violations,
        "max_violation": float(max(0.0, -slack.min())),
        "min_slack": float(slack.min()),
    }

    # JSON records carry the spectrum, and past 10,000 samples JSON leaves
    # the records out unless --full.
    columns = {"idx": range(cfg.samples), "x": x, "e": e, "bound": bound, "slack": slack}
    keep = cfg.format == "csv" or cfg.samples <= 10_000 or cfg.full
    if cfg.format == "json" and keep:
        sizes = (lam > 0.0).sum(axis=-1).tolist()
        columns["spectrum"] = [tuple(row[:n]) for row, n in zip(lam.tolist(), sizes)]
    del lam  # only the columns reach _emit
    _emit(
        cfg, columns, summary, records=keep,
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
    xs = np.linspace(0.0, c_max(cfg.kind, 4), cfg.grid)
    q = optimal_slice_spectrum(cfg.kind, xs)
    # Each grid point draws the Haar starts of its orbit ascents from rng
    # stream point index + 1, also when all points climb as one stack; the
    # ascents themselves draw nothing.
    rngs = [worker_rng(cfg.seed, i + 1) for i in range(len(xs))]
    e_num, _ = _max_ef_orbit(q, _ORBIT_RESTARTS, _ORBIT_ITERS, rngs)
    _, w, u = validate_density_stack(_max_ef_states(q))
    built = w[:, ::-1]
    if not (np.abs(built - q) <= 1e-9).all():
        raise VerificationError("constructed state does not have the requested spectrum")
    e_built = v(_concurrence_eig(u, _on_support(w)))
    c_pure = KINDS[cfg.kind].f(_probabilities(built))
    bound = xi_ef(cfg.kind, xs)
    gap_built, gap_num = bound - e_built, bound - e_num
    worst_construct = float(np.abs(gap_built).max())
    worst_numeric = float(np.abs(gap_num).max())
    summary = {
        "max_gap_construct": worst_construct,
        "max_gap_numeric": worst_numeric,
    }
    columns = {"x": xs, "bound": bound, "ef_construct": e_built, "gap_construct": gap_built,
               "ef_numeric": e_num, "gap_numeric": gap_num, "c_pure": c_pure}
    _emit(cfg, columns, summary)
    if worst_construct > 1e-6:
        raise VerificationError(f"analytic construction misses the bound by {worst_construct:.3e}")
    if worst_numeric > cfg.tolerance:
        raise VerificationError(f"orbit search misses the bound by {worst_numeric:.3e}")


# ---------------------------------------------------------------------------
# ccbound
# ---------------------------------------------------------------------------

def run_ccbound(cfg: RunConfig) -> None:
    """The state at level x is the diagonal CC state of the cc_kind's slice
    witness on f_cc_kind = scale x, whose correlation is x; c_gap compares
    c_numeric, the row's distance to the product states, with x. The
    states are built as one stack and validated once; ef_a is read from
    the eigh of their A-marginals. The search budget (10 restarts, one
    Generator) acts on Bures mixed targets only, and no kind with a cc
    curve has that kernel."""
    row = KINDS[cfg.kind]
    cc_kind, scale = row.cc  # the CC correlation is f_cc_kind / scale
    xs = np.linspace(0.0, c_max(cc_kind, 4) / scale, cfg.grid)
    diagonal = 5 * np.arange(4)  # the entries |ii><ii| of the 4 x 4 product basis
    states = np.zeros((cfg.grid, 16, 16), dtype=complex)
    states[:, diagonal, diagonal] = optimal_slice_spectrum(cc_kind, scale * xs)
    rho, w, u = validate_density_stack(states)
    rng = worker_rng(0, 0)
    c_num = np.array([row.closest(*state, 4, 4, 10, rng)[0] for state in zip(rho, w, u)])
    w_a, u_a = np.linalg.eigh(_partial_trace(rho, 4, 4, 1))
    e_a = v(_concurrence_eig(u_a, _on_support(w_a)))
    zeta = zeta_ef(cfg.kind, xs)
    c_gap = c_num - xs
    worst_c = float(np.abs(c_gap).max())
    worst_e = max(0.0, float((e_a - zeta).max()))
    summary = {"max_c_gap": worst_c, "max_ef_excess": worst_e}
    _emit(cfg, {"x": xs, "zeta": zeta, "c_numeric": c_num, "c_gap": c_gap, "ef_a": e_a}, summary)
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
    worst = float(diff.max())
    summary = {"max_abs_diff": worst}
    _emit(cfg, {"x": xs, "analytic": analytic, "numeric": numeric, "abs_diff": diff}, summary)
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
