"""Reproducibility harness: curve emission, Monte-Carlo verification of the
entanglement-correlation trade-off, tightness and classical-classical
boundary experiments, and the slice-solver oracle comparison.

Commands: curve | verify | tightness | ccbound | gd, flags before or after.
Output is CSV with 17-significant-digit floats (%.17g), or JSON with
Python's shortest round-trip floats, with LF endings. A JSON "config" block
records every RunConfig field, --out included, so the same run written to
two paths differs in that one field, then opt_restarts and opt_iters as
null. Exit codes: 0 success, 2 config error, 3 I/O error, 4 assertion
(violation) error.

The same config (seed and worker count included) gives the same bytes
under one BLAS kernel. Under another (tests/kernel_bounds.py) the grids
and closed forms keep their bytes: curve, gd, verify's idx and
tightness's x, bound and c_pure. Columns through LAPACK move by rounding,
at most: verify's x 1.5e-14, e 1e-15, bound and slack 1e-14; tightness's
ef_numeric and gap_numeric 2e-14, ef_construct and gap_construct 2e-15;
ccbound's c_numeric and c_gap 1e-15 (1.1e-16 seen at grids 20 and 50).
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import __version__
from .bounds import LN2, bound_curve, g_d_numeric, optimal_slice_spectrum, xi_ef, zeta_ef
from .correlations import KINDS, c_max
from .measures import _ef_eig, _max_ef_orbit, _max_ef_states
from .qcore import (
    DomainError,
    _partial_trace,
    _probabilities,
    _strictly_correlated_cc,
    validate_density_stack,
    worker_rng,
)


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


class VerificationError(RuntimeError):
    """A checked inequality or agreement failed (exit code 4)."""


class _Command(NamedTuple):
    """One row of _COMMANDS, the command-side twin of correlations.KINDS:
    what differs between the commands, whose runners are run_<command>.
    ``needs``: the fields a kind's registry row must fill for the command
    to accept the kind. ``defaults``: the values, over RunConfig's, that
    config_from_args gives the fields no flag sets. ``header``: the fields
    a CSV header lists after the version."""

    needs: tuple[str, ...] = ()
    defaults: dict = {}
    header: tuple[str, ...] = ()


# The oracle commands check on a coarser grid to a looser tolerance. ccbound
# needs a CC closed form (cc) and a distance to the product states to check
# it with (closest).
_ORACLE = {"grid": 20, "tolerance": 1e-3}
_COMMANDS = {
    "curve": _Command(),
    "verify": _Command(header=("samples", "dim_b", "workers", "tolerance")),
    "tightness": _Command(("y",), _ORACLE),
    "ccbound": _Command(("cc", "closest"), _ORACLE),
    "gd": _Command(("y",), _ORACLE),
}

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


def validate_config(cfg: RunConfig) -> None:
    # a bool passes as an int, but would be written as True or False
    for name in ("seed", "samples", "dim_b", "grid", "workers"):
        value = getattr(cfg, name)
        try:
            operator.index(value)
            if isinstance(value, bool):
                raise TypeError
        except TypeError:
            raise ConfigError(f"{name.replace('_', '-')} must be an integer, got {value!r}") from None
    for name, low in (("samples", 1), ("grid", 2), ("dim_b", 1), ("workers", 1)):
        if getattr(cfg, name) < low:
            raise ConfigError(f"{name.replace('_', '-')} must be >= {low}")
    tol = cfg.tolerance
    if isinstance(tol, bool) or not (isinstance(tol, (int, float)) and 0.0 < tol < np.inf):
        raise ConfigError("tolerance must be finite and > 0")
    if not (cfg.out is None or isinstance(cfg.out, str)) or not isinstance(cfg.full, bool):
        raise ConfigError(f"out must be a str or None and full a bool, got {cfg.out!r}, {cfg.full!r}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"unknown format {cfg.format!r}")
    # the registries are keyed by str, and an unhashable key would raise TypeError
    if not isinstance(cfg.command, str) or cfg.command not in _COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    row = KINDS.get(cfg.kind) if isinstance(cfg.kind, str) else None
    if row is None or any(getattr(row, need) is None for need in _COMMANDS[cfg.command].needs):
        raise ConfigError(f"kind {cfg.kind!r} not supported by {cfg.command!r}")


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    """A CSV cell or header value: a float to 17 significant digits, the rest by str."""
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _emit(cfg: RunConfig, columns: dict | None, summary: dict) -> None:
    """Write the table as CSV, or as JSON with the summary.

    ``columns`` maps each header name to its column: a numpy array, or a
    sequence of one value per row (a range for idx, tuples for spectra);
    it is None where JSON leaves out "records". Rows are formed here alone,
    by zipping the columns' ``tolist()``. A CSV file opens with one line per
    config field, the version and the command's header fields of _COMMANDS,
    each value written by _fmt as the cells are.
    """
    rows = ()
    if columns is not None:
        rows = zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()])
    if cfg.format == "csv":
        items = {**vars(cfg), "version": __version__}
        names = ("command", "kind", "seed", "grid", "version", *_COMMANDS[cfg.command].header)
        lines = [f"# {k}={_fmt(items[k])}" for k in names]
        lines.append(",".join(columns))
        lines.extend(",".join([_fmt(v) for v in row]) for row in rows)
        del rows  # frees the column lists before the text is joined
        lines.append("")  # the final LF, without a second copy of the text
        text = "\n".join(lines)
    else:
        config = {**asdict(cfg), "opt_restarts": None, "opt_iters": None}
        report = {"config": config, "summary": summary}
        if columns is not None:
            report["records"] = [dict(zip(columns, row)) for row in rows]
        text = json.dumps(report, indent=2) + "\n"
    if cfg.out is None:
        sys.stdout.write(text)
        return
    with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Runners: each returns its columns, summary and checks to run()
# ---------------------------------------------------------------------------

def run_curve(cfg: RunConfig) -> tuple:
    curve = bound_curve(cfg.kind, cfg.grid)
    summary = {
        "x_max": float(curve.xs[-1]),
        "bound_at_zero": float(curve.bounds[0]),
        "bound_at_max": float(curve.bounds[-1]),
    }
    return {"x": curve.xs, "bound": curve.bounds}, summary, ()


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
        e = _ef_eig(w, u)
        blocks.append((x, e, xi_ef(kind, x), lam))
    return tuple(np.concatenate(column) for column in zip(*blocks))


def run_verify(cfg: RunConfig) -> tuple:
    # Sample worker w draws its share of the samples from rng stream w + 1.
    share, extra = divmod(cfg.samples, cfg.workers)
    jobs = [(cfg.kind, cfg.dim_b, share + (w < extra), cfg.seed, w + 1)
            for w in range(min(cfg.workers, cfg.samples))]
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
    worst = float(max(0.0, -slack.min()))
    summary = {"samples": cfg.samples, "violations": violations, "max_violation": worst,
               "min_slack": float(slack.min())}
    checks = [(violations > 0, f"{violations} violations (max {worst:.3e})")]
    # JSON records carry the spectrum, and past 10,000 samples JSON leaves
    # the records out unless --full.
    if cfg.format == "json" and cfg.samples > 10_000 and not cfg.full:
        return None, summary, checks
    columns = {"idx": range(cfg.samples), "x": x, "e": e, "bound": bound, "slack": slack}
    if cfg.format == "json":
        sizes = (lam > 0.0).sum(axis=-1).tolist()
        columns["spectrum"] = [tuple(row[:n]) for row, n in zip(lam.tolist(), sizes)]
    return columns, summary, checks


def run_tightness(cfg: RunConfig) -> tuple:
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
    e_num, _ = _max_ef_orbit(q, rngs)
    _, w, u = validate_density_stack(_max_ef_states(q))
    built = w[:, ::-1]
    if not (np.abs(built - q) <= 1e-9).all():
        raise VerificationError("constructed state does not have the requested spectrum")
    e_built = _ef_eig(w, u)
    c_pure = KINDS[cfg.kind].f(_probabilities(built))
    bound = xi_ef(cfg.kind, xs)
    gap_built, gap_num = bound - e_built, bound - e_num
    worst_construct = float(np.abs(gap_built).max())
    worst_numeric = float(np.abs(gap_num).max())
    summary = {"max_gap_construct": worst_construct, "max_gap_numeric": worst_numeric}
    columns = {"x": xs, "bound": bound, "ef_construct": e_built, "gap_construct": gap_built,
               "ef_numeric": e_num, "gap_numeric": gap_num, "c_pure": c_pure}
    return columns, summary, [
        (worst_construct > 1e-6, f"analytic construction misses the bound by {worst_construct:.3e}"),
        (worst_numeric > cfg.tolerance, f"orbit search misses the bound by {worst_numeric:.3e}"),
    ]


def run_ccbound(cfg: RunConfig) -> tuple:
    """The state at level x is the diagonal CC state of the cc_kind's slice
    witness on f_cc_kind = scale x, whose correlation is x; c_gap compares
    c_numeric, the row's distance to the product states, with x. The
    states are built as one stack and validated once; ef_a is read from
    the eigh of their A-marginals. Every kind with a cc curve has an
    exact closest, so no search runs here."""
    row = KINDS[cfg.kind]
    cc_kind, scale = row.cc  # the CC correlation is f_cc_kind / scale
    xs = np.linspace(0.0, c_max(cc_kind, 4) / scale, cfg.grid)
    states = _strictly_correlated_cc(optimal_slice_spectrum(cc_kind, scale * xs), 4, 4)
    rho, w, u = validate_density_stack(states)
    c_num = np.array([row.closest(*state, 4, 4)[0] for state in zip(rho, w, u)])
    e_a = _ef_eig(*np.linalg.eigh(_partial_trace(rho, 4, 4, 1)))
    zeta = zeta_ef(cfg.kind, xs)
    c_gap = c_num - xs
    worst_c = float(np.abs(c_gap).max())
    worst_e = max(0.0, float((e_a - zeta).max()))
    summary = {"max_c_gap": worst_c, "max_ef_excess": worst_e}
    return {"x": xs, "zeta": zeta, "c_numeric": c_num, "c_gap": c_gap, "ef_a": e_a}, summary, [
        (worst_c > cfg.tolerance, f"CC correlation misses its closed form by {worst_c:.3e}"),
        (worst_e > 1e-9, f"CC state exceeds the zeta bound by {worst_e:.3e}"),
    ]


def run_gd(cfg: RunConfig) -> tuple:
    xs = np.linspace(0.0, c_max(cfg.kind, 4), cfg.grid)
    analytic = xi_ef(cfg.kind, xs)
    numeric = LN2 - g_d_numeric(cfg.kind, xs)
    diff = np.abs(numeric - analytic)
    worst = float(diff.max())
    summary = {"max_abs_diff": worst}
    columns = {"x": xs, "analytic": analytic, "numeric": numeric, "abs_diff": diff}
    return columns, summary, [
        (worst > cfg.tolerance, f"slice oracle disagrees with the closed form by {worst:.3e}"),
    ]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves
    it unchanged, so every main() call shares it."""
    parser = argparse.ArgumentParser(
        prog="entcorr",
        description="Entanglement versus external correlations: curves and experiments",
        argument_default=argparse.SUPPRESS,  # a flag left out is left out of the namespace
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--dim-b", type=int)
    parser.add_argument("--grid", type=int)
    parser.add_argument("--kind")
    parser.add_argument("--tolerance", type=float)
    parser.add_argument("--out")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--workers", type=int)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{**_COMMANDS[args.command].defaults, **vars(args)})


def run(cfg: RunConfig) -> int:
    """Validate and execute one configured command; return the exit code.

    The runner returns named columns (None where JSON leaves the records
    out), the summary and its checks, (failed, message) pairs in the order
    they are raised. The table is written whole before a failed check
    raises. The runner is found by name, so a wrapper set on the module
    attribute (as perfbench's tracer sets one) sees the call.
    """
    try:
        validate_config(cfg)
        columns, summary, checks = globals()[f"run_{cfg.command}"](cfg)
        _emit(cfg, columns, summary)
        for failed, message in checks:
            if failed:
                raise VerificationError(message)
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
