"""The three workloads: the operations one pass runs, built from the seed.

An operation is either a CLI invocation (``argv`` for ``entcorr.cli.main``,
always with ``--out`` so its bytes can be digested) or the library call
``c_distance_numeric(rho, (4, 2), "bures")`` on a Bures mixed target. Only
the fixed CLI flag set and required library arguments are used, so later
changes to optimizer knobs do not touch the benchmark.

Why these workloads:

- ``verify``: the per-sample Monte-Carlo path (RNG and SVD, E_f, xi, f,
  per-call validation) plus CLI formatting; CSV with one worker against
  JSON with kept records and two workers. No slice or product-state search.
- ``slice``: every branch of ``bounds.g_d_numeric``: the mutual-information
  curve and verify table, and the distance-kind grid solver behind ``gd``.
- ``search``: the stochastic oracles: the unitary-orbit search
  (``tightness``), the product-state search on classical-classical targets
  (``ccbound``) and on Bures mixed targets (library call).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("verify", "slice", "search")

VERIFY_HELLINGER_SAMPLES = 12000
VERIFY_BURES_SAMPLES = 6000
MI_CURVE_GRID = 4
MI_VERIFY_SAMPLES = 500
TIGHTNESS_GRID = 3
CCBOUND_GRID = 2
BURES_MIXED_TARGETS = 1
GD_GRID = 20  # the CLI default for gd


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...] = ()  # CLI arguments without --out; empty for the library call
    target: int = -1  # Bures mixed target index for the library call

    @property
    def is_cli(self) -> bool:
        return bool(self.argv)

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv else "c_distance_numeric"

    def flag(self, flag: str, default: str) -> str:
        """Value of a CLI flag in argv, or the CLI default given."""
        args = list(self.argv)
        return args[args.index(flag) + 1] if flag in args else default

    @property
    def samples(self) -> int:
        """Monte-Carlo samples drawn by a verify command, else 0."""
        return int(self.flag("--samples", "10000")) if self.command == "verify" else 0

    @property
    def grid_points(self) -> int:
        """Grid points evaluated by a curve/gd/tightness/ccbound command, else 0."""
        if self.command in ("curve", "gd", "tightness", "ccbound"):
            return int(self.flag("--grid", "201" if self.command == "curve" else "20"))
        return 0

    def out_path(self, workdir: str) -> str:
        return os.path.join(workdir, f"{self.name}.out")

    def full_argv(self, workdir: str) -> list[str]:
        return [*self.argv, "--out", self.out_path(workdir)]


def workers_for(nproc: int) -> int:
    """Two pool workers, but never more than the processors available."""
    return max(1, min(2, nproc))


def build(workload: str, seed: int, nproc: int) -> list[Op]:
    s = str(seed)
    if workload == "verify":
        return [
            Op("verify-hellinger", ("verify", "--kind", "hellinger", "--seed", s,
                                    "--samples", str(VERIFY_HELLINGER_SAMPLES))),
            Op("verify-bures-json", ("verify", "--kind", "bures", "--format", "json",
                                     "--workers", str(workers_for(nproc)), "--seed", s,
                                     "--samples", str(VERIFY_BURES_SAMPLES))),
        ]
    if workload == "slice":
        return [
            Op("curve-mi", ("curve", "--kind", "mutual_information", "--seed", s,
                            "--grid", str(MI_CURVE_GRID))),
            Op("verify-mi", ("verify", "--kind", "mutual_information", "--seed", s,
                             "--samples", str(MI_VERIFY_SAMPLES))),
            Op("gd-bures", ("gd", "--kind", "bures", "--seed", s, "--grid", str(GD_GRID))),
            Op("gd-hellinger", ("gd", "--kind", "hellinger", "--seed", s, "--grid", str(GD_GRID))),
        ]
    if workload == "search":
        return [
            Op("tightness-hellinger", ("tightness", "--kind", "hellinger", "--seed", s,
                                       "--grid", str(TIGHTNESS_GRID))),
            Op("ccbound", ("ccbound", "--seed", s, "--grid", str(CCBOUND_GRID))),
            *(Op(f"bures-mixed-{k}", target=k) for k in range(BURES_MIXED_TARGETS)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def bures_mixed_target(seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced state on 4 x 2 of a Haar-random pure state on 4 x 2 x 2.

    Returns (rho, psi): rho is the 8 x 8 target, psi the 16-vector whose
    last qubit was traced out. Every draw is kept, so targets on which the
    search overshoots the pure-state value are not filtered away.
    """
    rng = np.random.default_rng([seed, index])
    z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi = z / np.linalg.norm(z)
    m = psi.reshape(8, 2)
    return m @ m.conj().T, psi


def bures_pure_value(psi: np.ndarray) -> float:
    """Bures correlation of psi across 4 x 4: sqrt(2 (1 - sqrt(p1)))."""
    p1 = np.linalg.svd(psi.reshape(4, 4), compute_uv=False)[0] ** 2
    return float(np.sqrt(max(0.0, 2.0 * (1.0 - np.sqrt(p1)))))
