"""How far each CLI output may move when the BLAS kernel changes.

An OpenBLAS built with DYNAMIC_ARCH picks its kernel per process, and
OPENBLAS_CORETYPE forces one. The grids and the closed forms are
kernel-exact; the columns that pass through LAPACK move by rounding.
KERNEL_BOUNDS maps each command to the largest move allowed per CSV column
or JSON key, about ten times the largest seen between the SkylakeX kernel
and Prescott, Sandybridge or Haswell. A column or key not listed keeps its
bytes. tests/test_blas_kernels.py and tests/test_golden.py both read it.
"""

_NUMERIC = {"ef_numeric": 2e-14, "gap_numeric": 2e-14, "max_gap_numeric": 2e-14,
            "ef_construct": 2e-15, "gap_construct": 2e-15, "max_gap_construct": 2e-15}
_SAMPLED = {"x": 1.5e-14, "e": 1e-15, "bound": 1e-14, "slack": 1e-14, "min_slack": 1e-14,
            "spectrum": 5e-15}
# 1.1e-16 seen at grids 20 and 50; nothing moves at grid 6
_CC = {"c_numeric": 1e-15, "c_gap": 1e-15, "max_c_gap": 1e-15}

KERNEL_BOUNDS = {"tightness": _NUMERIC, "verify": _SAMPLED, "ccbound": _CC}
