"""The same config under two BLAS kernels.

Prescott runs on any x86-64 CPU. The CLI's bytes hold per kernel, and
between kernels each column moves by at most its bound in KERNEL_BOUNDS.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entcorr
from kernel_bounds import KERNEL_BOUNDS


def _dynamic_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


# The commands run under both kernels; KERNEL_BOUNDS bounds their columns.
MATRIX = [
    "tightness --grid 3",
    "tightness --grid 3 --kind bures",
    "gd",
    "gd --kind bures",
    "ccbound --grid 6",
    "curve --kind mutual_information",
    "verify --samples 2000",
    "verify --samples 2000 --kind mutual_information",
]

# Runs each command of the matrix in one process; prints the exit codes and stdout.
_CHILD = """
import contextlib, io, json, sys
from entcorr.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = main(argv.split())
    out.append([code, text.getvalue()])
print(json.dumps(out))
"""


def _run_matrix(coretype):
    env = dict(os.environ, PYTHONPATH=str(Path(entcorr.__file__).resolve().parents[1]),
               PYTHONWARNINGS="error::RuntimeWarning")
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    done = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(MATRIX)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _table(text):
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    return rows[0], np.array(rows[1:], dtype=float)


@pytest.mark.skipif(platform.machine() != "x86_64" or not _dynamic_openblas(),
                    reason="needs an x86-64 OpenBLAS built with DYNAMIC_ARCH")
def test_same_config_under_two_blas_kernels():
    runs = zip(MATRIX, _run_matrix(None), _run_matrix("Prescott"))
    for argv, (code, text), (code_p, text_p) in runs:
        bounds = KERNEL_BOUNDS.get(argv.split()[0], {})
        assert code == code_p == 0, argv
        header, native = _table(text)
        header_p, prescott = _table(text_p)
        assert header == header_p and native.shape == prescott.shape, argv
        for name, a, b in zip(header, native.T, prescott.T):
            assert np.abs(a - b).max() <= bounds.get(name, 0.0), (argv, name)
