"""Golden CLI outputs: each argv of MATRIX against its recorded run, under
the native BLAS kernel and under a second one.

Every run goes through entcorr.cli.main, and its exit code, stdout and
stderr are compared with tests/golden/<name>.json.gz. The columns and JSON
keys that KERNEL_BOUNDS bounds compare by value, within their bound, so the
recording holds under any BLAS kernel; all else compares by bytes: the
other columns, the header lines, the JSON layout, stderr and the exit code.
JSON runs write to stdout, so their config records out as null.

The native runs go in this process. One child process runs the whole
matrix under OPENBLAS_CORETYPE=Prescott, a kernel any x86-64 CPU runs, and
each of its runs is compared by the same rules twice: with its recording,
and with the native run, so the two kernels differ by at most the bounds.

A change that is meant to move an output re-records them all:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import gzip
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entcorr
from entcorr.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# How far each output may move when the BLAS kernel changes. An OpenBLAS
# built with DYNAMIC_ARCH picks its kernel per process, and OPENBLAS_CORETYPE
# forces one. The grids and the closed forms are kernel-exact; the columns
# that pass through LAPACK move by rounding. KERNEL_BOUNDS maps each command
# to the largest move allowed per CSV column or JSON key, about ten times the
# largest seen between the SkylakeX kernel and Prescott, Sandybridge or
# Haswell. A column or key not listed keeps its bytes.
_NUMERIC = {"ef_numeric": 2e-14, "gap_numeric": 2e-14, "max_gap_numeric": 2e-14,
            "ef_construct": 2e-15, "gap_construct": 2e-15, "max_gap_construct": 2e-15}
_SAMPLED = {"x": 1.5e-14, "e": 1e-15, "bound": 1e-14, "slack": 1e-14, "min_slack": 1e-14,
            "spectrum": 5e-15}
_CC = {"c_numeric": 1e-15, "c_gap": 1e-15, "max_c_gap": 1e-15}  # 1.1e-16 seen at grids 20 and 50

KERNEL_BOUNDS = {"tightness": _NUMERIC, "verify": _SAMPLED, "ccbound": _CC}

MATRIX = [
    "curve --kind hellinger",
    "curve --kind bures",
    "curve --kind mutual_information",
    "gd",
    "gd --kind bures",
    "ccbound",
    "tightness --grid 3",
    "tightness --grid 3 --seed 7",
    "tightness --grid 3 --kind bures",
    "tightness --grid 3 --kind bures --seed 7",
    "verify --samples 2000",
    "verify --samples 2000 --kind bures",
    "verify --samples 2000 --kind mutual_information",
    "curve --format json",
    "verify --samples 2000 --format json",
    "tightness --grid 3 --format json",
    "ccbound --format json",
    "gd --format json",
    "gd --tolerance 1e-300",  # fails its check: exit code 4 and a message
]


def _path(argv: str) -> Path:
    return GOLDEN / (argv.replace(" --", "_").replace(" ", "-") + ".json.gz")


def _run(argv: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _same(want, got, bound: float) -> bool:
    """Equal by value within ``bound`` where it is nonzero, else by bytes."""
    if bound and isinstance(want, float) and isinstance(got, float):
        return abs(want - got) <= bound
    return type(want) is type(got) and repr(want) == repr(got)


def _compare_json(want, got, bounds: dict, key=None) -> None:
    assert type(want) is type(got), key
    if isinstance(want, dict):
        assert list(want) == list(got), key
        for k in want:
            _compare_json(want[k], got[k], bounds, k)
    elif isinstance(want, list):
        assert len(want) == len(got), key
        for a, b in zip(want, got):
            _compare_json(a, b, bounds, key)
    else:
        assert _same(want, got, bounds.get(key, 0.0)), (key, want, got)


def _compare_csv(want: str, got: str, bounds: dict) -> None:
    want, got = want.split("\n"), got.split("\n")
    assert len(want) == len(got) and want[-1] == got[-1] == ""  # LF-terminated
    top = sum(line.startswith("#") for line in want) + 1  # config lines and the header
    assert want[:top] == got[:top]
    header = want[top - 1].split(",")
    for a, b in zip(want[top:-1], got[top:-1]):
        cells_a, cells_b = a.split(","), b.split(",")
        assert len(cells_a) == len(cells_b) == len(header)
        for name, x, y in zip(header, cells_a, cells_b):
            bound = bounds.get(name, 0.0)
            assert x == y or (bound and abs(float(x) - float(y)) <= bound), (name, x, y)


def _compare(want: dict, got: dict, argv: str) -> None:
    """Compare the run got with want: exit code and stderr by bytes, stdout
    by the rules of the module docstring."""
    assert (got["code"], got["stderr"]) == (want["code"], want["stderr"])
    bounds = KERNEL_BOUNDS.get(argv.split()[0], {})
    if "--format json" in argv:
        report = json.loads(got["stdout"])
        assert got["stdout"] == json.dumps(report, indent=2) + "\n"  # the layout _emit writes
        _compare_json(json.loads(want["stdout"]), report, bounds)
    else:
        _compare_csv(want["stdout"], got["stdout"], bounds)


def _recorded(argv: str) -> dict:
    with gzip.open(_path(argv), "rt", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("argv", MATRIX)
def test_matches_the_recorded_run(argv):
    _compare(_recorded(argv), _run(argv), argv)


def _dynamic_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.fixture(scope="module")
def prescott_runs() -> dict:
    """The run of each argv of MATRIX under the Prescott kernel, from one
    child process that turns a RuntimeWarning into an error."""
    path = os.pathsep.join(str(p) for p in (Path(entcorr.__file__).resolve().parents[1],
                                            Path(__file__).resolve().parent))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE="Prescott",
               PYTHONWARNINGS="error::RuntimeWarning")
    child = ("import json; from test_golden import MATRIX, _run; "
             "print(json.dumps([_run(argv) for argv in MATRIX]))")
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return dict(zip(MATRIX, json.loads(done.stdout)))


@pytest.mark.skipif(platform.machine() != "x86_64" or not _dynamic_openblas(),
                    reason="needs an x86-64 OpenBLAS built with DYNAMIC_ARCH")
@pytest.mark.parametrize("argv", MATRIX)
def test_matches_under_a_second_blas_kernel(argv, prescott_runs):
    _compare(_recorded(argv), prescott_runs[argv], argv)
    _compare(_run(argv), prescott_runs[argv], argv)


def record() -> None:
    """Write the run of every argv of MATRIX as its golden file."""
    GOLDEN.mkdir(exist_ok=True)
    for argv in MATRIX:
        data = json.dumps(_run(argv), indent=1).encode("utf-8")
        with open(_path(argv), "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0, filename="") as fh:
                fh.write(data)


if __name__ == "__main__":
    record()
