"""Golden CLI outputs: each argv of MATRIX against its recorded run.

Every run goes through entcorr.cli.main in this process, and its exit
code, stdout and stderr are compared with tests/golden/<name>.json.gz. The
columns and JSON keys that tests/kernel_bounds.py bounds compare by value,
within their bound, so the recording holds under any BLAS kernel; all else
compares by bytes: the other columns, the header lines, the JSON layout,
stderr and the exit code. JSON runs write to stdout, so their config
records out as null.

A change that is meant to move an output re-records them all:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import gzip
import io
import json
from pathlib import Path

import pytest
from kernel_bounds import KERNEL_BOUNDS

from entcorr.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

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


@pytest.mark.parametrize("argv", MATRIX)
def test_matches_the_recorded_run(argv):
    with gzip.open(_path(argv), "rt", encoding="utf-8") as fh:
        want = json.load(fh)
    got = _run(argv)
    assert (got["code"], got["stderr"]) == (want["code"], want["stderr"])
    bounds = KERNEL_BOUNDS.get(argv.split()[0], {})
    if "--format json" in argv:
        report = json.loads(got["stdout"])
        assert got["stdout"] == json.dumps(report, indent=2) + "\n"  # the layout _emit writes
        _compare_json(json.loads(want["stdout"]), report, bounds)
    else:
        _compare_csv(want["stdout"], got["stdout"], bounds)


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
