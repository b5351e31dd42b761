"""Output digests, parsing and the reference comparator.

Every operation writes one output file. Its SHA-256 is recorded; when it
differs from the stored reference for the same argv, the columns are
compared one by one and the largest absolute and ulp deviations reported.

Column rules:

- ``exact``: closed-form columns (x, e, bound for distance kinds, analytic,
  ...) must match the reference two-sided within ``TIGHT``.
- ``up`` / ``down``: columns of an oracle that errs on one side of the true
  value (MI bound, ef_numeric, c_numeric, Bures mixed C). A value may only
  move toward the true value: ``up`` columns may grow, ``down`` columns may
  shrink, each within ``TIGHT`` of the reference on the other side. Where
  the true value is known (a column or a constant), the value may not pass
  it by more than ``TRUTH_TOL``; that side is checked with or without a
  reference, so an exact solver passes and an overshooting one does not.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

TIGHT = 1e-12  # two-sided and reference-side tolerance, absolute
TRUTH_TOL = 1e-9  # allowed overshoot past a known true value
LN2 = math.log(2.0)

EXACT = ("exact", None)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def column_rules(command: str, kind: str, fmt: str) -> dict[str, tuple[str, object]]:
    """Rule per output column: (mode, truth), truth a column name or constant."""
    if command == "verify":
        spectrum = {"spectrum": EXACT} if fmt == "json" else {}
        if kind == "mutual_information":
            return {"idx": EXACT, "x": EXACT, "e": EXACT,
                    "bound": ("up", None), "slack": ("up", None), **spectrum}
        return {**{c: EXACT for c in ("idx", "x", "e", "bound", "slack")}, **spectrum}
    if command == "curve":
        if kind == "mutual_information":
            return {"x": EXACT, "bound": ("up", None)}
        return {"x": EXACT, "bound": EXACT}
    if command == "gd":
        return {"x": EXACT, "analytic": EXACT,
                "numeric": ("up", "analytic"), "abs_diff": ("down", 0.0)}
    if command == "tightness":
        return {"x": EXACT, "bound": EXACT, "ef_construct": EXACT, "gap_construct": EXACT,
                "c_pure": EXACT, "ef_numeric": ("up", "bound"), "gap_numeric": ("down", 0.0)}
    if command == "ccbound":
        return {"x": EXACT, "zeta": EXACT, "ef_a": EXACT,
                "c_numeric": ("down", "x"), "c_gap": ("down", 0.0)}
    if command == "c_distance_numeric":
        return {"target": EXACT, "c": ("down", 0.0)}
    raise ValueError(f"no column rules for {command!r}")


def parse_output(text: str) -> dict[str, np.ndarray]:
    """Numeric columns of a CSV (after '# key=value' lines) or JSON report.

    JSON list-valued fields (the verify spectrum) are flattened into one
    column.
    """
    if text.lstrip().startswith("{"):
        records = json.loads(text).get("records", [])
        cols: dict[str, list] = {}
        for rec in records:
            for key, value in rec.items():
                if isinstance(value, list):
                    cols.setdefault(key, []).extend(value)
                else:
                    cols.setdefault(key, []).append(value)
        return {k: np.asarray(v, dtype=float) for k, v in cols.items()}
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return {name: np.asarray([float(r[i]) for r in rows], dtype=float)
            for i, name in enumerate(header)}


def ulp_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Largest number of representable doubles between paired entries."""
    def ordered(x):
        bits = np.asarray(x, dtype=np.float64).view(np.int64).tolist()
        return [i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF) for i in bits]

    return max((abs(p - q) for p, q in zip(ordered(a), ordered(b))), default=0)


@dataclass
class ColumnCheck:
    column: str
    mode: str
    max_abs: float  # largest |new - reference|, nan without a reference
    max_ulp: int  # largest ulp distance to the reference, -1 without one
    bad: int  # entries breaking the rule
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.bad == 0


def check_columns(new: dict, ref: dict | None, rules: dict) -> list[ColumnCheck]:
    """Apply the column rules; ``ref`` is None for a seed without reference."""
    out = []
    for name, (mode, truth) in rules.items():
        if name not in new:
            out.append(ColumnCheck(name, mode, math.nan, -1, 1, "column missing"))
            continue
        val = new[name]
        bad = int(np.count_nonzero(~np.isfinite(val)))
        note = ""
        if truth is not None and mode != "exact":
            t = new[truth] if isinstance(truth, str) else float(truth)
            past = val < t - TRUTH_TOL if mode == "down" else val > t + TRUTH_TOL
            if np.any(past):
                note = f"passes the true value {truth!r}"
            bad += int(np.count_nonzero(past))
        max_abs, max_ulp = math.nan, -1
        if ref is not None:
            r = ref.get(name)
            if r is None or r.shape != val.shape:
                out.append(ColumnCheck(name, mode, math.nan, -1, bad + 1,
                                       "shape differs from the reference"))
                continue
            diff = val - r
            max_abs = float(np.max(np.abs(diff))) if diff.size else 0.0
            max_ulp = ulp_distance(val, r)
            if mode == "exact":
                away = np.abs(diff) > TIGHT
            elif mode == "up":
                away = diff < -TIGHT
            else:
                away = diff > TIGHT
            if np.any(away):
                note = note or ("differs from the reference" if mode == "exact"
                                else "moves away from the true value")
            bad += int(np.count_nonzero(away))
        out.append(ColumnCheck(name, mode, max_abs, max_ulp, bad, note))
    return out


# ---------------------------------------------------------------------------
# Stored references (default seed only)
# ---------------------------------------------------------------------------

class References:
    """Reference outputs of one seed: manifest.json plus <op>.out.gz files."""

    def __init__(self, directory: str):
        self.directory = directory
        path = os.path.join(directory, "manifest.json")
        self.manifest = {}
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                self.manifest = json.load(fh)

    def lookup(self, name: str, argv: list[str]) -> tuple[str, str] | None:
        """(sha256, text) of the reference for this op and argv, else None."""
        entry = self.manifest.get(name)
        if entry is None or entry["argv"] != list(argv):
            return None
        with gzip.open(os.path.join(self.directory, f"{name}.out.gz"), "rt",
                       encoding="utf-8", newline="") as fh:
            return entry["sha256"], fh.read()

    def store(self, name: str, argv: list[str], text: str) -> None:
        os.makedirs(self.directory, exist_ok=True)
        data = text.encode("utf-8")
        with open(os.path.join(self.directory, f"{name}.out.gz"), "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0, filename="") as fh:
                fh.write(data)
        self.manifest[name] = {"argv": list(argv), "sha256": digest(data)}
        with open(os.path.join(self.directory, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(self.manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Accuracy metrics (deterministic for a fixed seed)
# ---------------------------------------------------------------------------

def accuracy(name: str, cols: dict) -> dict[str, float]:
    """Accuracy figures carried by one operation's output columns."""
    if name == "curve-mi":
        return {"mi_g_mean": float(np.mean(LN2 - cols["bound"]))}
    if name.startswith("tightness"):
        return {"tightness_gap_max": float(np.max(np.abs(cols["gap_numeric"])))}
    if name == "ccbound":
        return {"ccbound_gap_max": float(np.max(np.abs(cols["c_gap"])))}
    return {}
