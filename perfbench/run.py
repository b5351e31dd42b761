"""entcorr benchmark: one workload, untraced (end-to-end) or traced (per layer).

    python3 perfbench/run.py --workload {verify,slice,search} --seed N \
        --seconds S --trace {0,1}

Run from any directory; the program is imported from ``src/`` next to
this directory. Each workload pass runs in a fresh child process with
single-threaded BLAS, until the next pass would end after ``--seconds``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics
(setup_s, wall_s, peak_rss_mb); with ``--trace 1`` untraced and traced
passes alternate and it carries the per-layer metrics and trace_overhead.
Every metric of the workload is printed above that line and written, with
digests, checks and the environment, to ``.perfbench/report-*.json``.

``--update-refs`` stores the outputs of one pass as the reference for the
seed instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = os.path.join(".perfbench", "work")  # relative: the JSON config records --out
REPORT_DIR = ROOT / ".perfbench"
REFS = HERE / "refs"
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # children still running this long after the start are killed
SETUP_CODE = "import entcorr.cli; entcorr.cli.build_parser()"

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
# Printed and reported per workload where they apply; not part of the last line.
REPORTED = [
    ("samples_per_s", "1/s"), ("points_per_s", "1/s"), ("failed_frac", "ratio"),
    ("mi_g_mean", "nats"), ("tightness_gap_max", "nats"), ("ccbound_gap_max", "distance"),
    ("bures_mixed_c_mean", "distance"), ("bures_mixed_overshoot_max", "distance"),
]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def environment(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": nproc, "commit": commit}


def run_child(cmd: list[str], env: dict, deadline: float) -> tuple[int | None, str]:
    """Run a child in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "timed out"
    return proc.returncode, err


def measure_setup(env: dict, deadline: float) -> list[float]:
    """Fresh interpreter to `import entcorr.cli` + build_parser(), repeated."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    run_child(cmd, env, deadline)  # let the bytecode cache fill
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        rc, err = run_child(cmd, env, deadline)
        times.append(time.perf_counter() - start)
        if rc != 0:
            raise RuntimeError(f"set-up failed: {err.strip()}")
    return times


def run_pass(workload: str, seed: int, nproc: int, traced: bool, env: dict,
             deadline: float) -> dict:
    result_path = os.path.join(WORKDIR, "pass.json")
    full = ROOT / result_path
    if full.exists():
        full.unlink()
    rc, err = run_child([sys.executable, str(HERE / "passrun.py"), workload, str(seed),
                         str(nproc), "1" if traced else "0", WORKDIR, result_path],
                        env, deadline)
    if rc != 0 or not full.exists():
        return {"error": f"pass exited with {rc}: {err.strip()[-2000:]}"}
    with open(full, encoding="utf-8") as fh:
        result = json.load(fh)
    result["stderr"] = err.strip()[-2000:]
    return result


def ref_key(op: workloads.Op) -> list[str]:
    return list(op.argv) if op.is_cli else ["c_distance_numeric", "bures", str(op.target)]


def expected_rows(op: workloads.Op) -> int:
    return op.samples or op.grid_points or 1


def check_op(op, rec, refs, first_digest) -> dict:
    """Correctness of one operation's run: exit, output, reference, repeat."""
    entry = {"name": op.name, "s": rec.get("s"), "rc": rec.get("rc"), "reasons": []}
    reasons = entry["reasons"]
    if rec.get("rc") != 0 or rec.get("error"):
        reasons.append(f"exit code {rec.get('rc')} {rec.get('error') or ''}".strip())
    path = ROOT / op.out_path(WORKDIR)
    if not path.is_file():
        reasons.append("no output")
        return entry
    data = path.read_bytes()
    text = data.decode("utf-8")
    entry["sha256"] = checks.digest(data)
    entry["bytes"] = len(data)
    if first_digest is not None and entry["sha256"] != first_digest:
        reasons.append("output differs from the first pass of this run")
    try:
        cols = checks.parse_output(text)
    except (ValueError, IndexError, KeyError) as exc:
        reasons.append(f"unparseable output: {exc!r}")
        return entry
    entry["columns_parsed"] = cols
    rows = len(next(iter(cols.values()))) if cols else 0
    if rows != expected_rows(op):
        reasons.append(f"{rows} rows, expected {expected_rows(op)}")
    ref = refs.lookup(op.name, ref_key(op))
    ref_cols = None
    if ref is None:
        entry["reference"] = "none"
    elif ref[0] == entry["sha256"]:
        entry["reference"] = "match"
    else:
        entry["reference"] = "differs"
        ref_cols = checks.parse_output(ref[1])
    rules = checks.column_rules(op.command, op.flag("--kind", "hellinger"),
                                op.flag("--format", "csv"))
    column_checks = checks.check_columns(cols, ref_cols, rules)
    entry["columns"] = [vars(c) for c in column_checks]
    for c in column_checks:
        if not c.ok:
            reasons.append(f"column {c.column} ({c.mode}): {c.bad} bad, {c.note}")
    return entry


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def pass_figures(ops, result, entries, seed) -> dict:
    """Per-pass figures for the end-to-end report."""
    samples = sum(op.samples for op in ops)
    points = sum(op.grid_points for op in ops)
    verify_s = sum(r["s"] for op, r in zip(ops, result["ops"]) if op.samples)
    grid_s = sum(r["s"] for op, r in zip(ops, result["ops"]) if op.grid_points)
    fig = {
        "wall_s": result["wall_s"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "samples_per_s": samples / verify_s if samples and verify_s > 0 else None,
        "points_per_s": points / grid_s if points and grid_s > 0 else None,
    }
    cs, overshoot = [], []
    for op, entry in zip(ops, entries):
        cols = entry.get("columns_parsed")
        if cols is None:
            continue
        fig.update(checks.accuracy(op.name, cols))
        if not op.is_cli and "c" in cols:
            c = float(cols["c"][0])
            cs.append(c)
            _, psi = workloads.bures_mixed_target(seed, op.target)
            overshoot.append(c - workloads.bures_pure_value(psi))
    if cs:
        fig["bures_mixed_c_mean"] = sum(cs) / len(cs)
        fig["bures_mixed_overshoot_max"] = max(overshoot)
    return fig


def format_value(value) -> str:
    if value is None:
        return "missing"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


@dataclass
class Pass:
    traced: bool
    result: dict  # the child's result, or {"error": ...}
    entries: list[dict]  # check_op() per operation
    figures: dict | None  # pass_figures(), None when the child failed


def run_passes(args, ops, refs, nproc: int, env: dict, deadline: float) -> list[Pass]:
    """Passes until the next would end after --seconds; traced ones alternate."""
    start = time.perf_counter()
    durations: dict[bool, list[float]] = {False: [], True: []}
    passes: list[Pass] = []
    first_digests: dict[str, str] = {}
    while True:
        traced = bool(args.trace) and len(durations[False]) > len(durations[True])
        t0 = time.perf_counter()
        result = run_pass(args.workload, args.seed, nproc, traced, env, deadline)
        durations[traced].append(time.perf_counter() - t0)
        if "error" in result:
            passes.append(Pass(traced, result, [{"name": op.name, "reasons": [result["error"]]}
                                                for op in ops], None))
        else:
            entries = [check_op(op, rec, refs, first_digests.get(op.name))
                       for op, rec in zip(ops, result["ops"])]
            for entry in entries:
                first_digests.setdefault(entry["name"], entry.get("sha256"))
            passes.append(Pass(traced, result, entries,
                               pass_figures(ops, result, entries, args.seed)))
        if args.trace and not durations[True]:
            continue
        upcoming = bool(args.trace) and len(durations[False]) > len(durations[True])
        elapsed = time.perf_counter() - start
        if "error" in result or elapsed + median(durations[upcoming]) > args.seconds:
            return passes


def end_to_end(passes: list[Pass], setup: list[float], failed: int, attempted: int) -> dict:
    """Median over untraced passes of every end-to-end figure that applies."""
    figures: dict = {}
    if setup:
        figures["setup_s"] = {"value": median(setup), "unit": "s", "n": len(setup)}
    untraced = [p.figures for p in passes if not p.traced and p.figures is not None]
    for name, unit in END_TO_END[1:] + REPORTED:
        if name == "failed_frac":
            figures[name] = {"value": failed / attempted, "unit": unit, "n": attempted}
            continue
        values = [f[name] for f in untraced if f.get(name) is not None]
        if values:
            figures[name] = {"value": median(values), "unit": unit, "n": len(values),
                             "min": min(values), "max": max(values)}
    return figures


def per_layer(ops, passes: list[Pass]) -> dict | None:
    """Median over traced passes of every per-layer metric, or None."""
    walls = {traced: [p.result["wall_s"] for p in passes
                      if p.traced == traced and p.figures is not None]
             for traced in (False, True)}
    if not walls[True] or not walls[False]:
        return None
    overhead = median(walls[True]) / median(walls[False]) - 1.0
    samples = sum(op.samples for op in ops)
    derived = []
    for p in passes:
        if p.traced and p.figures is not None:
            out_bytes = sum(e.get("bytes", 0) for op, e in zip(ops, p.entries) if op.is_cli)
            derived.append(layers.derive(p.result["trace"], samples, out_bytes, overhead))
    return {name: {"value": median([d[name] for d in derived]), "unit": unit}
            for name, unit in layers.PER_LAYER}


def print_report(header: str, figures: dict, operations: list[dict], layer_figures) -> None:
    print(header)
    for name, fig in figures.items():
        count = f" (median of {fig['n']})" if name != "failed_frac" else ""
        print(f"{name:28s} {format_value(fig['value']):>14s} {fig['unit']}{count}")
    seen = set()
    for entry in operations:
        if entry["name"] in seen and not entry["reasons"]:
            continue
        seen.add(entry["name"])
        compared = [c for c in entry.get("columns", []) if not math.isnan(c["max_abs"])]
        dev = " ".join(f"{c['column']}:abs={c['max_abs']:.3g},ulp={c['max_ulp']}"
                       for c in compared)
        print(f"op {entry['name']:22s} sha256={entry.get('sha256', '-')[:16]} "
              f"reference={entry.get('reference', '-')} {dev}".rstrip())
        for reason in entry["reasons"]:
            print(f"   FAILED: {reason}")
    for name, fig in (layer_figures or {}).items():
        print(f"{name:44s} {format_value(fig['value']):>14s} {fig['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-refs", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "entcorr" / "__init__.py").is_file():
        print(f"no entcorr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    nproc = len(os.sched_getaffinity(0))
    ops = workloads.build(args.workload, args.seed, nproc)
    refs = checks.References(str(REFS / f"seed{args.seed}"))
    shutil.rmtree(ROOT / WORKDIR, ignore_errors=True)
    (ROOT / WORKDIR).mkdir(parents=True)

    if args.update_refs:
        result = run_pass(args.workload, args.seed, nproc, False, env, deadline)
        if "error" in result or any(r["rc"] != 0 for r in result["ops"]):
            print(f"pass failed: {result}", file=sys.stderr)
            return 1
        for op in ops:
            refs.store(op.name, ref_key(op), (ROOT / op.out_path(WORKDIR)).read_text("utf-8"))
            print(f"stored {op.name}")
        return 0

    setup = [] if args.trace else measure_setup(env, deadline)
    passes = run_passes(args, ops, refs, nproc, env, deadline)
    operations = [{k: v for k, v in entry.items() if k != "columns_parsed"}
                  for p in passes for entry in p.entries]
    attempted = len(operations)
    failed = sum(1 for entry in operations if entry["reasons"])
    figures = end_to_end(passes, setup, failed, attempted)
    layer_figures = per_layer(ops, passes) if args.trace else None

    counts = {traced: sum(1 for p in passes if p.traced == traced and p.figures is not None)
              for traced in (False, True)}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(nproc),
        "argv": {op.name: ref_key(op) for op in ops},
        "passes": {"untraced": counts[False], "traced": counts[True]},
        "pass_walls": [[p.traced, p.result.get("wall_s")] for p in passes],
        "setup_times": setup,
        "attempted": attempted, "failed": failed,
        "end_to_end": figures, "per_layer": layer_figures, "operations": operations,
        "trace_tables": [p.result["trace"] for p in passes if p.traced and p.figures],
    }
    REPORT_DIR.mkdir(exist_ok=True)
    report_path = REPORT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    header = (f"# workload={args.workload} seed={args.seed} trace={args.trace} "
              f"untraced_passes={counts[False]} traced_passes={counts[True]} "
              + " ".join(f"{k}={v}" for k, v in report["environment"].items()))
    print_report(header, figures, operations, layer_figures)
    print(f"# report: {report_path.relative_to(ROOT)}")

    if args.trace:
        if layer_figures is None:
            print("no traced and untraced pass completed", file=sys.stderr)
            return 1
        metrics = {name: layer_figures[name] for name, _ in layers.IN_RESULT_LINE}
    else:
        if "wall_s" not in figures:
            print("no pass completed", file=sys.stderr)
            return 1
        metrics = {name: {"value": figures[name]["value"], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
