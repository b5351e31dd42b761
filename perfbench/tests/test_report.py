import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_match_the_code():
    bench = bench_json()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers.IN_RESULT_LINE
    assert layers.REPORT_ONLY < {name for name, _ in layers.PER_LAYER}
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = bench["end_to_end"][0]
    assert setup["name"] == "setup_s" and setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", "verify", "--seed", "0", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_carries_every_metric_by_name(trace):
    proc = run_bench(ROOT, "--workload", "verify", "--seed", "0", "--seconds", "0.1",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = run.END_TO_END if trace == "0" else layers.IN_RESULT_LINE
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    printed = {line.split()[0] for line in lines[:-1] if line and not line.startswith("#")}
    assert {"wall_s", "peak_rss_mb", "samples_per_s", "failed_frac"} <= printed
    if trace == "1":
        assert {name for name, _ in layers.PER_LAYER} <= printed
    assert "op" in printed  # per-operation digest lines


def test_child_is_killed_at_the_deadline():
    start = time.monotonic()
    rc, err = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                            run.child_env(), deadline=start)
    assert rc is None and err == "timed out"
    assert time.monotonic() - start < 10
