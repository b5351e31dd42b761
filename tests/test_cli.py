"""Command-line contract: determinism of the output bytes and the exit codes."""

import contextlib
import csv
import json
import math
import os
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from entcorr import cli, correlations, qcore
from entcorr.bounds import xi_ef
from entcorr.cli import main
from entcorr.correlations import c_max, f_value
from entcorr.measures import entanglement_of_formation
from entcorr.qcore import worker_rng


def run_to_text(tmp_path, name, argv):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv, rows",
        [(["curve", "--kind", "mutual_information", "--grid", "5"], 5), (["ccbound"], 20)],
        ids=["curve-mutual_information", "ccbound"],
    )
    def test_output_does_not_depend_on_seed(self, tmp_path, argv, rows):
        texts = [
            run_to_text(tmp_path, f"{argv[0]}-{seed}.csv", [*argv, "--seed", seed])
            for seed in ("0", "7")
        ]
        lines = [text.splitlines() for text in texts]
        assert [ln for ln in lines[0] if ln.startswith("# seed=")] == ["# seed=0"]
        assert [ln for ln in lines[1] if ln.startswith("# seed=")] == ["# seed=7"]
        assert [ln for ln in lines[0] if not ln.startswith("# seed=")] == [
            ln for ln in lines[1] if not ln.startswith("# seed=")
        ]
        assert len(lines[0]) == 5 + 1 + rows  # meta lines, the header and the rows

    def test_verify_repeat_is_byte_identical(self, tmp_path):
        argv = ["verify", "--samples", "200"]
        first = run_to_text(tmp_path, "first.csv", argv)
        second = run_to_text(tmp_path, "second.csv", argv)
        assert first == second
        assert first.count("\n") == 9 + 1 + 200  # meta lines, header, rows


def per_sample_chunk(args) -> list[tuple]:
    """`verify`'s chunk as a loop over single samples: the reference."""
    kind, dim_b, count, seed, stream = args
    rng = worker_rng(seed, stream)
    xmax = c_max(kind, 4)
    out = []
    for _ in range(count):
        z = rng.standard_normal((4, dim_b)) + 1j * rng.standard_normal((4, dim_b))
        m = z / np.linalg.norm(z)
        lam = np.linalg.svd(m, compute_uv=False) ** 2
        lam = lam[lam > 1e-12]
        lam = lam / lam.sum()
        x = min(f_value(kind, lam), xmax)
        rho_a = m @ m.conj().T
        e = entanglement_of_formation(rho_a)
        bound = float(xi_ef(kind, x))
        out.append((x, e, bound, bound - e, tuple(float(t) for t in lam)))
    return out


def verify_json(tmp_path, name, argv):
    return json.loads(run_to_text(tmp_path, name, ["verify", "--format", "json", *argv]))


class TestVerifyChunk:
    @pytest.mark.parametrize("kind", ["hellinger", "bures", "mutual_information"])
    @pytest.mark.parametrize("dim_b", [1, 2, 3, 16])
    def test_matches_per_sample_reference(self, kind, dim_b, monkeypatch):
        args = (kind, dim_b, 300, 5, 1)
        expected = per_sample_chunk(args)
        # 300 samples fill no whole block at dim_b <= 4 and one at dim_b = 16;
        # with the smaller budget the blocks hold 7 samples, 42 full blocks and 6.
        for entries in (cli._VERIFY_BLOCK_ENTRIES, 4 * max(dim_b, 4) * 7):
            monkeypatch.setattr(cli, "_VERIFY_BLOCK_ENTRIES", entries)
            x, e, bound, lam = cli._verify_chunk(args)
            assert all(a.dtype == np.float64 for a in (x, e, bound, lam))
            assert [x.tolist(), e.tolist(), bound.tolist(), (bound - e).tolist()] == [
                [rec[i] for rec in expected] for i in range(4)
            ]
            assert [tuple(row[row > 0.0].tolist()) for row in lam] == [rec[4] for rec in expected]

    def test_mutual_information_bound_is_the_curve_at_each_x(self):
        x, e, bound, _ = cli._verify_chunk(("mutual_information", 16, 300, 5, 1))
        assert bound.tolist() == xi_ef("mutual_information", x).tolist()
        assert not (bound - e < -1e-9).any()

    def test_memory_is_bounded_at_a_large_dim_b(self):
        tracemalloc.start()
        try:
            cli._verify_chunk(("hellinger", 4096, 300, 0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestVerifyOutput:
    def test_json_records_are_dropped_past_ten_thousand_unless_full(self, tmp_path):
        report = verify_json(tmp_path, "short.json", ["--samples", "10001"])
        assert "records" not in report
        assert report["summary"]["samples"] == 10001
        full = verify_json(tmp_path, "full.json", ["--samples", "10001", "--full"])
        assert len(full["records"]) == 10001
        assert all(
            list(rec) == ["idx", "x", "e", "bound", "slack", "spectrum"] for rec in full["records"]
        )
        assert full["summary"] == report["summary"]

    def test_two_workers_merge_in_stream_order(self, tmp_path):
        n = 301
        one = verify_json(tmp_path, "w1.json", ["--samples", str(n)])["records"]
        report = verify_json(tmp_path, "w2.json", ["--samples", str(n), "--workers", "2"])
        two = report["records"]
        assert [rec["idx"] for rec in two] == list(range(n))
        # Worker 1 draws the first ceil(n/2) samples from stream 1, as a lone worker does.
        head = math.ceil(n / 2)
        assert two[:head] == one[:head]
        assert two[head:] != one[head:]
        slacks = [rec["slack"] for rec in two]
        assert report["summary"]["samples"] == n
        assert report["summary"]["violations"] == sum(s < -1e-9 for s in slacks)
        assert report["summary"]["min_slack"] == min(slacks)

    @pytest.mark.parametrize("cores, pool", [(3, 3), (None, 1)])
    def test_pool_is_capped_at_the_processor_count(self, tmp_path, monkeypatch, cores, pool):
        sizes = []

        class InlinePool:
            """Records the pool size and runs the jobs in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        report = verify_json(tmp_path, "w64.json", ["--samples", "64", "--workers", "64"])
        assert sizes == [pool]
        assert report["config"]["workers"] == 64
        # 64 jobs of one sample each, sample i from stream i + 1
        records = report["records"]
        assert [rec["idx"] for rec in records] == list(range(64))
        for i in (0, 63):
            x, e, bound, lam = cli._verify_chunk(("hellinger", 16, 1, 0, i + 1))
            assert (records[i]["x"], records[i]["bound"], records[i]["spectrum"]) == (
                x[0], bound[0], lam[0][lam[0] > 0.0].tolist()
            )

    @pytest.mark.parametrize("fmt, limit", [("csv", 450), ("json", 200)])
    def test_peak_memory_per_sample(self, tmp_path, fmt, limit):
        # Traced bytes per sample at 20,000 samples, where JSON leaves the
        # records out; the first run makes the lazy imports and caches.
        argv = ["verify", "--format", fmt, "--out", str(tmp_path / "v")]
        assert main([*argv, "--samples", "10"]) == 0
        tracemalloc.start()
        try:
            assert main([*argv, "--samples", "20000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * 20_000


REJECTED = [
    ("curve", "entropy"),
    ("verify", "entropy"),
    ("tightness", "mutual_information"),
    ("tightness", "entropy"),
    ("gd", "mutual_information"),
    ("gd", "entropy"),
    ("ccbound", "bures"),
    ("ccbound", "mutual_information"),
    ("ccbound", "entropy"),
]


class TestExitCodes:
    @pytest.mark.parametrize(
        "command, kind", REJECTED, ids=[f"{c}-{k}" for c, k in REJECTED]
    )
    def test_unsupported_kind_is_a_config_error(self, tmp_path, capsys, command, kind):
        out = tmp_path / "t.csv"
        argv = [command, "--kind", kind, "--out", str(out)]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_of_one_is_a_config_error(self, tmp_path, capsys):
        assert main(["curve", "--grid", "1", "--out", str(tmp_path / "c.csv")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_output_directory_is_an_io_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "curve.csv"
        assert main(["curve", "--grid", "3", "--out", str(out)]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_violation_is_a_verification_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "xi_ef", lambda kind, x: np.full_like(x, -1.0))  # every slack < 0
        argv = ["verify", "--samples", "20", "--out", str(tmp_path / "v.csv")]
        assert main(argv) == 4
        assert "verification failed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, curve, header", [
        (["verify", "--samples", "20"], "xi_ef", "idx,x,e,bound,slack"),
        (["tightness", "--grid", "3"], "xi_ef",
         "x,bound,ef_construct,gap_construct,ef_numeric,gap_numeric,c_pure"),
        (["ccbound", "--grid", "4"], "zeta_ef", "x,zeta,c_numeric,c_gap,ef_a"),
        (["gd", "--grid", "5"], "xi_ef", "x,analytic,numeric,abs_diff"),
    ], ids=["verify", "tightness", "ccbound", "gd"])
    def test_failed_check_still_writes_the_whole_table(self, tmp_path, capsys, monkeypatch,
                                                       argv, curve, header):
        # a closed form of -1 fails the command's first check on the curve
        monkeypatch.setattr(cli, curve, lambda kind, x: np.full_like(x, -1.0))
        out = tmp_path / "t.csv"
        assert main([*argv, "--out", str(out)]) == 4
        assert "verification failed" in capsys.readouterr().err
        table = [ln for ln in out.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
        assert table[0] == header
        assert len(table) == 1 + int(argv[2])
        assert all(len(row.split(",")) == len(header.split(",")) for row in table[1:])

    @pytest.mark.parametrize("tolerance", ["inf", "-inf", "nan", "0"])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, tolerance):
        out = tmp_path / "g.json"
        assert main(["gd", f"--tolerance={tolerance}", "--format", "json", "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("samples", 2.5), ("dim_b", 2.5), ("grid", 2.5), ("workers", 2.5),
        ("seed", "0"), ("samples", True), ("seed", False),
    ], ids=["seed", "samples", "dim_b", "grid", "workers", "seed-str", "samples-bool",
            "seed-bool"])
    def test_non_integer_field_is_a_config_error(self, tmp_path, capsys, field, value):
        # argparse gives ints; a RunConfig built in code may not
        out = tmp_path / "v.csv"
        cfg = cli.RunConfig("verify", **{"samples": 20, "out": str(out), field: value})
        assert cli.run(cfg) == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fields", [
        {"command": "nope"}, {"command": ["gd"]}, {"tolerance": "0.1"}, {"tolerance": None},
        {"kind": ["bures"]}, {"out": "pipe"}, {"out": "path", "format": "json"}, {"full": "yes"},
        {"tolerance": True}, {"tolerance": True, "format": "json"},
    ], ids=["command", "command-list", "tolerance-str", "tolerance-none", "kind-list",
            "out-fd", "out-path", "full-str", "tolerance-bool", "tolerance-bool-json"])
    def test_malformed_field_is_a_config_error(self, tmp_path, capsys, fields):
        # argparse never builds these; a RunConfig built in code may. The int
        # out is one end of the test's own pipe, since a run that opened it
        # would close it; a Path is no JSON value.
        out = tmp_path / "g.csv"
        read, write = os.pipe()
        try:
            given = {"pipe": write, "path": out}.get(fields.get("out"), str(out))
            cfg = cli.RunConfig(**{"command": "gd", **fields, "out": given})
            assert cli.run(cfg) == 2
            assert "config error" in capsys.readouterr().err
            assert not out.exists()
            os.fstat(write)  # still open
        finally:
            for fd in (read, write):
                with contextlib.suppress(OSError):
                    os.close(fd)


class TestJSONMatchesCSV:
    @pytest.mark.parametrize("argv", [
        ["curve", "--kind", "hellinger", "--grid", "5"],
        ["curve", "--kind", "mutual_information", "--grid", "5"],
        ["tightness", "--grid", "3"],
        ["ccbound", "--grid", "2"],
        ["gd", "--grid", "3"],
        ["verify", "--samples", "300"],
    ], ids=["curve-hellinger", "curve-mutual_information", "tightness", "ccbound", "gd", "verify"])
    def test_same_rows_and_the_parsed_config(self, tmp_path, argv):
        lines = run_to_text(tmp_path, "r.csv", argv).splitlines()
        header, *rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
        json_argv = [*argv, "--format", "json", "--out", str(tmp_path / "r.json")]
        assert main(json_argv) == 0
        report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        # only verify's JSON records carry a column CSV leaves out: the spectrum
        spectra = [rec.pop("spectrum") for rec in report["records"] if "spectrum" in rec]
        assert len(spectra) == (len(rows) if argv[0] == "verify" else 0)
        assert all(abs(math.fsum(p) - 1.0) <= 1e-12 for p in spectra)
        assert report["records"] == [dict(zip(header, map(float, row))) for row in rows]
        parsed = cli.config_from_args(cli.build_parser().parse_args(json_argv))
        # every field, then two retired ones kept as null
        assert report["config"] == {**asdict(parsed), "opt_restarts": None, "opt_iters": None}
        assert list(report["config"])[-2:] == ["opt_restarts", "opt_iters"]
        assert report["config"]["out"] == str(tmp_path / "r.json")


class TestParser:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_a_flag_left_out_takes_the_command_default(self, command):
        defaults = cli._COMMANDS[command].defaults
        parse = cli.build_parser().parse_args
        assert cli.config_from_args(parse([command])) == cli.RunConfig(command, **defaults)
        for flag, value in (("--grid", 7), ("--tolerance", 0.5)):
            cfg = cli.config_from_args(parse([command, flag, str(value)]))
            assert cfg == cli.RunConfig(command, **{**defaults, flag[2:]: value})

    def test_flags_go_before_or_after_the_command(self):
        parse = cli.build_parser().parse_args
        after = parse(["gd", "--grid", "3", "--seed", "2"])
        assert parse(["--grid", "3", "gd", "--seed", "2"]) == after

    def test_built_once_and_unchanged_by_parsing(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        first = vars(parser.parse_args(["verify"]))
        parser.parse_args(["verify", "--seed", "5", "--kind", "bures", "--full"])
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", "--grid", "x"])
        assert vars(parser.parse_args(["verify"])) == first


class TestCCBound:
    def test_default_grid_matches_closed_form(self, tmp_path):
        text = run_to_text(tmp_path, "cc.csv", ["ccbound"])
        rows = list(csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#")))
        assert len(rows) == 20
        assert all(abs(float(row["c_gap"])) <= 1e-12 for row in rows)
        # the states come from the closed-form slice witness, so c_gap stays at
        # rounding on a fine grid too, near x = 0 included
        text = run_to_text(tmp_path, "fine.csv", ["ccbound", "--grid", "2000"])
        rows = list(csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#")))
        assert len(rows) == 2000
        assert all(abs(float(row["c_gap"])) <= 1e-15 for row in rows)
        assert all(float(row["ef_a"]) <= float(row["zeta"]) for row in rows)

    def test_draws_no_generator(self, tmp_path, monkeypatch):
        # the one closest kernel with a cc curve is the exact Hellinger one
        def banned(*args):
            raise AssertionError("ccbound drew a generator")

        monkeypatch.setattr(cli, "worker_rng", banned)
        monkeypatch.setattr(correlations, "worker_rng", banned)
        assert main(["ccbound", "--grid", "3", "--out", str(tmp_path / "cc.csv")]) == 0

    def test_validates_the_built_states_once(self, tmp_path, monkeypatch):
        shapes = []
        check = qcore.validate_density_stack

        def counted(rho):
            shapes.append(np.shape(rho))
            return check(rho)

        def banned(*args, **kwargs):
            raise AssertionError("ccbound re-checks data it built")

        monkeypatch.setattr(qcore, "validate_density_stack", counted)
        monkeypatch.setattr(cli, "validate_density_stack", counted)
        for name, module in list(sys.modules.items()):
            if name == "entcorr" or name.startswith("entcorr."):
                for front in ("c_distance_numeric", "entanglement_of_formation",
                              "strictly_correlated_cc", "spectrum_at_f"):
                    if hasattr(module, front):
                        monkeypatch.setattr(module, front, banned)
        assert main(["ccbound", "--grid", "5", "--out", str(tmp_path / "cc.csv")]) == 0
        assert shapes == [(5, 16, 16)]


class TestTightness:
    def test_repeat_is_byte_identical_and_tight(self, tmp_path):
        argv = ["tightness", "--grid", "3", "--seed", "0"]
        first = run_to_text(tmp_path, "first.csv", argv)
        assert run_to_text(tmp_path, "second.csv", argv) == first
        lines = first.splitlines()
        assert lines[:4] == ["# command=tightness", "# kind=hellinger", "# seed=0", "# grid=3"]
        assert lines[4].startswith("# version=")
        rows = list(csv.DictReader(lines[5:]))
        assert len(rows) == 3
        assert all(abs(float(row["gap_numeric"])) <= 1e-3 for row in rows)

    @pytest.mark.parametrize("kind", ["hellinger", "bures"])
    def test_default_grid_is_tight_to_rounding(self, tmp_path, kind):
        text = run_to_text(tmp_path, "t.csv", ["tightness", "--kind", kind, "--tolerance", "1e-12"])
        rows = list(csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#")))
        assert len(rows) == 20
        assert all(float(row["ef_numeric"]) <= float(row["bound"]) + 1e-12 for row in rows)
        assert all(abs(float(row["c_pure"]) - float(row["x"])) <= 1e-14 for row in rows)

    def test_validates_the_built_states_once(self, tmp_path, monkeypatch):
        shapes = []
        check = qcore.validate_density_stack

        def counted(rho):
            shapes.append(np.shape(rho))
            return check(rho)

        def banned(*args, **kwargs):
            raise AssertionError("tightness re-checks data it built")

        monkeypatch.setattr(qcore, "validate_density_stack", counted)
        monkeypatch.setattr(cli, "validate_density_stack", counted)
        for name, module in list(sys.modules.items()):
            if name == "entcorr" or name.startswith("entcorr."):
                for front in ("purify", "schmidt", "entanglement_of_formation"):
                    if hasattr(module, front):
                        monkeypatch.setattr(module, front, banned)
        assert main(["tightness", "--grid", "5", "--out", str(tmp_path / "t.csv")]) == 0
        assert shapes == [(5, 4, 4)]

    def test_construction_miss_is_a_verification_error(self, tmp_path, capsys, monkeypatch):
        # the maximally mixed state has the requested spectrum only at the last level
        monkeypatch.setattr(cli, "_max_ef_states",
                            lambda q: np.broadcast_to(np.eye(4) / 4, q.shape[:-1] + (4, 4)))
        assert main(["tightness", "--grid", "5", "--out", str(tmp_path / "t.csv")]) == 4
        assert "verification failed" in capsys.readouterr().err
