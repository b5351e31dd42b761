"""Command-line contract: determinism of the output bytes and the exit codes."""

import csv

from entcorr import cli
from entcorr.cli import main


def run_to_text(tmp_path, name, argv):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


class TestDeterminism:
    def test_mutual_information_curve_does_not_depend_on_seed(self, tmp_path):
        texts = [
            run_to_text(
                tmp_path, f"curve-{seed}.csv",
                ["curve", "--kind", "mutual_information", "--grid", "5", "--seed", seed],
            )
            for seed in ("0", "7")
        ]
        lines = [text.splitlines() for text in texts]
        assert [ln for ln in lines[0] if ln.startswith("# seed=")] == ["# seed=0"]
        assert [ln for ln in lines[1] if ln.startswith("# seed=")] == ["# seed=7"]
        assert [ln for ln in lines[0] if not ln.startswith("# seed=")] == [
            ln for ln in lines[1] if not ln.startswith("# seed=")
        ]
        assert len(lines[0]) == 5 + 6  # 5 meta lines, the header and 5 rows

    def test_verify_repeat_is_byte_identical(self, tmp_path):
        argv = ["verify", "--samples", "200"]
        first = run_to_text(tmp_path, "first.csv", argv)
        second = run_to_text(tmp_path, "second.csv", argv)
        assert first == second
        assert first.count("\n") == 9 + 1 + 200  # meta lines, header, rows


class TestExitCodes:
    def test_unsupported_kind_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        argv = ["tightness", "--kind", "mutual_information", "--out", str(out)]
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
        monkeypatch.setattr(cli, "xi_ef", lambda kind, x: -1.0)  # every slack < 0
        argv = ["verify", "--samples", "20", "--out", str(tmp_path / "v.csv")]
        assert main(argv) == 4
        assert "verification failed" in capsys.readouterr().err


class TestCCBound:
    def test_default_grid_matches_closed_form(self, tmp_path):
        text = run_to_text(tmp_path, "cc.csv", ["ccbound"])
        rows = list(csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#")))
        assert len(rows) == 20
        assert all(abs(float(row["c_gap"])) <= 1e-12 for row in rows)


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
