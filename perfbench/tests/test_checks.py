import json

import numpy as np
import pytest

import checks


def cols(**kw):
    return {k: np.asarray(v, dtype=float) for k, v in kw.items()}


def bad_by_column(result):
    return {c.column: c.bad for c in result}


def test_exact_columns_are_two_sided_and_tight():
    ref = cols(x=[0.5, 1.0])
    rules = {"x": checks.EXACT}
    assert bad_by_column(checks.check_columns(cols(x=[0.5, 1.0]), ref, rules)) == {"x": 0}
    for moved in ([0.5 + 1e-10, 1.0], [0.5, 1.0 - 1e-10]):
        assert bad_by_column(checks.check_columns(cols(x=moved), ref, rules)) == {"x": 1}
    one_ulp = np.nextafter(0.5, 1.0)
    (check,) = checks.check_columns(cols(x=[one_ulp, 1.0]), ref, rules)
    assert check.ok and check.max_ulp == 1 and check.max_abs == pytest.approx(one_ulp - 0.5)


def test_up_column_may_only_grow_toward_a_known_truth():
    ref = cols(ef=[0.40, 0.20], bound=[0.50, 0.30])
    rules = {"ef": ("up", "bound")}
    toward = cols(ef=[0.45, 0.30], bound=[0.50, 0.30])  # the second one exact
    assert bad_by_column(checks.check_columns(toward, ref, rules)) == {"ef": 0}
    away = cols(ef=[0.39, 0.20], bound=[0.50, 0.30])
    assert bad_by_column(checks.check_columns(away, ref, rules)) == {"ef": 1}
    past = cols(ef=[0.51, 0.20], bound=[0.50, 0.30])
    (check,) = checks.check_columns(past, ref, rules)
    assert check.bad == 1 and "true value" in check.note


def test_down_column_may_only_shrink_toward_a_constant_truth():
    ref = cols(c=[0.6])
    rules = {"c": ("down", 0.0)}
    assert checks.check_columns(cols(c=[0.55]), ref, rules)[0].ok
    assert not checks.check_columns(cols(c=[0.61]), ref, rules)[0].ok
    assert not checks.check_columns(cols(c=[-0.01]), ref, rules)[0].ok


def test_without_reference_only_the_truth_side_and_finiteness_are_checked():
    rules = {"c": ("down", "x"), "x": checks.EXACT}
    (c, x) = checks.check_columns(cols(c=[1.0, 2.0], x=[1.0, 1.5]), None, rules)
    assert c.ok and x.ok and c.max_ulp == -1
    (c, _) = checks.check_columns(cols(c=[0.9, 2.0], x=[1.0, 1.5]), None, rules)
    assert c.bad == 1
    (_, x) = checks.check_columns(cols(c=[1.0, 2.0], x=[1.0, np.nan]), None, rules)
    assert x.bad == 1


def test_missing_column_and_row_count_change_fail():
    rules = {"x": checks.EXACT}
    assert not checks.check_columns(cols(y=[1.0]), None, rules)[0].ok
    assert not checks.check_columns(cols(x=[1.0]), cols(x=[1.0, 2.0]), rules)[0].ok


def test_ulp_distance_is_ordered_across_zero():
    tiny = np.nextafter(0.0, 1.0)
    assert checks.ulp_distance(np.array([-0.0]), np.array([0.0])) == 0
    assert checks.ulp_distance(np.array([-tiny]), np.array([tiny])) == 2
    assert checks.ulp_distance(np.array([1.0, 2.0]), np.array([1.0, np.nextafter(2.0, 3.0)])) == 1


def test_parse_csv_with_meta_lines_and_json_records():
    text = "# command=gd\n# kind=bures\nx,analytic\n0,0.5\n1,0.25\n"
    parsed = checks.parse_output(text)
    assert list(parsed) == ["x", "analytic"]
    assert parsed["analytic"].tolist() == [0.5, 0.25]
    report = {"config": {}, "summary": {},
              "records": [{"idx": 0, "x": 0.1, "spectrum": [0.75, 0.25]},
                          {"idx": 1, "x": 0.2, "spectrum": [0.5, 0.5]}]}
    parsed = checks.parse_output(json.dumps(report, indent=2))
    assert parsed["x"].tolist() == [0.1, 0.2]
    assert parsed["spectrum"].tolist() == [0.75, 0.25, 0.5, 0.5]


def test_rules_cover_each_command():
    verify_mi = checks.column_rules("verify", "mutual_information", "csv")
    assert verify_mi["bound"][0] == "up" and verify_mi["e"] == checks.EXACT
    assert "spectrum" in checks.column_rules("verify", "bures", "json")
    assert checks.column_rules("tightness", "hellinger", "csv")["ef_numeric"] == ("up", "bound")
    assert checks.column_rules("ccbound", "hellinger", "csv")["c_numeric"] == ("down", "x")
    assert checks.column_rules("c_distance_numeric", "bures", "csv")["c"][0] == "down"
    assert checks.column_rules("gd", "bures", "csv")["analytic"] == checks.EXACT


def test_references_round_trip_and_require_the_same_argv(tmp_path):
    refs = checks.References(str(tmp_path))
    refs.store("gd", ["gd", "--seed", "0"], "x\n1\n")
    again = checks.References(str(tmp_path))
    sha, text = again.lookup("gd", ["gd", "--seed", "0"])
    assert text == "x\n1\n"
    assert sha == checks.digest(b"x\n1\n")
    assert again.lookup("gd", ["gd", "--seed", "1"]) is None
    assert again.lookup("curve", ["curve"]) is None


def test_accuracy_figures():
    ln2 = checks.LN2
    assert checks.accuracy("curve-mi", cols(bound=[ln2, ln2 - 0.2]))["mi_g_mean"] == pytest.approx(0.1)
    gaps = cols(gap_numeric=[0.0, -2e-6, 1e-6])
    assert checks.accuracy("tightness-hellinger", gaps) == {"tightness_gap_max": 2e-6}
    assert checks.accuracy("ccbound", cols(c_gap=[-1e-15, 3e-4])) == {"ccbound_gap_max": 3e-4}
    assert checks.accuracy("gd-bures", cols(x=[0.0])) == {}
