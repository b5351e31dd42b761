import multiprocessing
import sys
import types
from concurrent.futures import ProcessPoolExecutor

import pytest

import layers
from tracer import ROOT, Tracer, install


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_inclusive_minus_wrapped_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    traced_leaf = tracer.wrap("m.leaf", leaf)

    def outer():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 0.5

    tracer.wrap("m.outer", outer)()
    assert tracer.table[("m.outer", ROOT)] == [1, 5.5, 1.5]
    assert tracer.table[("m.leaf", "m.outer")] == [2, 4.0, 4.0]
    assert tracer.stack == []


def test_exception_still_recorded_and_stack_unwound():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("m.boom", boom)()
    assert tracer.table[("m.boom", ROOT)] == [1, 1.0, 1.0]
    assert tracer.stack == [] and tracer.depth["m.boom"] == 0


def test_classifier_suffixes_label():
    tracer = Tracer(FakeClock())
    leaf = tracer.wrap("m.leaf", lambda kind: None, lambda args, kwargs: args[0])
    leaf("a")
    leaf("b")
    leaf("b")
    assert tracer.table[("m.leaf.a", ROOT)][0] == 1
    assert tracer.table[("m.leaf.b", ROOT)][0] == 2


def test_watch_counts_calls_under_an_ancestor_at_any_depth():
    tracer = Tracer(FakeClock())
    tracer.watch("m.leaf", "m.top")
    leaf = tracer.wrap("m.leaf", lambda: None)
    mid = tracer.wrap("m.mid", leaf)
    top = tracer.wrap("m.top", lambda: (mid(), leaf()))
    top()
    leaf()  # outside m.top
    assert tracer.nested == {("m.leaf", "m.top"): 2}
    assert tracer.table[("m.leaf", "m.mid")][0] == 1
    assert tracer.table[("m.leaf", "m.top")][0] == 1
    assert tracer.table[("m.leaf", ROOT)][0] == 1


def _fake_layer(name: str) -> types.ModuleType:
    mod = types.ModuleType(name)
    exec(
        "def f(x):\n    return g(x) + 1\n"
        "def g(x):\n    return 2 * x\n"
        "def _private(x):\n    return x\n"
        "TABLE = {'f': f}\n",
        mod.__dict__,
    )
    return mod


def test_install_patches_every_holder_and_uninstall_restores():
    layer = _fake_layer("fake_layer")
    other = types.ModuleType("fake_other")
    other.f = layer.f  # as `from .layer import f` would
    original_f, original_g = layer.f, layer.g
    tracer = Tracer(FakeClock())
    uninstall = install(tracer, {"fake": layer}, {}, [layer, other])
    assert sorted(tracer.labels) == ["fake.f", "fake.g"]
    assert layer.f(1) == other.f(1) == layer.TABLE["f"](1) == 3
    assert tracer.table[("fake.f", ROOT)][0] == 3
    assert tracer.table[("fake.g", "fake.f")][0] == 3  # intra-module global lookup
    assert layer._private is not None and ("fake._private", ROOT) not in tracer.table
    uninstall()
    assert layer.f is original_f and layer.g is original_g
    assert other.f is original_f and layer.TABLE["f"] is original_f


def _double_in_worker(x):
    return sys.modules["fake_fork_layer"].g(x)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_workers_dump_their_records(tmp_path):
    layer = _fake_layer("fake_fork_layer")
    sys.modules["fake_fork_layer"] = layer
    try:
        tracer = Tracer()
        uninstall = install(tracer, {"fake": layer}, {}, [layer])
        tracer.collect_forks(str(tmp_path))
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            assert list(pool.map(_double_in_worker, [1, 2, 3])) == [2, 4, 6]
        tracer.merge_worker_dumps(str(tmp_path))
        uninstall()
    finally:
        del sys.modules["fake_fork_layer"]
    assert tracer.table[("fake.g", ROOT)][0] == 3
    assert tracer.worker_tables == 1
    assert list(tmp_path.iterdir()) == []


def _records(table, labels, nested=()):
    return {"table": table, "labels": labels, "nested": list(nested), "worker_tables": 0}


def test_derive_sums_calls_and_times_and_marks_missing():
    labels = ["bounds.v", "bounds.xi_ef", "measures.max_ef_over_spectrum_numeric",
              "qcore.validate_spectrum", "qcore.validate_hermitian",
              "qcore.validate_density_matrix", "cli.run_verify"]
    table = [
        ["cli.run_verify", ROOT, 1, 10.0, 2.0],
        ["bounds.xi_ef", "cli.run_verify", 4, 3.0, 1.0],
        ["bounds.v", "bounds.xi_ef", 4, 2.0, 2.0],
        ["bounds.v", "measures.max_ef_over_spectrum_numeric", 6, 1.0, 1.0],
        ["measures.max_ef_over_spectrum_numeric", ROOT, 2, 4.0, 3.0],
        ["qcore.validate_density_matrix", "cli.run_verify", 4, 3.0, 1.0],
        ["qcore.validate_hermitian", "qcore.validate_density_matrix", 4, 2.0, 2.0],
        ["qcore.validate_spectrum", "cli.run_verify", 4, 1.0, 1.0],
    ]
    nested = [["bounds.v", layers.ORBIT_SEARCH, 6],
              ["qcore.validate_density_matrix", layers.RUN_VERIFY, 4],
              ["qcore.validate_hermitian", layers.RUN_VERIFY, 4],
              ["qcore.validate_spectrum", layers.RUN_VERIFY, 4]]
    values = layers.derive(_records(table, labels, nested), samples=4, out_bytes=7,
                           trace_overhead=0.25)
    assert values["bounds.v.calls"] == 10
    assert values["bounds.v.s"] == pytest.approx(3.0)
    assert values["bounds.self_s"] == pytest.approx(4.0)
    assert values["bounds.v.calls_per_orbit_search"] == pytest.approx(3.0)
    assert values["qcore.validate.calls"] == 12
    assert values["qcore.validate.s"] == pytest.approx(4.0)  # outermost validations only
    assert values["qcore.validate.calls_per_sample"] == pytest.approx(3.0)
    assert values["qcore.self_s"] == pytest.approx(4.0)
    assert values["cli.self_s"] == pytest.approx(2.0)
    assert values["cli.out_bytes"] == 7 and values["trace_overhead"] == 0.25
    # Present but not called reads zero; a function that no longer exists is missing.
    assert values["cli.run_verify.s"] == pytest.approx(10.0)
    assert values["bounds.spectrum_at_f.calls"] is None
    assert values["correlations.self_s"] is None
    assert set(values) == {name for name, _ in layers.PER_LAYER}


def test_derive_excludes_direct_recursion_from_inclusive_time():
    table = [["bounds.v", ROOT, 1, 5.0, 1.0], ["bounds.v", "bounds.v", 1, 4.0, 4.0]]
    values = layers.derive(_records(table, ["bounds.v"]), samples=0, out_bytes=0,
                           trace_overhead=0.0)
    assert values["bounds.v.calls"] == 2
    assert values["bounds.v.s"] == pytest.approx(5.0)
    assert values["bounds.self_s"] == pytest.approx(5.0)
    assert values["bounds.v.calls_per_orbit_search"] is None  # orbit search missing


def test_classifiers_split_branches():
    import numpy as np

    assert layers._kind_branch(("mutual_information", 4, 0.1), {}) == "mi"
    assert layers._kind_branch((), {"kind": "bures"}) == "distance"
    assert layers._target_branch((np.diag([0.5, 0.5]),), {}) == "cc"
    assert layers._target_branch((np.full((2, 2), 0.25) + np.eye(2) * 0.25,), {}) == "mixed"
