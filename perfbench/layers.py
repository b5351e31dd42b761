"""The five entcorr layers: what the tracer wraps and the per-layer metrics.

Each metric is listed with the end-to-end metric and workload it should
move (see README.md). ``X.calls`` counts calls of function X, ``X.s`` is
its inclusive time and ``L.self_s`` the self time summed over layer L.
A metric whose function no longer exists reads None ("missing").
"""

from __future__ import annotations

import sys
from collections import defaultdict

import numpy as np

from tracer import Tracer, install

LAYERS = ("qcore", "measures", "bounds", "correlations", "cli")
VALIDATORS = tuple(
    f"qcore.validate_{what}" for what in ("density_matrix", "spectrum", "hermitian", "pure_state")
)
ORBIT_SEARCH = "measures.max_ef_over_spectrum_numeric"
RUN_VERIFY = "cli.run_verify"


def _kind_branch(args, kwargs) -> str:
    kind = args[0] if args else kwargs.get("kind")
    return "mi" if getattr(kind, "value", kind) == "mutual_information" else "distance"


def _target_branch(args, kwargs) -> str:
    """cc for a state diagonal in the product basis (classical-classical)."""
    rho = np.asarray(args[0] if args else kwargs.get("rho"))
    diagonal = rho.ndim == 2 and not np.any(rho - np.diag(np.diagonal(rho)))
    return "cc" if diagonal else "mixed"


CLASSIFIERS = {
    "bounds.g_d_numeric": _kind_branch,
    "correlations.c_distance_numeric": _target_branch,
}


def start_trace(workdir: str) -> Tracer:
    """Wrap every layer's public functions in this process and its forks."""
    import entcorr.cli  # noqa: F401  (imports every layer)

    modules = {layer: sys.modules[f"entcorr.{layer}"]
               for layer in LAYERS if f"entcorr.{layer}" in sys.modules}
    tracer = Tracer()
    tracer.watch("bounds.v", ORBIT_SEARCH)
    for name in VALIDATORS:
        tracer.watch(name, RUN_VERIFY)
    namespaces = [mod for name, mod in sorted(sys.modules.items())
                  if mod is not None and (name == "entcorr" or name.startswith("entcorr."))]
    install(tracer, modules, CLASSIFIERS, namespaces)
    tracer.collect_forks(workdir)
    return tracer


def _calls_and_s(fn: str) -> list[tuple[str, str]]:
    return [(f"{fn}.calls", "count"), (f"{fn}.s", "s")]


PER_LAYER: list[tuple[str, str]] = [
    ("cli.self_s", "s"),
    ("cli.out_bytes", "bytes"),
    *[(f"cli.run_{cmd}.s", "s") for cmd in ("verify", "curve", "gd", "tightness", "ccbound")],
    *_calls_and_s("bounds.g_d_numeric.mi"),
    *_calls_and_s("bounds.g_d_numeric.distance"),
    *_calls_and_s("bounds.xi_ef"),
    *_calls_and_s("bounds.v"),
    ("bounds.v.calls_per_orbit_search", "calls/search"),
    *_calls_and_s("bounds.spectrum_at_f"),
    ("bounds.self_s", "s"),
    *_calls_and_s("measures.entanglement_of_formation"),
    *_calls_and_s("measures.concurrence"),
    *_calls_and_s("measures.s22_ef"),
    *_calls_and_s("measures.max_ef_over_spectrum_numeric"),
    ("measures.self_s", "s"),
    *_calls_and_s("correlations.c_distance_numeric.cc"),
    *_calls_and_s("correlations.c_distance_numeric.mixed"),
    *_calls_and_s("correlations.f_value"),
    ("correlations.c_max.calls", "count"),
    ("correlations.self_s", "s"),
    *_calls_and_s("qcore.validate"),
    ("qcore.validate.calls_per_sample", "calls/sample"),
    *_calls_and_s("qcore.partial_trace"),
    *_calls_and_s("qcore.haar_unitary"),
    *_calls_and_s("qcore.matrix_sqrt_psd"),
    ("qcore.self_s", "s"),
    ("trace_overhead", "ratio"),
]

# Inclusive times of functions that only some workloads call. They read 0.0
# on every run of the other workloads, so they are printed and written to
# the report but left out of the last output line; their counts stay in it.
REPORT_ONLY = {
    *(f"cli.run_{cmd}.s" for cmd in ("verify", "curve", "gd", "tightness", "ccbound")),
    "bounds.g_d_numeric.mi.s", "bounds.g_d_numeric.distance.s", "bounds.spectrum_at_f.s",
    "measures.s22_ef.s", "measures.max_ef_over_spectrum_numeric.s",
    "correlations.c_distance_numeric.cc.s", "correlations.c_distance_numeric.mixed.s",
    "qcore.partial_trace.s", "qcore.haar_unitary.s", "qcore.matrix_sqrt_psd.s",
}
IN_RESULT_LINE = [(name, unit) for name, unit in PER_LAYER if name not in REPORT_ONLY]


def _function_of(label: str) -> str:
    """'bounds.g_d_numeric.mi' -> 'bounds.g_d_numeric'."""
    return ".".join(label.split(".")[:2])


def derive(records: dict, samples: int, out_bytes: int, trace_overhead: float) -> dict:
    """Per-layer metric values from the tracer's records; None where missing.

    ``samples`` is the number of Monte-Carlo samples drawn by verify
    commands in the traced pass. A ratio whose base is zero (no verify
    samples, no orbit search) reads 0.
    """
    labels = set(records["labels"])
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for label, caller, n, inclusive, own in records["table"]:
        calls[label] += n
        self_s[label.split(".")[0]] += own
        if caller != label:  # a direct recursive call is inside its caller's time
            incl[label] += inclusive
    validators = [name for name in VALIDATORS if name in labels]
    nested = {(label, anc): n for label, anc, n in records["nested"]}

    values: dict[str, float | int | None] = {}
    for name, _unit in PER_LAYER:
        if name == "trace_overhead":
            value = trace_overhead
        elif name == "cli.out_bytes":
            value = out_bytes
        elif name.endswith(".self_s"):
            layer = name.split(".")[0]
            present = any(label.startswith(layer + ".") for label in labels)
            value = self_s[layer] if present else None
        elif name == "qcore.validate.calls":
            value = sum(calls[v] for v in validators) if validators else None
        elif name == "qcore.validate.s":
            value = sum(
                inclusive
                for label, caller, _n, inclusive, _own in records["table"]
                if label in validators and caller not in validators
            ) if validators else None
        elif name == "qcore.validate.calls_per_sample":
            under = sum(nested.get((v, RUN_VERIFY), 0) for v in validators)
            value = (under / samples if samples else 0.0) if validators else None
        elif name == "bounds.v.calls_per_orbit_search":
            present = "bounds.v" in labels and ORBIT_SEARCH in labels
            searches = calls[ORBIT_SEARCH]
            under = nested.get(("bounds.v", ORBIT_SEARCH), 0)
            value = (under / searches if searches else 0.0) if present else None
        else:
            base, stat = name.rsplit(".", 1)
            if _function_of(base) not in labels:
                value = None
            else:
                value = calls[base] if stat == "calls" else incl[base]
        values[name] = value
    return values
