"""Wrapper tracer for the entcorr layers, kept in benchmark code only.

Every public function of a layer module is replaced, in every ``entcorr.*``
namespace that holds it (``from .x import f`` copies the name, and the CLI
keeps its runners in a dict), by a wrapper that times the call. Per
(function, caller) pair the tracer keeps a count, the inclusive time and
the self time, where self time is the inclusive time minus the time spent
in wrapped calls made from inside it. Nothing is kept per call.

Forked worker processes (the CLI's process pool) inherit the wrapped
functions; ``collect_forks`` makes each of them dump its table into a
directory when it exits, so the parent can merge them.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict
from multiprocessing import util as mp_util

ROOT = "<bench>"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # open frames: [label, time in wrapped children]
        self.depth: dict[str, int] = defaultdict(int)  # open frames per label
        self.table: dict[tuple[str, str], list] = {}  # (label, caller) -> [calls, incl, self]
        self.watched: dict[str, tuple[str, ...]] = {}  # label -> ancestors to count under
        self.nested: dict[tuple[str, str], int] = {}  # (label, ancestor) -> calls
        self.worker_tables = 0
        self.labels: list[str] = []  # wrapped functions, filled by install()

    def watch(self, label: str, ancestor: str) -> None:
        """Count calls of ``label`` made while ``ancestor`` is open, at any depth."""
        self.watched[label] = self.watched.get(label, ()) + (ancestor,)

    def call(self, label, fn, args, kwargs):
        stack = self.stack
        caller = stack[-1][0] if stack else ROOT
        for ancestor in self.watched.get(label, ()):
            if self.depth[ancestor]:
                key = (label, ancestor)
                self.nested[key] = self.nested.get(key, 0) + 1
        frame = [label, 0.0]
        stack.append(frame)
        self.depth[label] += 1
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            self.depth[label] -= 1
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            rec = self.table.get((label, caller))
            if rec is None:
                rec = self.table[(label, caller)] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += elapsed - frame[1]

    def wrap(self, label: str, fn, classify=None):
        """Traced stand-in for ``fn``; ``classify(args, kwargs)`` suffixes the label."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label if classify is None else f"{label}.{classify(args, kwargs)}"
            return tracer.call(name, fn, args, kwargs)

        return traced

    # -- records in and out -------------------------------------------------

    def records(self) -> dict:
        return {
            "table": [[label, caller, *rec] for (label, caller), rec in sorted(self.table.items())],
            "nested": [[label, anc, n] for (label, anc), n in sorted(self.nested.items())],
            "worker_tables": self.worker_tables,
            "labels": self.labels,
        }

    def merge(self, records: dict) -> None:
        for label, caller, calls, incl, self_s in records["table"]:
            rec = self.table.setdefault((label, caller), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += incl
            rec[2] += self_s
        for label, anc, n in records["nested"]:
            self.nested[(label, anc)] = self.nested.get((label, anc), 0) + n
        self.worker_tables += 1 + records.get("worker_tables", 0)

    def collect_forks(self, directory: str) -> None:
        """Make forked multiprocessing workers dump their records at exit."""
        mp_util.register_after_fork(self, lambda t: t._start_worker(directory))

    def _start_worker(self, directory: str) -> None:
        # Keep the inherited stack, so worker calls keep their caller.
        self.table, self.nested, self.worker_tables = {}, {}, 0
        path = os.path.join(directory, f"worker-trace-{os.getpid()}.json")
        mp_util.Finalize(self, self._dump, args=(path,), exitpriority=10)

    def _dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.records(), fh)

    def merge_worker_dumps(self, directory: str) -> None:
        for name in sorted(os.listdir(directory)):
            if name.startswith("worker-trace-"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as fh:
                    self.merge(json.load(fh))
                os.remove(path)


def public_functions(module) -> dict[str, object]:
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def install(tracer: Tracer, layers: dict, classifiers: dict, namespaces) -> callable:
    """Wrap every public function of each layer module wherever it is held.

    ``layers`` maps a layer name to its module; ``namespaces`` are the
    modules whose attributes (and module-level dicts) are patched. Returns
    a function that undoes every patch.
    """
    wrapped = {}
    for layer, module in layers.items():
        for name, fn in public_functions(module).items():
            label = f"{layer}.{name}"
            wrapped[id(fn)] = (fn, tracer.wrap(label, fn, classifiers.get(label)))
            tracer.labels.append(label)

    def replacement(obj):
        hit = wrapped.get(id(obj))
        return hit[1] if hit is not None and hit[0] is obj else None

    patches = []
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            new = replacement(obj)
            if new is not None:
                patches.append((ns, name, obj))
                setattr(ns, name, new)
            elif type(obj) is dict:
                for key, value in list(obj.items()):
                    new = replacement(value)
                    if new is not None:
                        patches.append((obj, key, value))
                        obj[key] = new

    def uninstall():
        for holder, key, original in reversed(patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)

    return uninstall

