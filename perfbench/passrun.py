"""One workload pass in a fresh process: run the operations, time them.

Usage (from run.py): passrun.py WORKLOAD SEED NPROC TRACE WORKDIR RESULT

Writes a JSON result with per-operation times and exit codes, the pass
wall time, this process's peak RSS and, when TRACE is 1, the tracer's
aggregated records. Output checks are left to the parent.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import workloads


def main(argv: list[str]) -> int:
    workload, seed, nproc, trace, workdir, result_path = argv
    seed, nproc, trace = int(seed), int(nproc), trace == "1"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    import entcorr
    import entcorr.cli
    import entcorr.correlations

    if not os.path.abspath(entcorr.__file__).startswith(src + os.sep):
        print(f"entcorr imported from {entcorr.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if trace:
        import layers

        tracer = layers.start_trace(workdir)

    ops = workloads.build(workload, seed, nproc)
    records = []
    pass_start = time.perf_counter()
    for op in ops:
        error = None
        if op.is_cli:
            start = time.perf_counter()
            try:
                rc = entcorr.cli.main(op.full_argv(workdir))
            except SystemExit as exc:  # argparse rejected the argv
                rc = exc.code if isinstance(exc.code, int) else 2
                error = f"SystemExit({exc.code!r})"
            except Exception as exc:  # counted as a failed operation
                rc, error = None, repr(exc)
            elapsed = time.perf_counter() - start
        else:
            rho, _ = workloads.bures_mixed_target(seed, op.target)
            start = time.perf_counter()
            try:
                value = entcorr.correlations.c_distance_numeric(rho, (4, 2), "bures")
                rc = 0
            except Exception as exc:  # counted as a failed operation
                value, rc, error = None, None, repr(exc)
            elapsed = time.perf_counter() - start
            if value is not None:
                with open(op.out_path(workdir), "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(f"target,c\n{op.target},{float(value):.17g}\n")
        records.append({"name": op.name, "rc": rc, "error": error, "s": elapsed})
    wall = time.perf_counter() - pass_start

    result = {
        "wall_s": wall,
        "ops": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.merge_worker_dumps(workdir)
        result["trace"] = tracer.records()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
