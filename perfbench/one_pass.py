"""One pass of one workload, in the fresh interpreter that run.py starts
for it (with ./src on PYTHONPATH), so that no pass inherits a table, memo
or warm cache from another.

    python3 perfbench/one_pass.py '{"workload": ..., "inputs": {...},
        "jobs": 1, "trace": false, "out": PATH, "spans": PATH, "pass": 0}'

Prints one JSON line: the pass's wall time, the time of the reference task
run just before it (machine.py), verdict counts, violations and peak RSS,
and with tracing on its per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import machine
import references
import tracing
import workloads


def main(request: dict) -> dict:
    # in the pass's own process, which runs on the core and at the moment
    # that the pass does; before the import, so that wilsonlab cannot move it
    ref = machine.reference_s()
    import wilsonlab.cli  # noqa: F401 - import cost stays out of the pass

    name = request["workload"]
    tracer = tracing.Tracer() if request["trace"] else None
    uninstall = tracing.install(tracer) if tracer else None
    t0 = time.perf_counter()
    output = workloads.run(name, request["inputs"], request["jobs"], request["out"])
    wall = time.perf_counter() - t0
    if uninstall:
        uninstall()
    verdicts, passed, bad = workloads.check(name, request["inputs"], output, request["out"])
    doc = {
        "wall_s": wall,
        "ref_s": ref,
        "verdicts": verdicts,
        "passed": passed,
        "violations": bad,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        doc["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts,
                                              references.ALL_CHECKS)
        doc["layer_self_s"] = tracing.layer_self_times(tracer.spans)
        tracing.write_spans(request["spans"], tracer.spans, request["pass"], t0)
    return doc


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
