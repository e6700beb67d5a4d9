#!/usr/bin/env python3
"""wilsonlab benchmark: time to a verdict on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; the package is imported from ./src. Every
pass runs in a fresh interpreter (one_pass.py) and is checked against the
hand-written references, and its time is scaled to a nominal machine speed
read from a reference task run next to it (machine.py). With --trace 0 the
end-to-end metrics are reported; with --trace 1 untraced and traced passes
alternate and the per-layer metrics come from the traced ones. The last line of standard
output is one JSON object; the exit code is 1 when any verdict disagreed
with its reference, 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import machine  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "pass_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "parallel_efficiency": "ratio",
}
SETUP_RUNS = 9
MIN_ROUNDS = 3
PASS_TIMEOUT_S = 150


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def setup_seconds() -> tuple[float, float]:
    """Time for a fresh interpreter to import the CLI and build its parser,
    which is what every command pays before any work, and the time of the
    reference task run just before it."""
    ref = machine.reference_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import wilsonlab.cli; wilsonlab.cli.build_parser()"],
        env=_env(),
    )
    # wait() with a timeout polls in steps of up to 50 ms, which would
    # quantise the reading; a blocking wait with a watchdog does not
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter exited {proc.returncode}")
    return elapsed, ref


def run_pass(request: dict) -> dict:
    """Run one_pass.py in its own session; on a timeout kill the whole
    group, pool workers included, and wait for it."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "one_pass.py"), json.dumps(request)],
        stdout=subprocess.PIPE, text=True, start_new_session=True, env=_env(),
    )
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"pass of {request['workload']} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    """Returns the result object and a summary of the passes: the spread of
    their wall times and set-up times, or with tracing the self time per
    layer."""
    inputs = workloads.make_inputs(name, seed)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}.jsonl"
    if traced:
        spans_path.unlink(missing_ok=True)
    # One round runs one pass of each kind (jobs, traced); the order within
    # a round alternates so that neither kind always runs first. Spans from
    # pool workers are not collected, so traced runs use one process.
    pool = (workloads.POOL_JOBS, False)
    if traced:
        kinds = [(1, False), (1, True)]
    elif name == "tiers_large_p":
        kinds = [(1, False), pool]
    else:
        kinds = [(1, False)]

    setup = []
    docs = defaultdict(list)
    round_s = []
    start = time.perf_counter()
    while len(round_s) < MIN_ROUNDS or (
        time.perf_counter() - start + statistics.median(round_s) <= seconds
    ):
        r0 = time.perf_counter()
        for jobs, tr in kinds[::-1] if len(round_s) % 2 else kinds:
            docs[(jobs, tr)].append(run_pass({
                "workload": name, "inputs": inputs, "jobs": jobs, "trace": tr,
                "out": str(OUT / f"{name}-report.json"),
                "spans": str(spans_path), "pass": len(docs[(jobs, tr)]),
            }))
        round_s.append(time.perf_counter() - r0)
        # set-up samples are spread over the run, so they see the same
        # machine as the passes do
        if not traced:
            setup.append(setup_seconds())
    while not traced and len(setup) < SETUP_RUNS:
        setup.append(setup_seconds())

    every = [d for ds in docs.values() for d in ds]
    (OUT / f"passes-{name}.json").write_text(json.dumps(
        [{"jobs": jobs, "traced": tr, "wall_s": d["wall_s"], "ref_s": d["ref_s"]}
         for (jobs, tr), ds in docs.items() for d in ds]))
    result = {
        "correct": all(d["violations"] == 0 for d in every),
        "attempted": sum(d["verdicts"] for d in every),
        "failed": sum(d["violations"] for d in every),
    }
    # A pass's time is the median over its kind of the scaled wall times:
    # the scaling takes out the machine's speed at the moment of each pass,
    # and the median the stretches that it misses.
    wall = {kind: statistics.median(machine.scaled(d["wall_s"], d["ref_s"]) for d in ds)
            for kind, ds in docs.items()}
    serial = wall[(1, False)]
    if traced:
        # per-layer figures come from the traced pass nearest the median
        traced_pass = min(docs[(1, True)], key=lambda d: abs(
            machine.scaled(d["wall_s"], d["ref_s"]) - wall[(1, True)]))
        layers = dict(traced_pass["layers"])
        layers["trace.overhead_ratio"] = wall[(1, True)] / serial - 1
        result["metrics"] = {k: {"value": v, "unit": tracing.unit_of(k)}
                             for k, v in layers.items()}
        return result, tracing.format_summary(traced_pass["layer_self_s"],
                                              traced_pass["wall_s"])

    values = {
        "wall_s": serial,
        "pass_share": sum(d["passed"] for d in every) / result["attempted"],
        "setup_s": statistics.median(machine.scaled(s, ref) for s, ref in setup),
        "peak_rss_mb": max(d["rss_mb"] for d in every),
        # a workload without pool passes is its own serial baseline
        "parallel_efficiency": (serial / (workloads.POOL_JOBS * wall[pool])
                                if pool in wall else 1.0),
    }
    result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                         for k, v in values.items()}
    lines = []
    for label, ds in (("jobs=1", docs[(1, False)]), ("pool", docs.get(pool))):
        if ds:
            lines += [f"{label} passes, raw wall_s: {_spread([d['wall_s'] for d in ds])}",
                      f"{label} passes, reference_s: {_spread([d['ref_s'] for d in ds])}"]
    lines += [f"setup_s, raw: {_spread([s for s, _ in setup])}",
              f"setup, reference_s: {_spread([ref for _, ref in setup])}"]
    return result, "\n".join(lines)


def _spread(values) -> str:
    """Sample count and quartiles of a list of timings."""
    v = sorted(values)
    q = statistics.quantiles(v, n=4)
    return (f"n={len(v)} min={v[0]:.4f} q1={q[0]:.4f} median={q[1]:.4f} "
            f"q3={q[2]:.4f} max={v[-1]:.4f}")


def report_lines(name: str, result: dict, summary: str) -> list[str]:
    failed_share = result["failed"] / result["attempted"]
    lines = [f"{name}: {result['attempted']} verdicts attempted, "
             f"{result['failed']} failed (failed_share {failed_share:.4f})"]
    lines += [f"  {k:<40} {m['value']:>14.6g} {m['unit']}"
              for k, m in result["metrics"].items()]
    lines.append(summary)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "wilsonlab" / "__init__.py").is_file():
        print(f"error: no wilsonlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name], summary = run_workload(name, args.seed, args.seconds,
                                              bool(args.trace))
        print("\n".join(report_lines(name, results[name], summary)), flush=True)
    ok = all(r["correct"] for r in results.values())
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
