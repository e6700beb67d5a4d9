"""Tests of the benchmark itself: the traced desk pass reproduces the seed
profile counts, the wrappers reach every binding, work counts repeat, and
the reference checks count each violation.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import machine  # noqa: E402
import references  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _traced(name, inputs, out_path):
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        output = workloads.run(name, inputs, 1, str(out_path))
    finally:
        uninstall()
    return tracer, output


def test_traced_desk_pass_reproduces_seed_profile_counts(tmp_path):
    inputs = workloads.make_inputs("desk_both", 0)
    tracer, rc = _traced("desk_both", inputs, tmp_path / "report.json")
    m = tracing.layer_metrics(tracer.spans, tracer.counts, references.ALL_CHECKS)
    assert m["modular.bundle_calls"] == 958
    assert m["modular.power_sum_calls"] == 5111
    builds = [key for name, *_, key in tracer.spans if name == "bernoulli.build"]
    assert builds.count(450) == 1 and max(builds) == 450
    assert m["registry.tasks"] == 1094
    assert workloads.check("desk_both", inputs, rc, tmp_path / "report.json") == (1094, 1009, 0)


def test_work_counts_repeat_exactly(tmp_path):
    inputs = {"p_min": 101, "p_max": 131}
    counts = []
    for _ in range(2):
        tracer, _ = _traced("tiers_large_p", inputs, tmp_path / "unused")
        m = tracing.layer_metrics(tracer.spans, tracer.counts, references.ALL_CHECKS)
        counts.append({k: v for k, v in m.items()
                       if tracing.unit_of(k) in ("count", "index", "ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["modular.pow_ops"] > 0


def test_install_rebinds_every_import_and_uninstall_restores():
    import wilsonlab
    from wilsonlab import modular, quotients, registry, suite

    orig = modular.power_sum_mod
    uninstall = tracing.install(tracing.Tracer())
    try:
        assert quotients.power_sum_mod is modular.power_sum_mod is wilsonlab.power_sum_mod
        assert modular.power_sum_mod is not orig
        assert registry.bundle is modular.bundle
        assert suite.execute_check is registry.execute_check
    finally:
        uninstall()
    assert quotients.power_sum_mod is orig and wilsonlab.power_sum_mod is orig


def test_self_time_subtracts_direct_children():
    spans = [["a.root", 0.0, 10.0, -1, None], ["b.x", 1.0, 4.0, 0, None],
             ["c.y", 2.0, 3.0, 1, None], ["b.x", 5.0, 6.0, 0, None]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert tracing.layer_self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_hand_written_check_list_matches_registry():
    from wilsonlab.registry import ALL_CHECK_IDS

    assert references.ALL_CHECKS == ALL_CHECK_IDS
    assert len(references.desk_tasks(97)) == 1094


def test_each_violation_counts_once():
    expected = {("a", 5), ("a", 7), ("b", 5)}
    rows = [("a", 5, "pass"), ("a", 7, "skipped"), ("a", 7, "pass"), ("c", 5, "pass")]
    # new skip, repeated row, extra row, missing row
    assert references.suite_violations(rows, expected, set()) == 4
    assert references.suite_violations(rows, expected, {("a", 7)}) == 3
    assert references.suite_violations([("b", 5, "fail")], {("b", 5)}, set()) == 1
    assert references.list_violations([5, 13, 563], references.WILSON_PRIMES) == 0
    assert references.list_violations([5, 13, 13, 7], references.WILSON_PRIMES) == 3
    assert references.wilson_up_to(563) == (5, 13, 563)
    assert references.wilson_up_to(562) == (5, 13)
    # OEIS A000928 has 47 irregular primes below 700, the last 691
    assert len(references.irregular_up_to(700)) == 47
    assert references.irregular_up_to(700)[-1] == 691


def test_scaled_times_read_in_nominal_seconds():
    assert machine.scaled(3.0, machine.REF_S) == pytest.approx(3.0)
    assert machine.scaled(3.0, 2 * machine.REF_S) == pytest.approx(1.5)
    assert machine.reference_s() > 0


def test_inputs_follow_the_seed():
    a = workloads.make_inputs("tiers_large_p", 7)
    assert a == workloads.make_inputs("tiers_large_p", 7)
    assert a != workloads.make_inputs("tiers_large_p", 8)
    band = references.primes_between(a["p_min"], a["p_max"])
    assert len(band) == workloads.TIER_PRIMES
    assert workloads.TIER_START[0] <= a["p_min"] <= workloads.TIER_START[1]


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scans", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""


def test_benchmark_json_names_every_metric_reported():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    import run

    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = tracing.layer_metrics([], Counter(), references.ALL_CHECKS)
    names = list(layer) + ["trace.overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == tracing.unit_of(m["name"]) for m in spec["per_layer"])
