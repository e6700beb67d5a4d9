"""The three workloads: their inputs drawn from a seed, one pass of each
through wilsonlab's public API, and the check of a pass against the
hand-written references.

Why these three:
  tiers_large_p  the O(p) modular engine at p ~ 1100, no exact table; its
                 passes alternate between one process and the worker pool
  desk_both      the README's default dual-path `verify`, oracle-bound
  scans          the factorial loop and the large exact table, no bundles
"""

from __future__ import annotations

import json
import random

import references

NAMES = ("tiers_large_p", "desk_both", "scans")

# Workers of the tiers pool passes: the core count of the machine the
# baseline was measured on, fixed so that results compare across machines.
POOL_JOBS = 2

# Primes per tiers pass, and the range the band start is drawn from. The
# cost of a prime also depends on the bit pattern of p - 1 (one measurement
# put 1151 21% above 1123), so the range is narrow: the seed picks one of
# the bands 1103-1117 and 1109-1123, whose work differs by about 3%. A
# start drawn from [1000, 2000] would double the work between seeds.
TIER_PRIMES = 3
TIER_START = (1100, 1108)

# Limits of a scans pass. They are about half the issue's 20000 and 1000, so
# that a pass takes 1.0-1.7 s rather than ~4 s: a run of fixed length then
# holds about three times as many passes, and its median pass is steadier
# from run to run. The seed moves the Wilson limit by at most 100, about 2% of the
# work of that half.
SCAN_WILSON = 12000
SCAN_IRREGULAR = 700


def make_inputs(name: str, seed: int) -> dict:
    """Inputs of one workload; the same seed gives the same inputs."""
    rng = random.Random(seed)
    if name == "tiers_large_p":
        lo = rng.randint(*TIER_START)
        band = references.primes_between(lo, lo + 400)[:TIER_PRIMES]
        return {"p_min": lo, "p_max": band[-1]}
    if name == "desk_both":
        return {"p_max": 97}
    if name == "scans":
        return {"wilson_limit": SCAN_WILSON + 10 * rng.randrange(11),
                "irregular_limit": SCAN_IRREGULAR}
    raise ValueError(f"unknown workload {name!r}")


def run(name: str, inputs: dict, jobs: int, out_path: str):
    """One pass; the caller times this call and nothing else."""
    from wilsonlab import cli, suite

    if name == "tiers_large_p":
        spec = suite.make_spec(",".join(references.TIER_CHECKS),
                               inputs["p_min"], inputs["p_max"], engine="modular")
        return suite.run_suite(spec, jobs=jobs)
    if name == "desk_both":
        return cli.main(["verify", "--suite", "all", "--p-min", "2",
                         "--p-max", str(inputs["p_max"]), "--engine", "both",
                         "--format", "json", "--out", out_path])
    if name == "scans":
        return (suite.scan_primes("wilson", inputs["wilson_limit"]),
                suite.scan_primes("irregular", inputs["irregular_limit"]))
    raise ValueError(f"unknown workload {name!r}")


def check(name: str, inputs: dict, output, out_path: str) -> tuple[int, int, int]:
    """(verdicts, passing verdicts, violations) of one pass."""
    if name == "scans":
        wilson, irregular = output
        verdicts = (len(references.primes_between(3, inputs["wilson_limit"]))
                    + len(references.primes_between(5, inputs["irregular_limit"])))
        bad = (references.list_violations(wilson, references.wilson_up_to(inputs["wilson_limit"]))
               + references.list_violations(
                   irregular, references.irregular_up_to(inputs["irregular_limit"])))
        return verdicts, verdicts - bad, bad
    if name == "desk_both":
        with open(out_path) as fh:
            doc = json.load(fh)
        rows = [(r["check"], r["p"], r["status"].split("(", 1)[0]) for r in doc["results"]]
        expected = references.desk_tasks(inputs["p_max"])
        allowed = {(cid, p) for cid, ps in references.DESK_SEED_SKIPS.items() for p in ps}
        bad = references.suite_violations(rows, expected, allowed)
        # cli.main returns 1 exactly when a row failed
        bad += (output != 0) != any(s == "fail" for _, _, s in rows)
    else:
        rows = [(r.check_id, r.p, r.status) for r in output.results]
        expected = references.tier_tasks(inputs["p_min"], inputs["p_max"])
        bad = references.suite_violations(rows, expected, set())
    passed = sum(s == "pass" for _, _, s in rows)
    return len(rows), passed, bad
