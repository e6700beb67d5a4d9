"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`. Every congruence is
checked at residue equality (zero tolerance); runtime bounds are asserted
where stated.
"""

import time
from fractions import Fraction

import pytest

from wilsonlab.bernoulli import adjusted_bernoulli
from wilsonlab.congruences import (
    Q_TIER_PMIN,
    remainder_term_sides,
    wilson_via_bernoulli,
)
from wilsonlab.modular import (
    InadmissibleCase,
    adjusted_bernoulli_mod,
    bundle,
    folklore_bernoulli_mod,
)
from wilsonlab.padic import PrimePowerContext, primes_up_to, reduce_rational
from wilsonlab.quotients import q_sum, wilson_quotient, wilson_via_psi
from wilsonlab.suite import make_spec, run_suite, scan_primes

JOBS = 8


def _verdict(num: int, name: str, ok: bool, note: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {name} {suffix}"


def _count_primes(lo: int, hi: int) -> int:
    return sum(1 for p in primes_up_to(hi) if p >= lo)


def test_criterion_01_wilson_prime_scan():
    t0 = time.monotonic()
    found = scan_primes("wilson", 1000)
    dt = time.monotonic() - t0
    _verdict(1, "wilson primes to 1000", found == [5, 13, 563] and dt < 10,
             f"{found} in {dt:.2f}s")


def test_criterion_02_irregular_prime_scan():
    t0 = time.monotonic()
    found = scan_primes("irregular", 100)
    dt = time.monotonic() - t0
    _verdict(2, "irregular primes to 100", found == [37, 59, 67] and dt < 5,
             f"{found} in {dt:.2f}s")


def test_criterion_03_wilson_tiers_to_large_primes():
    t0 = time.monotonic()
    rep1 = run_suite(make_spec("thm_main_p1", 2, 10**4, engine="modular"), jobs=JOBS)
    rep23 = run_suite(
        make_spec("thm_main_p2,thm_main_p3", 5, 2000, engine="modular"), jobs=JOBS
    )
    dt = time.monotonic() - t0
    ok = (
        rep1.ok
        and rep1.summary["pass"] == _count_primes(2, 10**4)
        and rep1.summary["skipped"] == 0
        and rep23.ok
        and rep23.summary["pass"] == 2 * _count_primes(5, 2000)
        and rep23.summary["skipped"] == 0
        and dt < 120
    )
    _verdict(3, "Wilson tiers mod p..p^3 at scale", ok,
             f"{rep1.summary['pass']} + {rep23.summary['pass']} passes in {dt:.1f}s")


def test_criterion_04_wilson_tier4_to_1000():
    t0 = time.monotonic()
    rep = run_suite(make_spec("thm_main2_p4", 7, 1000, engine="modular"), jobs=JOBS)
    dt = time.monotonic() - t0
    ok = (
        rep.ok
        and rep.summary["pass"] == _count_primes(7, 1000)
        and rep.summary["skipped"] == 0
        and dt < 120
    )
    _verdict(4, "Wilson tier mod p^4 to 1000", ok,
             f"{rep.summary['pass']} passes in {dt:.1f}s")


def test_criterion_05_qsum_tiers_all_admissible_to_500(table):
    ids = [f"thm_main3_q{n}_r{r}" for (n, r) in sorted(Q_TIER_PMIN)]
    rep = run_suite(make_spec(",".join(ids), 2, 500), jobs=JOBS, table=table)
    per_check = {}
    for r in rep.results:
        per_check.setdefault(r.check_id, []).append(r)
    ok = rep.ok
    notes = []
    for (n, r), pmin in sorted(Q_TIER_PMIN.items()):
        cid = f"thm_main3_q{n}_r{r}"
        rows = per_check[cid]
        passes = sum(row.status == "pass" for row in rows)
        want = _count_primes(pmin, 500)
        if passes != want:
            ok = False
            notes.append(f"{cid}: {passes}/{want}")
    _verdict(5, "power-sum tiers, all admissible p <= 500", ok,
             "; ".join(notes) or f"{rep.summary['pass']} rows")


def test_criterion_06_psi_route_cross_validation():
    bad = []
    for p in primes_up_to(500):
        if p <= 4:
            continue
        for r in (1, 2, 3, 4):
            if wilson_via_psi(p, r).residue != wilson_quotient(p, r).residue:
                bad.append((p, r))
    _verdict(6, "quotient-expansion route equals factorial oracle", not bad,
             f"{len(bad)} mismatches" if bad else "r <= 4, p <= 500")


def test_criterion_07_oracle_agreement(table):
    mism = []
    checked = 0
    for p in primes_up_to(97):
        if p < 5:
            continue
        for d in (1, 2, 3, 4):
            exact = adjusted_bernoulli(d * (p - 1), p, table)
            for r in (1, 2, 3, 4):
                try:
                    got = adjusted_bernoulli_mod(d, p, r)
                except InadmissibleCase:
                    continue
                want = reduce_rational(exact, PrimePowerContext(p), r)
                checked += 1
                if got.residue != want.residue:
                    mism.append(("adjusted", p, d, r))
    for p in primes_up_to(97):
        if p < 5:
            continue
        for m in range(4, 401, 2):
            if m % (p - 1) == 0:
                continue
            for K in (1, 2):
                if K == 2 and (p < 7 or (m - 2) % (p - 1) == 0):
                    continue
                got = folklore_bernoulli_mod(m, p, K)
                want = reduce_rational(table.bernoulli(m), PrimePowerContext(p), K)
                checked += 1
                if got.residue != want.residue:
                    mism.append(("folklore", p, m, K))
    _verdict(7, "modular engine vs exact oracle", not mism,
             f"{checked} comparisons" if not mism else str(mism[:4]))


def test_criterion_08_worked_fixed_points(table):
    ok = True
    notes = []
    w5 = wilson_quotient(5, 2)
    if not (w5.residue == 5 and wilson_quotient(5, 1).residue == 0):
        ok, _ = False, notes.append("factorial W_5")
    if wilson_via_psi(5, 2).residue != 5:
        ok, _ = False, notes.append("psi W_5")
    if wilson_via_bernoulli(5, 2, bundle(5, 2, "modular")).residue != 5:
        ok, _ = False, notes.append("modular-route W_5")
    if wilson_via_bernoulli(5, 2, bundle(5, 2, "exact", table)).residue != 5:
        ok, _ = False, notes.append("exact-route W_5")
    if q_sum(5, 1, 3).residue != 70 or q_sum(5, 1, 3, "difference").residue != 70:
        ok, _ = False, notes.append("Q_5(1)")
    from wilsonlab.bernoulli import bar_value

    if bar_value(1, 2, table) != Fraction(-1) or bar_value(1, 3, table) != Fraction(-1, 4):
        ok, _ = False, notes.append("small-prime divided values")
    via_mod = bundle(7, 4, "modular")[2, 1].truncate(2).residue
    via_exact = bundle(7, 4, "exact", table)[2, 1].truncate(2).residue
    if not (via_mod == via_exact == 20):
        ok, _ = False, notes.append("second divided value at 7")
    _verdict(8, "worked fixed points", ok, "; ".join(notes))


def test_criterion_09_remainder_identities(table):
    t0 = time.monotonic()
    rows = [
        remainder_term_sides(p, d, table)
        for p in (5, 7, 11, 13)
        for d in (1, 2, 3)
    ]
    dt = time.monotonic() - t0
    bad = [reason for lhs, rhs, reason in rows if lhs != rhs]
    _verdict(9, "exact remainder of truncated expansion", not bad and dt < 30,
             f"{len(rows)} cases in {dt:.2f}s")


def test_criterion_10_property_suites(table):
    reports = {
        "kummer-families": run_suite(
            make_spec(
                "kummer,gen_kummer_r1,gen_kummer_r2,gen_kummer_r3,gen_kummer_r4,"
                "lemma33_binom,bundle_kummer_chain",
                2, 97,
            ),
            jobs=JOBS, table=table,
        ),
        "denominators": run_suite(
            make_spec("denominators_dn", 1, 200), jobs=JOBS, table=table
        ),
        "von-staudt-clausen": run_suite(
            make_spec("vsc", 2, 400), jobs=JOBS, table=table
        ),
        "reduction-chain": run_suite(
            make_spec("reduction_chain", 5, 500), jobs=JOBS, table=table
        ),
    }
    ok = True
    notes = []
    for name, rep in reports.items():
        fails = rep.summary["fail"]
        if fails or not rep.summary["pass"]:
            ok = False
            notes.append(f"{name}: {fails} fails")
    if reports["denominators"].summary["pass"] != 200:
        ok, _ = False, notes.append("denominator coverage")
    if reports["von-staudt-clausen"].summary["pass"] != 200:
        ok, _ = False, notes.append("vsc coverage")
    if reports["reduction-chain"].summary["pass"] != _count_primes(5, 500):
        ok, _ = False, notes.append("chain coverage")
    _verdict(10, "property suites", ok, "; ".join(notes) or "all families clean")
