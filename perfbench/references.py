"""Reference verdicts written by hand, and the checks that compare a pass
against them.

Nothing here is computed by wilsonlab: prime lists come from a local sieve,
the Wilson and irregular primes from OEIS, and the desk run's skip set is
the seed commit's, frozen so that a later change cannot turn a seed pass
into a skip or a fail unnoticed. Every disagreement is one violation, and
violations are what the benchmark reports as failed.
"""

from __future__ import annotations

# OEIS A007540; no other Wilson prime is known below 2 * 10^13.
WILSON_PRIMES = (5, 13, 563)

# OEIS A000928, the irregular primes below 1000.
IRREGULAR_BELOW_1000 = (
    37, 59, 67, 101, 103, 131, 149, 157, 233, 257, 263, 271, 283, 293, 307,
    311, 347, 353, 379, 389, 401, 409, 421, 433, 461, 463, 467, 491, 523, 541,
    547, 557, 577, 587, 593, 607, 613, 617, 619, 631, 647, 653, 659, 673, 677,
    683, 691, 727, 751, 757, 761, 773, 797, 809, 811, 821, 827, 839, 877, 881,
    887, 929, 953, 971,
)
assert len(IRREGULAR_BELOW_1000) == 64

# The bundle/oracle checks of the tiers workload. With the modular engine
# every one of them passes at every prime the workload draws (1100-1200).
TIER_CHECKS = (
    "thm_main_p3", "thm_main2_p4",
    "thm_main3_q1_r4", "thm_main3_q2_r4", "thm_main3_q3_r4", "thm_main3_q4_r4",
    "prop37", "reduction_chain", "gen_kummer_r4", "lemma26_qdiff",
    "thm_kel_psi_r4", "bundle_kummer_chain",
)

# Every check of `verify --suite all`; the last two run over an index n,
# the others over primes.
PRIME_CHECKS = (
    "bundle_kummer_chain", "carlitz", "cor35_tiers", "folklore",
    "gen_kummer_r1", "gen_kummer_r2", "gen_kummer_r3", "gen_kummer_r4",
    "glaisher_beeger", "kummer", "lehmer", "lehmer_diff", "lemma26_qdiff",
    "lemma33_binom", "lerch", "prop22", "prop34_remainder", "prop36", "prop37",
    "reduction_chain", "thm_kel_psi_r1", "thm_kel_psi_r2", "thm_kel_psi_r3",
    "thm_kel_psi_r4", "thm_main2_p4", "thm_main3_q1_r1", "thm_main3_q1_r2",
    "thm_main3_q1_r3", "thm_main3_q1_r4", "thm_main3_q2_r2", "thm_main3_q2_r3",
    "thm_main3_q2_r4", "thm_main3_q3_r3", "thm_main3_q3_r4", "thm_main3_q4_r4",
    "thm_main_p1", "thm_main_p2", "thm_main_p3",
)
ALL_CHECKS = tuple(sorted(PRIME_CHECKS + ("denominators_dn", "vsc")))

# Rows of `verify --suite all --p-min 2 --p-max 97 --engine both` that were
# skipped at the seed commit (85 of 1094). A row may leave this set by
# passing; no row may join it.
DESK_SEED_SKIPS = {
    "prop34_remainder": (2, 3, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83,
                         89, 97),
    "prop37": (2, 3, 5), "thm_main2_p4": (2, 3, 5),
    "thm_main3_q1_r4": (2, 3, 5), "thm_main3_q3_r4": (2, 3, 5),
    "thm_main3_q4_r4": (2, 3, 5),
    "lemma26_qdiff": (2,), "lerch": (2,), "thm_kel_psi_r1": (2,),
    "thm_kel_psi_r2": (2,), "thm_main3_q1_r1": (2,), "thm_main3_q2_r2": (2,),
    **{cid: (2, 3) for cid in (
        "bundle_kummer_chain", "carlitz", "cor35_tiers", "folklore",
        "gen_kummer_r1", "gen_kummer_r2", "gen_kummer_r3", "gen_kummer_r4",
        "glaisher_beeger", "kummer", "lehmer", "lehmer_diff", "prop22",
        "prop36", "reduction_chain", "thm_kel_psi_r3", "thm_kel_psi_r4",
        "thm_main3_q1_r2", "thm_main3_q1_r3", "thm_main3_q2_r3",
        "thm_main3_q2_r4", "thm_main3_q3_r3", "thm_main_p2", "thm_main_p3",
    )},
}
assert sum(map(len, DESK_SEED_SKIPS.values())) == 85


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, by a sieve of Eratosthenes."""
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(hi ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, hi + 1, i)))
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]


def tier_tasks(p_min: int, p_max: int) -> set[tuple[str, int]]:
    return {(cid, p) for cid in TIER_CHECKS for p in primes_between(p_min, p_max)}


def desk_tasks(p_max: int) -> set[tuple[str, int]]:
    """(check, value) pairs of `verify --suite all --p-min 2 --p-max p_max`."""
    tasks = {(cid, p) for cid in PRIME_CHECKS for p in primes_between(2, p_max)}
    tasks |= {("denominators_dn", n) for n in range(2, p_max + 1)}
    tasks |= {("vsc", n) for n in range(2, p_max + 1, 2)}
    return tasks


def suite_violations(rows, expected: set, allowed_skips: set) -> int:
    """Violations among (check, value, status) rows: a fail, a skip outside
    the allowed set, a missing, extra or repeated row each count once."""
    seen = set()
    bad = 0
    for cid, value, status in rows:
        key = (cid, value)
        if key in seen or key not in expected:
            bad += 1
        elif status == "fail" or (status == "skipped" and key not in allowed_skips):
            bad += 1
        seen.add(key)
    return bad + len(expected - seen)


def wilson_up_to(limit: int) -> tuple[int, ...]:
    return tuple(p for p in WILSON_PRIMES if p <= limit)


def irregular_up_to(limit: int) -> tuple[int, ...]:
    assert limit < 1000, "the hand-written list stops at 1000"
    return tuple(p for p in IRREGULAR_BELOW_1000 if p <= limit)


def list_violations(got, want) -> int:
    """Size of the symmetric difference, plus any repeated entries."""
    return len(set(got) ^ set(want)) + len(got) - len(set(got))
