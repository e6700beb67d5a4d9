from fractions import Fraction
from math import comb, factorial

import pytest

from wilsonlab.bernoulli import IndexOutOfTable, bar_value, beta_value
from wilsonlab.congruences import (
    Q_TIER_PMIN,
    Q_TIERS,
    WQ_TIERS,
    carlitz_check,
    central_binom_dichotomy,
    classify_prime,
    q_sum_via_bernoulli,
    q_tier_lhs,
    q_tier_rhs,
    qsum_beta_identity_check,
    reduction_chain_check,
    remainder_term_check,
    wilson_via_bernoulli,
)
from wilsonlab.modular import HypothesisViolated, bundle
from wilsonlab.padic import PrimePowerContext, ord_p, primes_up_to, reduce_rational
from wilsonlab.quotients import q_sum, wilson_quotient


def rational_tier_value(terms, p, table):
    """Independent evaluation of a tier's term list in exact rationals."""
    total = Fraction(0)
    for term in terms:
        mono = Fraction(1)
        for family, d, power in term.monomial:
            if family == "bar":
                base = bar_value(d, p, table)
            else:
                base = beta_value(d * (p - 1) - 2, p, table)
            mono *= base ** power
        total += (term.const + term.p_lin * p) * Fraction(p) ** term.p_exp * mono
    return total


@pytest.mark.parametrize("r", (2, 3, 4))
@pytest.mark.parametrize("p", (5, 7, 11, 13, 17))
def test_wilson_tier_terms_against_exact_rationals(table, p, r):
    """The tier transcription holds as an exact congruence of rationals."""
    if p < (5 if r < 4 else 7):
        return
    rhs = rational_tier_value(WQ_TIERS[r], p, table)
    wq = Fraction(factorial(p - 1) + 1, p)
    assert ord_p(wq - rhs, p) >= r


def brute_q_lhs(p, n):
    q = sum(Fraction((a ** (p - 1) - 1) // p) ** n for a in range(1, p))
    return Fraction(p) ** (n - 1) * q / n


@pytest.mark.parametrize("key", sorted(Q_TIERS))
def test_q_tier_terms_against_exact_rationals(table, key):
    n, r = key
    for p in (3, 5, 7, 11, 13):
        if p < Q_TIER_PMIN[key]:
            continue
        rhs = rational_tier_value(Q_TIERS[key], p, table)
        assert ord_p(brute_q_lhs(p, n) - rhs, p) >= r, (key, p)


def test_q1_r4_fails_at_5_as_gated(table):
    """The fourth-order congruence for the first power sum is real only from
    p = 7: at p = 5 the defect has valuation exactly 3. The gate at p >= 7
    reflects this; this probe keeps the exclusion honest."""
    rhs = rational_tier_value(Q_TIERS[(1, 4)], 5, table)
    assert ord_p(brute_q_lhs(5, 1) - rhs, 5) == 3
    assert Q_TIER_PMIN[(1, 4)] == 7
    with pytest.raises(HypothesisViolated):
        q_tier_rhs(5, 1, 4, bundle(5, 4, "exact", table))


def test_sub_bound_prime_record(table):
    """Informational record of tier behaviour just below each gate. The
    fourth-order tiers gated at p >= 7 all genuinely fail at p = 5 (defect
    valuation 3), so none of those gates is conservative; the one tier that
    survives at p = 5 is admitted there."""
    below = {}
    for (n, r), pmin in Q_TIER_PMIN.items():
        if pmin != 7:
            continue
        rhs = rational_tier_value(Q_TIERS[(n, r)], 5, table)
        below[(n, r)] = ord_p(brute_q_lhs(5, n) - rhs, 5)
    assert below == {(1, 4): 3, (3, 4): 3, (4, 4): 3}
    wq_rhs = rational_tier_value(WQ_TIERS[4], 5, table)
    wq = Fraction(factorial(4) + 1, 5)
    assert ord_p(wq - wq_rhs, 5) == 3  # the quotient tier gate is sharp too
    assert Q_TIER_PMIN[(2, 4)] == 5  # ...and the surviving tier is admitted


def test_q2_r4_does_hold_at_5(table):
    """...while the companion congruence for the second power sum genuinely
    reaches one prime lower."""
    rhs = rational_tier_value(Q_TIERS[(2, 4)], 5, table)
    assert ord_p(brute_q_lhs(5, 2) - rhs, 5) >= 4
    got = q_tier_rhs(5, 2, 4, bundle(5, 4, "exact", table)).truncate(4)
    assert got.residue == q_tier_lhs(5, 2, 4).truncate(4).residue


def test_wilson_via_bernoulli_hand_example(table):
    b = bundle(5, 2, "exact", table)
    assert wilson_via_bernoulli(5, 2, b).residue == 5
    bm = bundle(5, 2, "modular")
    assert wilson_via_bernoulli(5, 2, bm).residue == 5


def test_wilson_tier1_smallest_primes(table):
    for p in (2, 3):
        b = bundle(p, 1, "exact", table)
        assert wilson_via_bernoulli(p, 1, b).residue == wilson_quotient(p, 1).residue


def test_wilson_tier_gates(table):
    with pytest.raises(HypothesisViolated):
        wilson_via_bernoulli(5, 4, bundle(5, 4, "exact", table))
    with pytest.raises(HypothesisViolated):
        wilson_via_bernoulli(7, 5, bundle(7, 4, "modular"))


@pytest.mark.parametrize("p", (7, 11, 13, 31, 97))
def test_three_way_wilson_agreement(table, p):
    from wilsonlab.quotients import wilson_via_psi

    w = wilson_quotient(p, 4)
    assert wilson_via_psi(p, 4).residue == w.residue
    assert wilson_via_bernoulli(p, 4, bundle(p, 4, "modular")).residue == w.residue
    assert wilson_via_bernoulli(p, 4, bundle(p, 4, "exact", table)).residue == w.residue


def test_q_tier_checks_both_engines(table):
    for (n, r), pmin in Q_TIER_PMIN.items():
        for p in (3, 5, 7, 11, 13, 17):
            if p < pmin:
                continue
            want = q_tier_lhs(p, n, r).truncate(r).residue
            engines = [bundle(p, r, "exact", table)]
            if p >= 7 or (p == 5 and r < 4):
                engines.append(bundle(p, r, "modular"))
            for bnd in engines:
                assert q_tier_rhs(p, n, r, bnd).truncate(r).residue == want, (n, r, p)


def test_q_sum_via_bernoulli_recovers_direct(table):
    for p in (7, 11, 13):
        b = bundle(p, 4, "modular")
        for n in (1, 2, 3, 4):
            got = q_sum_via_bernoulli(p, n, 4, b)
            want = q_sum(p, n, got.prec)
            assert got.prec == 4 - n + 1
            assert got.residue == want.residue


def test_carlitz_examples(table):
    assert carlitz_check(5, 1, 1, table).passed
    assert carlitz_check(5, 1, 0, table).passed  # Glaisher/Beeger form
    assert carlitz_check(7, 2, 0, table).passed  # Lehmer multiplier form
    with pytest.raises(IndexOutOfTable):
        carlitz_check(97, 1, 2, table)


def test_carlitz_sweep(table):
    for p in (5, 7, 11, 13, 17, 19):
        for mult, k in ((1, 0), (2, 0), (3, 0), (1, 1), (2, 1)):
            if mult * p ** k * (p - 1) > table.max_index:
                continue
            assert carlitz_check(p, mult, k, table).passed, (p, mult, k)


def test_classify_prime(table):
    assert [p for p in (5, 7, 11, 13) if wilson_quotient(p, 1).residue == 0] == [5, 13]
    c37 = classify_prime(37, table)
    assert c37.irregular and c37.irregular_indices == (32,)
    assert not classify_prime(11, table).irregular
    with pytest.raises(ValueError):
        classify_prime(2, table)


def test_reduction_chain(table):
    def chain(p, engine, table=None):
        top = 4 if p >= 7 else 3
        return reduction_chain_check(
            p, [bundle(p, t, engine, table) for t in range(1, top + 1)]
        )

    assert chain(7, "modular").passed
    assert chain(11, "modular").passed
    assert chain(5, "exact", table).passed
    assert chain(5, "modular").passed


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_qsum_beta_identity_depth3(table, p):
    b = bundle(p, 3, "exact", table)
    for n in (1, 2, 3):
        assert qsum_beta_identity_check(p, n, 3, b).passed, (p, n)


@pytest.mark.parametrize("p", (7, 11, 13))
def test_qsum_beta_identity_depth4(table, p):
    bm = bundle(p, 4, "modular")
    be = bundle(p, 4, "exact", table)
    for n in (1, 2, 3, 4):
        assert qsum_beta_identity_check(p, n, 4, bm).passed, (p, n)
        assert qsum_beta_identity_check(p, n, 4, be).passed, (p, n)
    with pytest.raises(HypothesisViolated):
        qsum_beta_identity_check(5, 1, 4, bundle(5, 4, "exact", table))


def test_central_binom_dichotomy_examples():
    assert central_binom_dichotomy(1, 5)
    assert central_binom_dichotomy(6, 5)  # d = 1 mod p, ord 0
    assert central_binom_dichotomy(2, 5)  # ord >= 1
    assert ord_p(comb(8, 4), 5) == 1


def test_central_binom_dichotomy_matches_exact_valuation():
    for p in (5, 7, 11):
        for d in range(1, 20):
            o = ord_p(comb(d * (p - 1), p - 1), p)
            if d % p == 1:
                assert o == 0
            else:
                assert o >= 1
            assert central_binom_dichotomy(d, p)


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_remainder_exact_identity(table, p):
    assert remainder_term_check(p, 1, table).passed
    assert remainder_term_check(p, 2, table).passed
    assert remainder_term_check(p, 3, table).passed


def test_prop22_branches(table):
    """Divided adjusted values reduce to the Wilson quotient (index multiple
    of p-1) or to a fixed low-index divided value, mod p."""
    for p in (5, 7, 11, 13):
        ctx = PrimePowerContext(p, 1)
        wq = wilson_quotient(p, 1)
        for n in range(2, 3 * (p - 1) + 1, 2):
            from wilsonlab.bernoulli import adjusted_bernoulli

            bhat = adjusted_bernoulli(n, p, table)
            assert ord_p(bhat, p) >= ord_p(n, p)
            lhs = reduce_rational(-bhat / n, ctx, 1)
            np_ = n % (p - 1)
            if np_ == 0:
                assert lhs.residue == wq.residue
            else:
                rhs = reduce_rational(-table.bernoulli(np_) / np_, ctx, 1)
                assert lhs.residue == rhs.residue
