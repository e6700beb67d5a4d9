import re
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from wilsonlab.bernoulli import BernoulliTable, IndexOutOfTable, bar_value, beta_value
from wilsonlab.congruences import (
    Q_TIER_PMIN,
    Q_TIERS,
    WQ_TIER_PMIN,
    _LOG_TIERS,
    _classify,
    _q_form,
    _tangent_residues,
    carlitz_pair,
    central_binom_dichotomy,
    classify_prime,
    evaluate_terms,
    irregular_primes,
    q_sum_via_bernoulli,
    q_tier_lhs,
    q_tier_rhs,
    qsum_beta_identity_rhs,
    reduction_chain_values,
    remainder_term_sides,
    wilson_via_bernoulli,
)
from wilsonlab.modular import HypothesisViolated, bundle
from wilsonlab import padic
from wilsonlab.padic import (
    PrimePowerContext,
    forward_difference,
    ord_p,
    primes_up_to,
    reduce_rational,
)
from wilsonlab.quotients import q_sum, wilson_quotient


# One hand-typed term: (const + p_lin * p) * p^p_exp * monomial, the
# monomial a product of divided Bernoulli values (family, d, power). The
# family 'bar<nu>' ('bar' for nu = 0) is the bundle's and the generated
# forms' (nu, d).
TierTerm = namedtuple("TierTerm", "label p_exp const p_lin monomial")


def nu_of(family):
    return int(family[3:] or 0)  # 'bar', 'bar2', 'bar4'


def _t(label, p_exp, const, monomial, p_lin=0):
    return TierTerm(label, p_exp, const, p_lin, monomial)


def as_terms(tier):
    """A generated tier (den, form) as hand terms, one per nonzero
    coefficient of each power of p."""
    den, form = tier
    return tuple(
        _t("", k, Fraction(a, den), ((f"bar{nu or ''}", d, 1),))
        for (nu, d), coeffs in form.items()
        for k, a in enumerate(coeffs)
        if a
    )


B1 = (("bar", 1, 1),)
B2 = (("bar", 2, 1),)
B3 = (("bar", 3, 1),)
B4 = (("bar", 4, 1),)
C1 = (("bar2", 1, 1),)
C2 = (("bar2", 2, 1),)


# The paper's stated power-sum tiers p^(n-1) Q_p(n) / n mod p^r, typed by
# hand term by term, with a label per displayed term so that a
# transcription error localizes to one term: the reference that the
# generated congruences.Q_TIERS are checked against. Coefficients of the
# form (p-1) are encoded as const -1, p_lin 1.
HAND_Q_TIERS = {
    (1, 1): (_t("-W1", 0, -1, B1),),
    (1, 2): (_t("(p-1)*W1", 0, -1, B1, p_lin=1),),
    (1, 3): (
        _t("(p-1)*W1", 0, -1, B1, p_lin=1),
        _t("-p^2*V1", 2, -1, C1),
    ),
    (1, 4): (
        _t("(p-1)*W1", 0, -1, B1, p_lin=1),
        _t("-p^2*V1", 2, -1, C1),
        _t("+11/6*p^3*V1", 3, Fraction(11, 6), C1),
    ),
    (2, 2): (
        _t("-W2", 0, -1, B2),
        _t("+W1", 0, 1, B1),
    ),
    (2, 3): (
        _t("(p-1)*W2", 0, -1, B2, p_lin=1),
        _t("-(p-1)*W1", 0, 1, B1, p_lin=-1),
        _t("-p^2*V1", 2, -1, C1),
    ),
    (2, 4): (
        _t("(p-1)*W2", 0, -1, B2, p_lin=1),
        _t("-(p-1)*W1", 0, 1, B1, p_lin=-1),
        _t("+p^2*V1", 2, 1, C1),
        _t("-2*p^2*V2", 2, -2, C2),
        _t("+5/2*p^3*V1", 3, Fraction(5, 2), C1),
    ),
    (3, 3): (
        _t("-W3", 0, -1, B3),
        _t("+2*W2", 0, 2, B2),
        _t("-W1", 0, -1, B1),
        _t("-1/3*p^2*V1", 2, Fraction(-1, 3), C1),
    ),
    (3, 4): (
        _t("(p-1)*W3", 0, -1, B3, p_lin=1),
        _t("-2(p-1)*W2", 0, 2, B2, p_lin=-2),
        _t("(p-1)*W1", 0, -1, B1, p_lin=1),
        _t("+7/3*p^2*V1", 2, Fraction(7, 3), C1),
        _t("-8/3*p^2*V2", 2, Fraction(-8, 3), C2),
        _t("+p^3*V1", 3, 1, C1),
    ),
    (4, 4): (
        _t("-W4", 0, -1, B4),
        _t("+3*W3", 0, 3, B3),
        _t("-3*W2", 0, -3, B2),
        _t("+W1", 0, 1, B1),
        _t("+p^2*V1", 2, 1, C1),
        _t("-p^2*V2", 2, -1, C2),
    ),
}

# The paper's Prop. 3.6 and 3.7 as typed by hand: p^(n-1) Q_p(n)/n is
# (p-1) diff^(n-1) of the bars plus -(alpha_n/n) p^2 V1 mod p^3, and plus
# (alpha_n p^2 V1 + beta_n p^2 V2 + gamma_n p^3 V1)/n mod p^4.
P36_ALPHA = (1, 2, 1)
P37_ALPHA = (-1, 2, 7, 4)
P37_BETA = (0, -4, -8, -4)
P37_GAMMA = (Fraction(11, 6), Fraction(5), Fraction(3), Fraction(0))


# The paper's stated Wilson quotient tiers mod p^r, typed by hand term by
# term: the reference that wilson_via_bernoulli, which derives them from the
# Q_p(k) tiers and the log/exp series, is checked against.
WQ_TIERS = {
    1: (_t("-W1", 0, -1, B1),),
    2: (
        _t("-2*W1", 0, -2, B1),
        _t("+W2", 0, 1, B2),
        _t("-1/2*p*W1^2", 1, Fraction(-1, 2), (("bar", 1, 2),)),
    ),
    3: (
        _t("-3*W1", 0, -3, B1),
        _t("+3*W2", 0, 3, B2),
        _t("-W3", 0, -1, B3),
        _t("-3/2*p*W1^2", 1, Fraction(-3, 2), (("bar", 1, 2),)),
        _t("+p*W1*W2", 1, 1, (("bar", 1, 1), ("bar", 2, 1))),
        _t("-1/6*p^2*W1^3", 2, Fraction(-1, 6), (("bar", 1, 3),)),
        _t("-1/3*p^2*V1", 2, Fraction(-1, 3), C1),
    ),
    4: (
        _t("-4*W1", 0, -4, B1),
        _t("+6*W2", 0, 6, B2),
        _t("-4*W3", 0, -4, B3),
        _t("+W4", 0, 1, B4),
        _t("-3*p*W1^2", 1, -3, (("bar", 1, 2),)),
        _t("+4*p*W1*W2", 1, 4, (("bar", 1, 1), ("bar", 2, 1))),
        _t("-p*W1*W3", 1, -1, (("bar", 1, 1), ("bar", 3, 1))),
        _t("-1/2*p*W2^2", 1, Fraction(-1, 2), (("bar", 2, 2),)),
        _t("-2/3*p^2*W1^3", 2, Fraction(-2, 3), (("bar", 1, 3),)),
        _t("+1/2*p^2*W1^2*W2", 2, Fraction(1, 2), (("bar", 1, 2), ("bar", 2, 1))),
        _t("-2/3*p^2*V1", 2, Fraction(-2, 3), C1),
        _t("+1/3*p^2*V2", 2, Fraction(1, 3), C2),
        _t("-1/24*p^3*W1^4", 3, Fraction(-1, 24), (("bar", 1, 4),)),
        _t("-1/3*p^3*W1*V1", 3, Fraction(-1, 3), (("bar", 1, 1), ("bar2", 1, 1))),
    ),
}


def hand_value(terms, p, bnd, prec):
    """A hand term list on a bundle's residues, truncated to prec: the
    reference evaluation, monomials of any degree included."""
    acc = None
    for t in terms:
        val = None
        for family, d, power in t.monomial:
            f = bnd[nu_of(family), d] ** power
            val = f if val is None else val * f
        val = val.scale_fraction(t.const + t.p_lin * p).scale(p ** t.p_exp)
        acc = val if acc is None else acc + val
    assert acc.prec >= prec, (p, acc.prec, prec)
    return acc.truncate(prec)


def rational_tier_value(terms, p, table):
    """Independent evaluation of a tier's term list in exact rationals."""
    total = Fraction(0)
    for term in terms:
        mono = Fraction(1)
        for family, d, power in term.monomial:
            nu = nu_of(family)
            if nu == 0:
                base = bar_value(d, p, table)
            else:
                base = beta_value(d * (p - 1) - nu, p, table)
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


def coefficients(terms):
    """A term list as {monomial: {power of p: rational}}, zeros dropped: two
    lists with the same coefficients are the same polynomial in p."""
    out = {}
    for t in terms:
        poly = out.setdefault(t.monomial, {})
        for e, c in ((t.p_exp, t.const), (t.p_exp + 1, t.p_lin)):
            poly[e] = poly.get(e, 0) + c
    out = {m: {e: c for e, c in poly.items() if c} for m, poly in out.items()}
    return {m: poly for m, poly in out.items() if poly}


def test_generated_q_tiers_equal_the_hand_table():
    assert sorted(Q_TIERS) == sorted(HAND_Q_TIERS) == sorted(Q_TIER_PMIN)
    for key, terms in HAND_Q_TIERS.items():
        assert coefficients(as_terms(Q_TIERS[key])) == coefficients(terms), key


def test_tiers_are_the_generated_forms_less_their_zero_keys():
    """A Q tier is _q_form's (den, form) with the all-zero keys dropped: the
    values (2, d) with d >= r - 1, which a bundle does not hold. Only the
    keys (0, d) and (2, d) remain, and the Wilson forms sum them."""
    dropped = set()
    for (n, r), tier in Q_TIERS.items():
        den, form = _q_form(n, r)
        assert tier == (den, {k: c for k, c in form.items() if any(c)})
        if len(tier[1]) < len(form):
            dropped.add((n, r))
        for nu, d in tier[1]:
            assert nu in (0, 2), (n, r)
            assert nu == 0 or d <= r - 2, (n, r, d)
    assert dropped == {(2, 3), (3, 3), (3, 4), (4, 4)}
    assert [len(_LOG_TIERS[r][1]) for r in (1, 2, 3, 4)] == [1, 2, 4, 6]


def test_prop_forms_equal_the_hand_constants():
    """qsum_beta_identity_rhs adds the bar2 terms of Q_TIERS[(n, depth)]
    to (p-1) diff^(n-1) of the bars: those terms are the hand-typed
    alpha/beta/gamma forms of Prop. 3.6 (depth 3) and Prop. 3.7 (depth 4)."""
    want = {(n, 3): {C1: {2: Fraction(-P36_ALPHA[n - 1], n)}} for n in (1, 2, 3)}
    for n in (1, 2, 3, 4):
        want[n, 4] = coefficients((
            _t("alpha", 2, Fraction(P37_ALPHA[n - 1], n), C1),
            _t("beta", 2, Fraction(P37_BETA[n - 1], n), C2),
            _t("gamma", 3, P37_GAMMA[n - 1] / n, C1),
        ))
    for (n, depth), form in want.items():
        bar2 = [t for t in as_terms(Q_TIERS[n, depth]) if t.monomial[0][0] == "bar2"]
        assert coefficients(bar2) == form, (n, depth)


# The generated tiers r = 5 and 6, past the hand table (r = 5 brings in the
# values (4, d), U_d = B_{d(p-1)-4}/(d(p-1)-4)), with the least prime from
# which each holds; no check reads them.
HIGH_TIERS = {
    (n, r): (_q_form(n, r), 7 if r == 5 else 11)
    for r in (5, 6)
    for n in range(1, r + 1)
}


@pytest.mark.parametrize("key", sorted(Q_TIERS) + sorted(HIGH_TIERS))
def test_q_tier_terms_against_exact_rationals(table, key):
    """Each tier holds as an exact congruence of rationals at every prime
    from its gate whose indices the table reaches (to p = 79 at r = 5 and
    67 at r = 6)."""
    n, r = key
    tier, pmin = HIGH_TIERS.get(key) or (Q_TIERS[key], Q_TIER_PMIN[key])
    for p in primes_up_to(table.max_index // r + 1):
        if p >= pmin:
            rhs = rational_tier_value(as_terms(tier), p, table)
            assert ord_p(brute_q_lhs(p, n) - rhs, p) >= r, (key, p)


def test_sixth_order_tiers_at_7_record(table):
    """Informational record of the generated r = 6 tiers one prime below
    their gate: at p = 7 all but n = 2 fail, with defect of order exactly 5."""
    below = {}
    for n in range(1, 7):
        rhs = rational_tier_value(as_terms(HIGH_TIERS[n, 6][0]), 7, table)
        below[n] = ord_p(brute_q_lhs(7, n) - rhs, 7)
    assert below.pop(2) >= 6
    assert below == {1: 5, 3: 5, 4: 5, 5: 5, 6: 5}


def test_q1_r4_fails_at_5_as_gated(table):
    """The fourth-order congruence for the first power sum is real only from
    p = 7: at p = 5 the defect has valuation exactly 3. The gate at p >= 7
    reflects this; this probe keeps the exclusion honest."""
    rhs = rational_tier_value(as_terms(Q_TIERS[(1, 4)]), 5, table)
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
        rhs = rational_tier_value(as_terms(Q_TIERS[(n, r)]), 5, table)
        below[(n, r)] = ord_p(brute_q_lhs(5, n) - rhs, 5)
    assert below == {(1, 4): 3, (3, 4): 3, (4, 4): 3}
    wq_rhs = rational_tier_value(WQ_TIERS[4], 5, table)
    wq = Fraction(factorial(4) + 1, 5)
    assert ord_p(wq - wq_rhs, 5) == 3  # the quotient tier gate is sharp too
    assert Q_TIER_PMIN[(2, 4)] == 5  # ...and the surviving tier is admitted


def test_q2_r4_does_hold_at_5(table):
    """...while the companion congruence for the second power sum genuinely
    reaches one prime lower."""
    rhs = rational_tier_value(as_terms(Q_TIERS[(2, 4)]), 5, table)
    assert ord_p(brute_q_lhs(5, 2) - rhs, 5) >= 4
    got = q_tier_rhs(5, 2, 4, bundle(5, 4, "exact", table)).truncate(4)
    assert got.residue == q_tier_lhs(5, 2, 4).truncate(4).residue


def test_wilson_via_bernoulli_hand_example(table):
    b = bundle(5, 2, "exact", table)
    assert wilson_via_bernoulli(5, 2, b).residue == 5
    bm = bundle(5, 2, "modular")
    assert wilson_via_bernoulli(5, 2, bm).residue == 5


def test_wilson_tiers_equal_the_hand_table(table):
    """At every prime p <= 500 above each tier's gate, on each engine with a
    bundle there, the derived tier gives the hand table's value."""
    checked = 0
    for p in primes_up_to(500):
        for r, pmin in WQ_TIER_PMIN.items():
            if p < pmin:
                continue
            bundles = []
            if r * (p - 1) <= table.max_index:
                bundles.append(bundle(p, r, "exact", table))
            if p >= 5 and (r < 4 or p >= 7):
                bundles.append(bundle(p, r, "modular"))
            for bnd in bundles:
                want = hand_value(WQ_TIERS[r], p, bnd, r)
                assert wilson_via_bernoulli(p, r, bnd) == want, (p, r)
                checked += 1
    assert checked == 547


@given(
    st.sampled_from((3, 5, 7, 11, 101)),
    st.sampled_from([*WQ_TIER_PMIN, *Q_TIER_PMIN]),
    st.lists(st.integers(min_value=0, max_value=10**12), min_size=6, max_size=6),
)
@settings(max_examples=700, deadline=None)
def test_wilson_tiers_equal_the_hand_table_on_kummer_bundles(p, tier, digits):
    """The generated and the hand forms agree as functions of the bundle,
    in residue and precision, wherever the generalized Kummer congruences
    hold (the i-th difference of the bars, and of the bars2, divisible by
    p^i), not only at true Bernoulli values: for the Wilson tiers r (an
    int) and the power-sum tiers (n, r). The bars are
    d -> sum_i C(d-1, i) p^i delta_i for arbitrary delta_i."""
    r = tier if isinstance(tier, int) else tier[1]
    if p < {**WQ_TIER_PMIN, **Q_TIER_PMIN}[tier]:
        return
    ctx = PrimePowerContext(p)

    def newton(deltas, count, prec):
        return tuple(
            ctx.from_int(sum(comb(d, i) * p**i * x for i, x in enumerate(deltas)), prec)
            for d in range(count)
        )

    bnd = {
        (nu, d): v
        for nu, deltas in ((0, digits[:4]), (2, digits[4:]))
        for d, v in enumerate(newton(deltas, max(0, r - nu), r - nu), 1)
    }
    if isinstance(tier, int):
        got, hand = wilson_via_bernoulli(p, r, bnd), WQ_TIERS[r]
    else:
        got, hand = q_tier_rhs(p, *tier, bnd), HAND_Q_TIERS[tier]
    assert got == hand_value(hand, p, bnd, r)


def test_evaluate_terms_refuses_an_unknown_family(table):
    """A tier-4 bundle holds (0, d) for 1 <= d <= 4 and (2, d) for d <= 2
    only: any other key, d = 0, d past the bundle's reach or a nu it does
    not hold (the generated r >= 5 tiers bring in (4, d)), is a ValueError
    naming it, not a silent read of another value."""
    bnd = bundle(7, 4, "exact", table)
    for key in ((0, 0), (2, 3), (0, 5), (4, 1)):
        with pytest.raises(ValueError, match=re.escape(str(key))):
            evaluate_terms((1, {key: [0, 0, 0, 0, 1]}), 7, bnd, 4)  # p^4 value
    with pytest.raises(ValueError, match=re.escape("(4, 1)")):
        evaluate_terms(HIGH_TIERS[1, 5][0], 7, bnd, 4)


def test_a_tier_and_a_difference_build_one_residue_each(monkeypatch):
    """evaluate_terms folds a tier's terms into one residue (padic.combine)
    and then truncates it, which builds a second one only below combine's
    precision; forward_difference builds one residue for any number of
    samples. The per-term fold built two or three per term."""
    bnd = bundle(1103, 4)
    samples = [bnd[0, d] for d in range(1, 5)] + [bnd[2, 1]]
    built = []
    real = padic._reduced

    def counted(ctx, prec, residue):
        built.append(prec)
        return real(ctx, prec, residue)

    monkeypatch.setattr(padic, "_reduced", counted)
    assert evaluate_terms(_LOG_TIERS[4], 1103, bnd, 5).prec == 5
    assert built == [5]  # combine lands on 5, so the truncation keeps it
    built.clear()
    assert evaluate_terms(_LOG_TIERS[4], 1103, bnd, 3).prec == 3
    assert built == [5, 3]
    built.clear()
    forward_difference(samples)
    assert len(built) == 1


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


def _carlitz_holds(p, mult, k, table):
    lhs, rhs = carlitz_pair(p, mult, k, table)
    return lhs.prec == rhs.prec == 1 and lhs.residue == rhs.residue


def test_carlitz_examples(table):
    assert _carlitz_holds(5, 1, 1, table)
    assert _carlitz_holds(5, 1, 0, table)  # Glaisher/Beeger form
    assert _carlitz_holds(7, 2, 0, table)  # Lehmer multiplier form
    with pytest.raises(IndexOutOfTable):
        carlitz_pair(97, 1, 2, table)


def test_carlitz_sweep(table):
    for p in (5, 7, 11, 13, 17, 19):
        for mult, k in ((1, 0), (2, 0), (3, 0), (1, 1), (2, 1)):
            if mult * p ** k * (p - 1) > table.max_index:
                continue
            assert _carlitz_holds(p, mult, k, table), (p, mult, k)


def test_classify_prime(table):
    assert [p for p in (5, 7, 11, 13) if wilson_quotient(p, 1).residue == 0] == [5, 13]
    c37 = classify_prime(37, table)
    assert c37.irregular and c37.irregular_indices == (32,)
    assert not classify_prime(11, table).irregular
    with pytest.raises(ValueError):
        classify_prime(2, table)


def test_irregular_primes_matches_the_per_prime_reference(table):
    primes = [p for p in primes_up_to(table.max_index + 3) if p >= 3]
    reference = [p for p in primes if classify_prime(p, table).irregular]
    assert irregular_primes(primes) == reference
    assert reference[:5] == [37, 59, 67, 101, 103]
    # the given order is kept, and a prime given twice is listed twice
    assert irregular_primes([67, 11, 37, 67]) == [67, 37, 67]
    assert irregular_primes([3]) == irregular_primes([]) == []
    with pytest.raises(ValueError):
        irregular_primes([2, 37])


@pytest.mark.parametrize("given,named", [
    ([5, 9, 25, 49, 121, 37, 169, 91, 203], 9),
    ([5, 7, 6, 37], 6),
    ([37, 1], 1),
])
def test_irregular_primes_refuses_a_composite(given, named):
    """A composite can divide the running product without dividing any one
    numerator (49, 121, 169, 91 and 203 were listed as irregular), and the
    kernel's prime powers are only defined at primes."""
    with pytest.raises(ValueError, match=rf"; {named} is not prime$"):
        irregular_primes(given)


def _tangent_number(k: int, table: BernoulliTable) -> int:
    """T_k = (-1)^(k-1) B_{2k} 4^k (4^k - 1) / (2k), read off the exact table."""
    t = (-1) ** (k - 1) * table.bernoulli(2 * k) * 4 ** k * (4 ** k - 1) / (2 * k)
    assert t.denominator == 1
    return t.numerator


def _precision(p: int, k: int) -> int:
    """p^(1 + v_p(4^k - 1)): the modulus to which t_k must agree with T_k
    for the division by gcd(4^k - 1, t_k) to leave p's verdict intact."""
    return p ** (1 + ord_p(Fraction(4 ** k - 1), p))


def test_tangent_residues_hold_each_index_to_its_precision(table, wieferich_table):
    """For every tested p and every k with 2k <= p - 3, the kernel's t_k is
    T_k mod p^(1 + v_p(4^k - 1)). The stages past the first reduction are
    the ones a coarser modulus would get wrong."""
    tested = [p for p in primes_up_to(400) if p >= 5]
    residues = list(_tangent_residues(tested))
    assert len(residues) == (397 - 3) // 2
    exact = [_tangent_number(k, table) for k in range(1, len(residues) + 1)]
    squares = 0
    for p in tested:
        for k in range(1, (p - 1) // 2):
            m = _precision(p, k)
            assert (residues[k - 1] - exact[k - 1]) % m == 0, (p, k)
            squares += m > p
    assert squares > 100
    # 1093 is the one prime below the cap whose square divides some 4^k - 1
    # with 2k <= p - 3 (k = 182, 364): there t_k must hold T_k mod 1093^3
    residues = list(_tangent_residues([1093]))
    cubes = [k for k in range(1, 546) if _precision(1093, k) == 1093 ** 3]
    assert cubes == [182, 364]
    for k, t in enumerate(residues, 1):
        assert (t - _tangent_number(k, wieferich_table)) % _precision(1093, k) == 0, k


def _planted(ell: int, factor: int, n_max: int = 20) -> BernoulliTable:
    """B_0..B_n_max with the numerator of B_ell multiplied by factor. A
    factor that the denominator holds is taken out of it, so that it stays
    in the numerator."""
    table = BernoulliTable.build(n_max)
    values = [table.bernoulli(i) for i in range(n_max + 1)]
    b = values[ell]
    den = b.denominator // factor if b.denominator % factor == 0 else b.denominator
    values[ell] = Fraction(factor * b.numerator, den)
    return BernoulliTable(values)


def test_irregular_primes_sees_a_planted_factor():
    primes = [5, 7, 11, 13, 17, 19, 23]
    # to k = 11 = (23-1)/2, one past what 23 needs, so that a classification
    # that reads k = (p-1)/2 reads it and does not run out
    exact = BernoulliTable.build(22)
    tangent = [_tangent_number(k, exact) for k in range(1, 12)]

    def planted(k, factor):
        return tangent[:k - 1] + [factor * tangent[k - 1]] + tangent[k:]

    assert _classify(primes, tangent) == set()
    # 10 <= 13 - 3: B_10 is one of the numerators that decide 13
    assert _classify(primes, planted(5, 13)) == {13}
    t = _planted(10, 13)
    assert classify_prime(13, t).irregular_indices == (10,)
    # 12 > 13 - 3: B_12 is not, though 13 now divides its numerator; 13
    # divides 4^6 - 1 too, so it takes 13^2 in T_6 to put 13 there
    t6 = 13 ** 2 * tangent[5]
    assert t6 // gcd(4 ** 6 - 1, t6) % 13 == 0
    assert _classify(primes, planted(6, 13 ** 2)) == set()
    t = _planted(12, 13)
    assert t.bernoulli(12).numerator % 13 == 0
    assert not classify_prime(13, t).irregular
    # the same numerator does decide 17 and 19
    assert _classify(primes, planted(6, 17 * 19)) == {17, 19}
    t = _planted(12, 17 * 19)
    assert [classify_prime(p, t).irregular_indices for p in (17, 19)] == [(12,), (12,)]
    assert irregular_primes(primes) == []


def test_reduction_chain(table):
    def chain(p, engine, table=None):
        top = 4 if p >= 7 else 3
        values = reduction_chain_values(
            p, [bundle(p, t, engine, table) for t in range(1, top + 1)]
        )
        assert [w.prec for w in values] == list(range(1, top + 1))
        return all(values[-1].agrees_with(w, w.prec) for w in values)

    assert chain(7, "modular")
    assert chain(11, "modular")
    assert chain(5, "exact", table)
    assert chain(5, "modular")


def _identity_holds(p, n, depth, bnd):
    rhs = qsum_beta_identity_rhs(p, n, depth, bnd)
    return rhs.prec == depth and rhs.residue == q_tier_lhs(p, n, depth).residue


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_qsum_beta_identity_depth3(table, p):
    b = bundle(p, 3, "exact", table)
    for n in (1, 2, 3):
        assert _identity_holds(p, n, 3, b), (p, n)


@pytest.mark.parametrize("p", (7, 11, 13))
def test_qsum_beta_identity_depth4(table, p):
    bm = bundle(p, 4, "modular")
    be = bundle(p, 4, "exact", table)
    for n in (1, 2, 3, 4):
        assert _identity_holds(p, n, 4, bm), (p, n)
        assert _identity_holds(p, n, 4, be), (p, n)
    with pytest.raises(HypothesisViolated):
        qsum_beta_identity_rhs(5, 1, 4, bundle(5, 4, "exact", table))


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
    for d in (1, 2, 3):
        lhs, rhs, reason = remainder_term_sides(p, d, table)
        assert lhs == rhs, reason


def test_prop22_branches(table):
    """Divided adjusted values reduce to the Wilson quotient (index multiple
    of p-1) or to a fixed low-index divided value, mod p."""
    for p in (5, 7, 11, 13):
        ctx = PrimePowerContext(p)
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
