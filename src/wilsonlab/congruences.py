"""Evaluators for the named congruence families.

The right-hand side of every quotient congruence is transcribed
term-by-term: one ``TierTerm`` per displayed term, each carrying a label, so
a transcription error localizes to a single term in test failures. The
left-hand sides always come from the direct oracles (factorial product,
direct Fermat-quotient power sum).

Note on admissibility: the fourth-order congruence for the first quotient
power sum is gated at p >= 7 here. Checked exactly, it fails at p = 5 with
defect of order exactly p^3, while its companion for the second power sum
does hold at p = 5; the gates below reflect what is numerically true.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Union

from . import result
from .bernoulli import (
    BernoulliTable,
    IndexOutOfTable,
    adjusted_bernoulli,
    beta_value,
    digit_sum,
)
from .modular import DividedBernoulliBundle, HypothesisViolated
from .padic import (
    PrimePowerContext,
    TrackedResidue,
    forward_difference,
    ord_p,
    reduce_rational,
)
from .quotients import q_sum, wilson_quotient
from .result import CongruenceCheckResult


@dataclass(frozen=True)
class TierTerm:
    """One displayed term: (const + p_lin * p) * p^p_exp * monomial.

    The monomial is a product of divided Bernoulli values: family 'bar' or
    'bar2', multiplier d, integer power. const and p_lin are ints where the
    display has an integer, so that evaluating the term builds no Fraction.
    """

    label: str
    p_exp: int
    const: Union[int, Fraction]
    p_lin: int
    monomial: tuple[tuple[str, int, int], ...]


def _t(label, p_exp, const, monomial, p_lin=0):
    return TierTerm(label, p_exp, const, p_lin, monomial)


B1 = (("bar", 1, 1),)
B2 = (("bar", 2, 1),)
B3 = (("bar", 3, 1),)
B4 = (("bar", 4, 1),)
C1 = (("bar2", 1, 1),)
C2 = (("bar2", 2, 1),)


# Wilson quotient mod p^r in divided Bernoulli values; prime bounds per tier.
WQ_TIER_PMIN = {1: 2, 2: 5, 3: 5, 4: 7}

WQ_TIERS: dict[int, tuple[TierTerm, ...]] = {
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


# Power sums of Fermat quotients: p^(n-1) Q_p(n) / n mod p^r.
# Coefficients of the form (p-1) are encoded as const -1, p_lin 1.
Q_TIER_PMIN = {
    (1, 1): 3,
    (1, 2): 5,
    (1, 3): 5,
    (1, 4): 7,  # fails at p = 5; see module docstring
    (2, 2): 3,
    (2, 3): 5,
    (2, 4): 5,
    (3, 3): 5,
    (3, 4): 7,
    (4, 4): 7,
}

Q_TIERS: dict[tuple[int, int], tuple[TierTerm, ...]] = {
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


def evaluate_terms(
    terms: tuple[TierTerm, ...],
    p: int,
    bnd: DividedBernoulliBundle,
    prec: int,
) -> TrackedResidue:
    """Sum of tier terms as a tracked residue, truncated to prec."""
    acc = None
    for term in terms:
        val = None
        for family, d, power in term.monomial:
            base = bnd.bar(d) if family == "bar" else bnd.bar2(d)
            f = base ** power
            val = f if val is None else val * f
        coeff = term.const + term.p_lin * p if term.p_lin else term.const
        val = val.scale_fraction(coeff).scale(p ** term.p_exp)
        acc = val if acc is None else acc + val
    if acc.prec < prec:
        raise AssertionError(
            f"tier lost precision: have {acc.prec}, need {prec} (p={p})"
        )
    return acc.truncate(prec)


def wilson_via_bernoulli(p: int, r: int, bnd: DividedBernoulliBundle) -> TrackedResidue:
    """Wilson quotient mod p^r from divided Bernoulli values; must equal
    wilson_quotient(p, r) for p at or above the tier bound."""
    if r not in WQ_TIERS:
        raise HypothesisViolated(f"no tier r = {r}")
    if p < WQ_TIER_PMIN[r]:
        raise HypothesisViolated(f"tier r = {r} needs p >= {WQ_TIER_PMIN[r]}")
    return evaluate_terms(WQ_TIERS[r], p, bnd, r)


def q_tier_rhs(p: int, n: int, r: int, bnd: DividedBernoulliBundle) -> TrackedResidue:
    if (n, r) not in Q_TIERS:
        raise HypothesisViolated(f"no tier (n, r) = ({n}, {r})")
    if p < Q_TIER_PMIN[(n, r)]:
        raise HypothesisViolated(
            f"tier (n={n}, r={r}) needs p >= {Q_TIER_PMIN[(n, r)]}"
        )
    return evaluate_terms(Q_TIERS[(n, r)], p, bnd, r)


def q_tier_lhs(p: int, n: int, r: int) -> TrackedResidue:
    """p^(n-1) Q_p(n) / n mod p^r with Q_p(n) by direct summation."""
    q = q_sum(p, n, r)
    return q.scale(p ** (n - 1)).scale_fraction(Fraction(1, n)).truncate(r)


def q_sum_via_bernoulli(
    p: int, n: int, r: int, bnd: DividedBernoulliBundle
) -> TrackedResidue:
    """Q_p(n) recovered from the tier-r congruence, at precision r - n + 1.

    The congruence pins down p^(n-1) Q_p(n) / n mod p^r, so n - 1 precision
    units are spent undoing the prefactor.
    """
    rhs = q_tier_rhs(p, n, r, bnd)
    return rhs.divide_by_p(n - 1).scale(n)


# -- classical single-prime congruences -----------------------------------


def carlitz_check(p: int, mult: int, k: int, table: BernoulliTable) -> CongruenceCheckResult:
    """mult * W_p = (B_{mult p^k (p-1)} + 1/p - 1) / p^k mod p."""
    if mult < 1 or k < 0:
        raise ValueError("need mult >= 1 and k >= 0")
    index = mult * p ** k * (p - 1)
    rhs_exact = (table.bernoulli(index) + Fraction(1, p) - 1) / p ** k
    rhs = reduce_rational(rhs_exact, PrimePowerContext(p), 1)
    lhs = wilson_quotient(p, 1).scale(mult)
    return result.from_residues("carlitz", p, 1, lhs, rhs, f"mult={mult}, k={k}")


@dataclass(frozen=True)
class PrimeClassification:
    p: int
    irregular: bool
    irregular_indices: tuple[int, ...]


def classify_prime(p: int, table: BernoulliTable | None = None) -> PrimeClassification:
    """Irregularity by scanning the numerators of B_2..B_{p-3} (needs the
    exact table that far)."""
    if p == 2:
        raise ValueError("classification is for odd primes")
    indices = []
    if p >= 5:
        if table is None or table.max_index < p - 3:
            raise IndexOutOfTable(f"irregularity scan needs B up to {p - 3}")
        for ell in range(2, p - 2, 2):
            if table.bernoulli(ell).numerator % p == 0:
                indices.append(ell)
    return PrimeClassification(p, bool(indices), tuple(indices))


def reduction_chain_check(
    p: int, bundles: list[DividedBernoulliBundle]
) -> CongruenceCheckResult:
    """The tier values form a chain: the top-tier value truncates to the
    mod p^t value of every lower tier t. bundles[t-1] is the tier-t bundle,
    t = 1..top, all from one engine (the suite's top tier is 4, or 3 at
    p = 5)."""
    check_id = "reduction_chain"
    if p < 5:
        raise HypothesisViolated("chain needs p >= 5")
    top = len(bundles)
    values = {t: wilson_via_bernoulli(p, t, b) for t, b in enumerate(bundles, 1)}
    for t in range(1, top):
        lhs, rhs = values[top].truncate(t), values[t]
        if lhs.residue != rhs.residue:
            return result.from_residues(
                check_id, p, t, lhs, rhs, f"truncation to p^{t} broke"
            )
    return result.from_residues(check_id, p, top, values[top], values[top])


# -- difference-form power sum congruences ---------------------------------

_P36_ALPHA = (1, 2, 1)
_P37_ALPHA = (-1, 2, 7, 4)
_P37_BETA = (0, -4, -8, -4)
_P37_GAMMA = (Fraction(11, 6), Fraction(5), Fraction(3), Fraction(0))


def qsum_beta_identity_check(
    p: int, n: int, depth: int, bnd: DividedBernoulliBundle
) -> CongruenceCheckResult:
    """Forward-difference form of the power-sum congruences.

    depth 3: (p-1) * diff^(n-1) of the bars - (alpha_n/n) p^2 V1, mod p^3,
    for n in 1..3 and p >= 5. depth 4: the four-coefficient extension, mod
    p^4, for n in 1..4 and p >= 7.
    """
    if depth == 3:
        check_id = "prop36"
        if not 1 <= n <= 3:
            raise HypothesisViolated("depth 3 covers n in 1..3")
        if p < 5:
            raise HypothesisViolated("need p >= 5")
    elif depth == 4:
        check_id = "prop37"
        if not 1 <= n <= 4:
            raise HypothesisViolated("depth 4 covers n in 1..4")
        if p < 7:
            raise HypothesisViolated("need p >= 7")
    else:
        raise ValueError("depth must be 3 or 4")

    diff = forward_difference([bnd.bar(d) for d in range(1, n + 1)])
    rhs = diff.scale(p - 1)
    if depth == 3:
        corr = bnd.bar2(1).scale_fraction(Fraction(-_P36_ALPHA[n - 1], n)).scale(p ** 2)
        rhs = rhs + corr
    else:
        rhs = rhs + bnd.bar2(1).scale_fraction(Fraction(_P37_ALPHA[n - 1], n)).scale(p ** 2)
        if _P37_BETA[n - 1]:
            rhs = rhs + bnd.bar2(2).scale_fraction(Fraction(_P37_BETA[n - 1], n)).scale(p ** 2)
        if _P37_GAMMA[n - 1]:
            rhs = rhs + bnd.bar2(1).scale_fraction(_P37_GAMMA[n - 1] / n).scale(p ** 3)
    lhs = q_tier_lhs(p, n, depth)
    return result.from_residues(check_id, p, depth, lhs, rhs.truncate(depth), f"n={n}")


# -- valuation facts --------------------------------------------------------


def binomial_ord(n: int, k: int, p: int) -> int:
    """ord_p C(n, k) by carry counting in base p."""
    if not 0 <= k <= n:
        return 0
    return (digit_sum(k, p) + digit_sum(n - k, p) - digit_sum(n, p)) // (p - 1)


def central_binom_dichotomy(d: int, p: int) -> bool:
    """ord_p C(d(p-1), p-1) is 0 exactly when d = 1 mod p, else >= 1."""
    o = binomial_ord(d * (p - 1), p - 1, p)
    if d % p == 1:
        return o == 0
    return o >= 1


def remainder_term_check(p: int, d: int, table: BernoulliTable) -> CongruenceCheckResult:
    """Exact remainder of the truncated power-sum expansion at index d(p-1).

    For d = 1 the remainder equals p^(p-2)/2 exactly; for d not congruent
    to 1 mod p its valuation is at least p-2, otherwise at least p-3.
    All arithmetic is exact rational.
    """
    check_id = "prop34_remainder"
    if p < 5:
        raise HypothesisViolated("need p >= 5")
    n = d * (p - 1)
    s = sum(Fraction(a) ** n for a in range(1, p))
    sh = (s - (p - 1)) / p
    corr = Fraction(0)
    for nu in range(2, p - 2, 2):
        corr += comb(n, nu + 1) * beta_value(n - nu, p, table) * p ** nu
    rem = sh - adjusted_bernoulli(n, p, table) - corr
    if d == 1:
        expected = Fraction(p ** (p - 2), 2)
        return result.from_values(
            check_id, p, 0, rem, expected, f"d=1 remainder {rem} != {expected}"
        )
    bound = p - 2 if d % p != 1 else p - 3
    o = ord_p(rem, p)
    return result.from_values(
        check_id, p, 0, min(o, bound), bound, f"d={d}: ord {o} < {bound}"
    )
