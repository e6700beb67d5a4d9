"""Evaluators for the named congruence families.

The right-hand side of every power-sum congruence is generated from one
formula, Faulhaber's sum for the power sums of which p^n Q_p(n) is made
(_q_form). A tier is that linear form itself: a common denominator and,
per divided Bernoulli value, the integer coefficients of a polynomial in p;
evaluate_terms sums each bundle value times its coefficient at p. The
paper's tiers, typed by hand term by term, are the tests' reference for it.
The Wilson quotient tiers are derived from the power-sum tiers: they give
L = sum_k (-1)^(k-1) p^k Q_p(k)/k mod p^(r+1), and quotients.wilson_series
turns L into W_p mod p^r, as it does for the Psi route. The left-hand sides
always come from the direct oracles (factorial product, direct
Fermat-quotient power sum).

Note on admissibility: the formula drops Faulhaber's B_1 and B_0 terms,
which carry p^(p-2) or more in p^(n-1) Q_p(n)/n, so the prime bounds of
the tiers are measured facts, not derived ones. The fourth-order congruence for the first
quotient power sum is gated at p >= 7 here: checked exactly, it fails at
p = 5 with defect of order exactly p^3 (the two dropped terms), while its
companion for the second power sum does hold at p = 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm, prod

from . import result
from .bernoulli import (
    BernoulliTable,
    IndexOutOfTable,
    adjusted_bernoulli,
    beta_value,
    digit_sum,
)
from .modular import DividedBernoulliBundle, HypothesisViolated, beta_route
from .padic import TrackedResidue, forward_difference, ord_p
from .quotients import q_sum, wilson_quotient, wilson_series
from .result import CongruenceCheckResult


# A tier: (den, form), form mapping each divided value (family, d) to den
# times the coefficients of p^0, p^1, ... of its coefficient.
Tier = tuple[int, dict[tuple[str, int], list[int]]]


def _q_form(n: int, r: int) -> Tier:
    """p^(n-1) Q_p(n)/n mod p^r as a Tier, each coefficient's list running
    over p^0..p^(r-1).

    p^n Q_p(n) = sum_i C(n,i) (-1)^(n-i) S_{i(p-1)}(p), and Faulhaber gives
    S_m(p) = (p-1) + sum over even nu of C(m, nu+1) p^(nu+1) beta_nu, with
    beta_nu = B_{m-nu}/(m-nu), adjusted at nu = 0; the p - 1 cancel. With
    m = i(p-1), beta_nu is the family 'bar' (nu = 0) or 'bar<nu>' at d = i.
    Terms with nu >= r vanish mod p^r. Each family is truncated mod p^r in
    the Newton basis beta_{1+m} = sum_j C(m,j) p^j delta_j, the delta_j
    p-integral by the generalized Kummer congruences, and
    delta_j = Delta^j beta_1 / p^j is substituted back.
    """
    den = n * factorial(r - (r - 1) % 2)  # n (nu+1)! for the largest nu
    form: dict[tuple[str, int], list[int]] = {}
    for nu in range(0, r, 2):
        family = f"bar{nu or ''}"
        unit = den // (n * factorial(nu + 1))
        coeffs = []  # den C(n,i) (-1)^(n-i) C(i(p-1), nu+1) p^nu / n, i = 1..n
        for i in range(1, n + 1):
            poly = [0] * nu + [comb(n, i) * (-1) ** (n - i) * unit]
            for t in range(nu + 1):  # times (i p - i - t)
                poly = [(-i - t) * a + i * b for a, b in zip(poly + [0], [0] + poly)]
            coeffs.append((poly + [0] * r)[:r])
        for j in range(n):
            # delta_j's coefficient is p^j sum_m C(m, j) c_{1+m}; keep it below p^r
            kept = [sum(comb(m, j) * c[k] for m, c in enumerate(coeffs)) for k in range(r - j)]
            for d in range(j + 1):
                acc = form.setdefault((family, d + 1), [0] * r)
                for k, a in enumerate(kept):
                    acc[k] += comb(j, d) * (-1) ** (j - d) * a
    return den, form


# Power sums of Fermat quotients, p^(n-1) Q_p(n) / n mod p^r: the least
# prime of each tier, measured (see module docstring).
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

# The truncation leaves the bar2 values with d >= r - 1, which a bundle
# does not hold, with all-zero coefficients: they are dropped.
Q_TIERS = {
    key: (den, {k: coeffs for k, coeffs in form.items() if any(coeffs)})
    for key in Q_TIER_PMIN
    for den, form in [_q_form(*key)]
}


# Wilson quotient mod p^r: prime bounds per tier.
WQ_TIER_PMIN = {1: 2, 2: 5, 3: 5, 4: 7}


def _log_form(r: int) -> Tier:
    """L = sum_{k<=r} (-1)^(k-1) p * (p^(k-1) Q_p(k)/k) mod p^(r+1), the sum
    of the Q tiers, as a Tier."""
    den = lcm(*(Q_TIERS[k, r][0] for k in range(1, r + 1)))
    total: dict[tuple[str, int], list[int]] = {}
    for k in range(1, r + 1):
        kden, form = Q_TIERS[k, r]
        for key, coeffs in form.items():
            acc = total.setdefault(key, [0] * (r + 1))
            for e, a in enumerate(coeffs):
                acc[e + 1] += (-1) ** (k - 1) * (den // kden) * a
    return den, total


# L per Wilson tier r, a form over 1, 2, 4 and 6 divided values for r = 1..4
_LOG_TIERS = {r: _log_form(r) for r in WQ_TIER_PMIN}


def evaluate_terms(
    tier: Tier,
    p: int,
    bnd: DividedBernoulliBundle,
    prec: int,
) -> TrackedResidue:
    """A tier at p as a tracked residue, truncated to prec: the sum of each
    bundle value times its coefficient at p over den. A coefficient is an
    int where den divides it, so that evaluating it builds no Fraction."""
    den, form = tier
    acc = None
    for (family, d), coeffs in form.items():
        if family == "bar":
            value = bnd.bar(d)
        elif family == "bar2":
            value = bnd.bar2(d)
        else:
            raise ValueError(f"a bundle has no family {family!r}")
        c = 0
        for a in reversed(coeffs):
            c = c * p + a
        term = value.scale_fraction(c // den if c % den == 0 else Fraction(c, den))
        acc = term if acc is None else acc + term
    if acc.prec < prec:
        raise AssertionError(
            f"tier lost precision: have {acc.prec}, need {prec} (p={p})"
        )
    return acc.truncate(prec)


def wilson_via_bernoulli(p: int, r: int, bnd: DividedBernoulliBundle) -> TrackedResidue:
    """Wilson quotient mod p^r from divided Bernoulli values; must equal
    wilson_quotient(p, r) for p at or above the tier bound. The Q_p(k)
    tiers give the logarithm L of ((p-1)!)^(p-1) mod p^(r+1) (_LOG_TIERS),
    and wilson_series turns it into W_p."""
    if r not in _LOG_TIERS:
        raise HypothesisViolated(f"no tier r = {r}")
    if p < WQ_TIER_PMIN[r]:
        raise HypothesisViolated(f"tier r = {r} needs p >= {WQ_TIER_PMIN[r]}")
    return wilson_series(evaluate_terms(_LOG_TIERS[r], p, bnd, r + 1), r)


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
    """mult * W_p = (B_{mult p^k (p-1)} + 1/p - 1) / p^k mod p, the right side
    read as the exact route's divided value times mult*(p-1). At p = 2 the
    route (modular.beta_route) knows index 1 only: mult = 1, k = 0."""
    if mult < 1 or k < 0:
        raise ValueError("need mult >= 1 and k >= 0")
    index = mult * p ** k * (p - 1)
    rhs = beta_route("exact", p, table)(index, 1).scale(mult * (p - 1))
    lhs = wilson_quotient(p, 1).scale(mult)
    return result.from_residues("carlitz", p, 1, lhs, rhs, f"mult={mult}, k={k}")


@dataclass(frozen=True)
class PrimeClassification:
    p: int
    irregular: bool
    irregular_indices: tuple[int, ...]


def classify_prime(p: int, table: BernoulliTable | None = None) -> PrimeClassification:
    """Irregularity of one prime, with its irregular indices: the even
    ell <= p - 3 with p dividing the numerator of B_ell (needs the exact
    table that far). One remainder per index; irregular_primes classifies
    many primes at once and is checked against this."""
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


def irregular_primes(primes: list[int], table: BernoulliTable) -> list[int]:
    """The irregular primes among the given odd primes, in their order, by
    one pass over the numerators of B_2..B_{q-3}, q the largest prime given
    (needs the exact table that far).

    With M the product of the primes p >= 5 and R_ell the product of the
    numerators of B_2, B_4, ..., B_ell mod M, p divides one of those
    numerators exactly when it divides R_ell, so p is irregular exactly
    when p divides R_{p-3}. The pass multiplies each numerator into R once
    and takes one small remainder per prime, as in the bulk tests of
    Buhler, Crandall, Ernvall, Metsankyla and Shokrollahi ("Irregular primes
    and cyclotomic invariants to 12 million", 2001), instead of one
    remainder per (prime, index) pair. The inputs must be prime: a
    composite can divide R without dividing any one numerator.
    """
    if 2 in primes:
        raise ValueError("classification is for odd primes")
    tested = sorted({p for p in primes if p >= 5})
    if not tested:
        return []
    if table.max_index < tested[-1] - 3:
        raise IndexOutOfTable(f"irregularity scan needs B up to {tested[-1] - 3}")
    m = prod(tested)
    r, ell = 1, 2  # r = R_{ell-2}
    irregular = set()
    for p in tested:
        while ell <= p - 3:
            r = r * table.bernoulli(ell).numerator % m
            ell += 2
        if r % p == 0:
            irregular.add(p)
    return [p for p in primes if p in irregular]


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

def qsum_beta_identity_check(
    p: int, n: int, depth: int, bnd: DividedBernoulliBundle
) -> CongruenceCheckResult:
    """Forward-difference form of the power-sum congruences, mod p^depth:
    p^(n-1) Q_p(n)/n = (p-1) * diff^(n-1) of the bars + the bar2 terms of
    Q_TIERS[(n, depth)]. The bars' terms of the tier are that difference
    truncated, since i C(n,i) = n C(n-1,i-1) in Faulhaber's nu = 0 term.
    depth 3 (prop36): n in 1..3 and p >= 5; depth 4 (prop37): n in 1..4
    and p >= 7.
    """
    if depth not in (3, 4):
        raise ValueError("depth must be 3 or 4")
    if not 1 <= n <= depth:
        raise HypothesisViolated(f"depth {depth} covers n in 1..{depth}")
    if p < 2 * depth - 1:
        raise HypothesisViolated(f"need p >= {2 * depth - 1}")
    diff = forward_difference([bnd.bar(d) for d in range(1, n + 1)])
    den, form = Q_TIERS[n, depth]
    bar2 = den, {key: coeffs for key, coeffs in form.items() if key[0] == "bar2"}
    rhs = diff.scale(p - 1) + evaluate_terms(bar2, p, bnd, depth)
    lhs = q_tier_lhs(p, n, depth)
    check_id = "prop36" if depth == 3 else "prop37"
    return result.from_residues(check_id, p, depth, lhs, rhs, f"n={n}")


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
    sh = Fraction(sum(a ** n for a in range(1, p)) - (p - 1), p)
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
