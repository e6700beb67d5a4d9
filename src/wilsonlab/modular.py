"""The fast path: power sums mod p^K in O(p) and divided Bernoulli residues.

Adjusted Bernoulli numbers at indices d(p-1) are recovered modulo p^r from a
single O(p) power sum plus small correction terms whose inputs come from the
power-sum/Bernoulli congruence ("folklore") route. No exact rational value of
a large Bernoulli number is ever needed, which is what makes p ~ 10^4 cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import Callable

from . import result
from .bernoulli import BernoulliTable, bar_value, beta_value
from .padic import PrimePowerContext, TrackedResidue, forward_difference, is_prime, reduce_rational
from .result import CongruenceCheckResult


class InadmissibleCase(Exception):
    pass


class HypothesisViolated(Exception):
    pass


def _smallest_prime_factors(p: int) -> list[int]:
    """spf[a] for 0 <= a < p: the smallest prime factor of a (a itself for a
    prime, and for 0 and 1)."""
    spf = list(range(p))
    for b in range(2, isqrt(p - 1) + 1):
        if spf[b] == b:
            for a in range(b * b, p, b):
                if spf[a] == a:
                    spf[a] = b
    return spf


def _sieve_powers(n: int, m: int, spf: list[int]) -> list[int]:
    """pw[a] = a^n mod m for 0 <= a < p, where p = len(spf).

    a -> a^n is completely multiplicative, so pow runs at prime a only and
    a composite a = b * (a // b), b its smallest prime factor, is the
    product of two earlier entries.
    """
    pw = [0] * len(spf)
    pw[1] = 1
    for a in range(2, len(spf)):
        b = spf[a]
        pw[a] = pow(a, n, m) if b == a else pw[b] * pw[a // b] % m
    return pw


def _step_powers(n: int, below: list[int], t: list[int], m: int) -> list[int]:
    """pw[a] = a^n mod m from below[a] = a^(n-(p-1)) and t[a] = a^(p-1),
    both held mod a multiple of m: one multiplication per a. n names the
    list made; the product does not read it."""
    return [x * y % m for x, y in zip(below, t)]


class _PowerSumMemo:
    """The power sums of one prime p: n -> (K, S_n(p) mod p^K), and the
    smallest-prime-factor sieve below p, built on the first sieve pass.

    Every request is also recorded by the shape (d, j) of its index,
    n = d(p-1) + j with d = ceil(n/(p-1)) and -(p-1) < j <= 0: asked maps a
    shape to the highest K asked for it at p. The memo of the next prime
    takes that record as its plan, and a miss computes its sum at the
    planned precision when that is higher than the one asked, since
    consecutive primes of a run ask for the same shapes at the same
    precisions. The plan changes only which precision a sum is held at,
    never a returned value.

    A miss at (d, j) and precision W is a step, not a sieve pass, when the
    memo holds the power list a -> a^((d-1)(p-1)+j) and t: a -> a^(p-1),
    both mod p^W or finer: a^(d(p-1)+j) = a^((d-1)(p-1)+j) * a^(p-1). t is
    the list of shape (1, 0), and columns maps j to the latest list of
    shape (d, j) computed, as (d, precision, list). Any other miss runs the
    sieve; none runs only to make t.
    """

    def __init__(self, p: int, plan: dict[tuple[int, int], int] | None = None):
        self.p = p
        self.sums: dict[int, tuple[int, int]] = {}
        self.spf: list[int] | None = None
        self.plan = plan or {}
        self.asked: dict[tuple[int, int], int] = {}
        self.t: tuple[int, list[int]] | None = None
        self.columns: dict[int, tuple[int, int, list[int]]] = {}

    def get(self, n: int, K: int) -> int:
        d = -(-n // (self.p - 1))
        j = n - d * (self.p - 1)
        if self.asked.get((d, j), 0) < K:
            self.asked[d, j] = K
        m = self.p ** K
        held = self.sums.get(n)
        if held is not None and held[0] >= K:
            return held[1] % m
        work = max(K, self.plan.get((d, j), 0))
        M = self.p ** work
        below = self.columns.get(j)
        if (below is not None and below[0] == d - 1 and below[1] >= work
                and self.t is not None and self.t[0] >= work):
            pw = _step_powers(n, below[2], self.t[1], M)
        else:
            if self.spf is None:
                self.spf = _smallest_prime_factors(self.p)
            pw = _sieve_powers(n, M, self.spf)
        if (d, j) == (1, 0):
            self.t = (work, pw)
        self.columns[j] = (d, work, pw)
        value = sum(pw) % M
        self.sums[n] = (work, value)
        return value % m


_memo = _PowerSumMemo(0)


def power_sum_mod(n: int, p: int, K: int) -> TrackedResidue:
    """1^n + ... + (p-1)^n mod p^K, with the convention that n = 0 gives p - 1.

    Sums are memoised for one prime at a time, so callers that keep to one
    prime reuse them: a sum held at precision K or higher is reduced, one
    held lower is recomputed. A call at another prime starts a fresh memo
    whose plan is what the previous prime asked for (see _PowerSumMemo): a
    miss computes the sum at the higher of K and the precision the previous
    prime asked for the same index shape. So when a run asks each prime the
    same sums at rising K, each sum is computed once, from the second prime
    on. A miss one step of p - 1 above a power list that the memo holds,
    with t: a -> a^(p-1), at the miss's precision or finer costs one
    multiplication per a (see _step_powers); any other miss costs pow at
    the primes below p only, through a smallest-prime-factor sieve (see
    _sieve_powers). Values are a pure function of (n, p, K) either way.
    """
    global _memo
    if n < 0 or K < 1:
        raise ValueError("need n >= 0 and K >= 1")
    ctx = PrimePowerContext(p)
    if n == 0:
        return ctx.from_int(p - 1, K)
    if _memo.p != p:
        _memo = _PowerSumMemo(p, _memo.asked)
    return ctx.from_int(_memo.get(n, K), K)


def sh_value(n: int, p: int, r: int) -> TrackedResidue:
    """(S_n(p) - S_0(p)) / p mod p^r for n >= 1.

    The division is exact precisely when (p-1) | n; other exponents raise
    NotDivisible, which callers treat as a violated congruence upstream.
    """
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    s = power_sum_mod(n, p, r + 1)
    return (s - (p - 1)).divide_by_p(1)


def folklore_bernoulli_mod(m: int, p: int, K: int) -> TrackedResidue:
    """B_m mod p^K recovered as S_m(p)/p, for K <= 2.

    K = 1 is the classical congruence S_m(p) = p B_m mod p^2 for (p-1) not
    dividing m. K = 2 is a strengthened variant needing p >= 7 and
    additionally (p-1) not dividing m-2; it is validated against the exact
    oracle over its whole admissible small range before being trusted at
    large p (see the test suite).
    """
    if K not in (1, 2):
        raise InadmissibleCase("K must be 1 or 2")
    if m < 2 or m % 2:
        raise InadmissibleCase("m must be even and >= 2")
    if p < 5:
        raise InadmissibleCase("p must be >= 5")
    if m % (p - 1) == 0:
        raise InadmissibleCase(f"(p-1) | m for p={p}, m={m}")
    if K == 2:
        if p < 7:
            raise InadmissibleCase("K = 2 needs p >= 7")
        if (m - 2) % (p - 1) == 0:
            raise InadmissibleCase(f"(p-1) | m-2 for p={p}, m={m}")
    s = power_sum_mod(m, p, K + 1)
    return s.divide_by_p(1)


def _binom_coeff_times_b(n: int, nu: int) -> Fraction:
    """C(n, nu+1) / (n - nu) as a fraction: the cofactor multiplying B_{n-nu}."""
    # C(n,nu+1) * B_{n-nu}/(n-nu) == [C(n,nu+1)/(n-nu)] * B_{n-nu}; the
    # denominator n-nu cancels into the binomial, keeping everything
    # p-integral even when p | n-nu.
    return Fraction(comb(n, nu + 1), n - nu)


def adjusted_bernoulli_mod(
    d: int, p: int, r: int, table: BernoulliTable | None = None
) -> TrackedResidue:
    """Adjusted Bernoulli number at index d(p-1), mod p^r, via one power sum.

    Admissible for p >= max(5, r+3-delta) with delta = 0 only when d >= 2
    and d = 1 mod p; r <= 6. For r <= 4 the single correction input
    B_{n-2} mod p^{r-2} comes from the folklore route and the computation
    is O(p) with no exact values at all. The r = 5, 6 rows need divided
    inputs at precision 3 and up, beyond any fast route: they require the
    exact table and exist for small p only. That restriction is deliberate
    and not silently relaxed.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1 or r > 6:
        raise InadmissibleCase("supported range is 1 <= r <= 6")
    delta = 0 if (d >= 2 and d % p == 1) else 1
    if p < max(5, r + 3 - delta):
        raise InadmissibleCase(
            f"p={p} below bound max(5, {r}+3-{delta}) for precision {r}"
        )
    n = d * (p - 1)
    acc = sh_value(n, p, r)
    if 3 <= r <= 4:
        b2 = folklore_bernoulli_mod(n - 2, p, r - 2)
        acc = acc - b2.scale_fraction(_binom_coeff_times_b(n, 2)).scale(p ** 2)
    elif r >= 5:
        if table is None or table.max_index < n - 2:
            raise InadmissibleCase(
                f"r = {r} needs exact correction inputs up to index {n - 2}"
            )
        for nu, prec in ((2, r - 2), (4, r - 4)):
            corr = _binom_coeff_times_b(n, nu) * table.bernoulli(n - nu)
            acc = acc - reduce_rational(corr, acc.ctx, prec).scale(p ** nu)
    return acc.truncate(r)


def beta_mod(m: int, p: int, K: int) -> TrackedResidue:
    """Divided adjusted Bernoulli value at even index m, mod p^K, modular route.

    Routes: index a multiple of p-1 goes through adjusted_bernoulli_mod;
    otherwise through the folklore congruence. Extra precision is burned
    when p divides the index (the divided value stays p-integral); raises
    InadmissibleCase when no route reaches the requested precision.
    """
    if m < 2 or m % 2:
        raise ValueError("m must be even and >= 2")
    e = 0
    mm = m
    while mm % p == 0:
        mm //= p
        e += 1
    if m % (p - 1) == 0:
        d = m // (p - 1)
        num = adjusted_bernoulli_mod(d, p, K + e)
    else:
        if K + e > 2:
            raise InadmissibleCase(
                f"index {m}: needs B mod p^{K + e}, folklore route stops at p^2"
            )
        num = folklore_bernoulli_mod(m, p, K + e)
    return num.divide_by_p(e).scale_fraction(Fraction(1, mm)).truncate(K)


def beta_route(
    engine: str, p: int, table: BernoulliTable | None = None
) -> Callable[[int, int], TrackedResidue]:
    """The route (m, K) -> divided adjusted Bernoulli value at even index m,
    mod p^K, by one engine: beta_mod for 'modular', the oracle's rational
    reduced for 'exact' (at p = 2 the index-1 value -1 of bar_value).

    The exact route keeps what it reduces in table.reduced, one residue per
    (p, m) at the highest K asked, and answers a K at or below it by
    truncation; every route on the same table shares it. The modular route
    keeps nothing above power_sum_mod's memo.

    bundle and generalized_kummer_check take every value from here, so
    their two engines differ in this one place.
    """
    if engine == "modular":
        return lambda m, K: beta_mod(m, p, K)
    if engine != "exact":
        raise ValueError(f"unknown engine {engine!r}")
    if table is None:
        raise ValueError("exact engine needs a Bernoulli table")
    memo = table.reduced

    def exact(m: int, K: int) -> TrackedResidue:
        held = memo.get((p, m))
        if held is None or held.prec < K:
            value = bar_value(m, p, table) if p == 2 else beta_value(m, p, table)
            held = memo[p, m] = reduce_rational(value, PrimePowerContext(p), K)
        return held.truncate(K)

    return exact


@dataclass(frozen=True)
class DividedBernoulliBundle:
    """Divided Bernoulli residues feeding the quotient congruences.

    ``bars[d-1]`` holds the divided adjusted value at index d(p-1), mod p^r;
    ``bars2[d-1]`` the divided value at index d(p-1)-2, mod p^(r-2), on
    both engines and at every prime (every consumer multiplies bars2 by p^2
    or more, so nothing is lost). Both come from beta_route. The Kummer
    chains (all bars pairwise congruent mod p, likewise bars2) are asserted
    at construction.
    """

    p: int
    r: int
    bars: tuple[TrackedResidue, ...]
    bars2: tuple[TrackedResidue, ...]

    def __post_init__(self):
        for family in (self.bars, self.bars2):
            for v in family[1:]:
                if not family[0].agrees_with(v, 1):
                    raise AssertionError(
                        f"Kummer chain violated at p={self.p}: "
                        f"{family[0]} vs {v}"
                    )

    def bar(self, d: int) -> TrackedResidue:
        return self.bars[d - 1]

    def bar2(self, d: int) -> TrackedResidue:
        return self.bars2[d - 1]


def bundle(
    p: int,
    r: int = 4,
    engine: str = "modular",
    table: BernoulliTable | None = None,
) -> DividedBernoulliBundle:
    """Assemble the divided Bernoulli residues needed by a tier-r congruence.

    Every value comes from beta_route(engine, p, table): engine 'modular'
    costs O(p); engine 'exact' reduces oracle rationals and is the
    cross-check path. p in {2, 3} is exact-only, p = 2 limited to r = 1 and
    p = 3 to r = 2. The gates are per engine; the precisions, r for the
    bars and r - 2 for the bars2, are the same on both.
    """
    if r < 1 or r > 4:
        raise InadmissibleCase("bundle supports 1 <= r <= 4")
    if engine == "modular":
        if p < 5:
            raise InadmissibleCase("modular engine needs p >= 5")
        if r == 4 and p < 7:
            raise InadmissibleCase("modular r = 4 needs p >= 7")
    else:
        # exact: p = 2 stops at r = 1, p = 3 at r = 2
        if (p == 2 and r > 1) or (p == 3 and r > 2):
            raise InadmissibleCase(f"r = {r} not defined at p = {p}")
    value = beta_route(engine, p, table)
    bars = tuple(value(d * (p - 1), r) for d in range(1, r + 1))
    bars2 = tuple(value(d * (p - 1) - 2, r - 2) for d in range(1, r - 1))
    return DividedBernoulliBundle(p, r, bars, bars2)


# -- Kummer congruence checks --------------------------------------------


def kummer_check(n: int, m: int, p: int, table: BernoulliTable) -> CongruenceCheckResult:
    """B_n/n = B_m/m mod p for even n = m (mod p-1) not divisible by p-1."""
    if p < 5:
        raise HypothesisViolated("p must be >= 5")
    if n < 2 or m < 2 or n % 2 or m % 2:
        raise HypothesisViolated("indices must be even and >= 2")
    if (n - m) % (p - 1) != 0 or n % (p - 1) == 0:
        raise HypothesisViolated(
            f"need n = m (mod p-1) and (p-1) does not divide n; got n={n}, m={m}, p={p}"
        )
    ctx = PrimePowerContext(p)
    lhs = reduce_rational(table.bernoulli(n) / n, ctx, 1)
    rhs = reduce_rational(table.bernoulli(m) / m, ctx, 1)
    return result.from_residues("kummer", p, 1, lhs, rhs, f"indices {n}, {m}")


def generalized_kummer_check(
    n: int,
    p: int,
    r: int,
    table: BernoulliTable | None = None,
    engine: str = "exact",
) -> CongruenceCheckResult:
    """r-th difference of the divided adjusted values vanishes mod p^r.

    Hypotheses (one must hold): (1) (p-1) does not divide n and n > r;
    (2) (p-1) | n and p > r + n/(p-1).
    """
    check_id = f"gen_kummer_r{r}"
    if r < 0:
        raise HypothesisViolated("r must be >= 0")
    if p < 5 or n < 2 or n % 2:
        raise HypothesisViolated("need p >= 5 and even n >= 2")
    cond1 = n % (p - 1) != 0 and n > r
    cond2 = n % (p - 1) == 0 and p > r + n // (p - 1)
    if not (cond1 or cond2):
        raise HypothesisViolated(f"neither hypothesis holds for n={n}, p={p}, r={r}")
    if r == 0:
        return result.from_values(check_id, p, 0, 0, 0)
    value = beta_route(engine, p, table)
    lhs = forward_difference([value(n + k * (p - 1), r) for k in range(r + 1)])
    return result.from_residues(
        check_id, p, r, lhs.truncate(r), lhs.ctx.from_int(0, r), f"start index {n}"
    )
