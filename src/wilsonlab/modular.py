"""The fast path: power sums mod p^K in O(p) and divided Bernoulli residues.

Adjusted Bernoulli numbers at indices d(p-1) are recovered modulo p^r from a
single O(p) power sum plus small correction terms whose inputs come from the
power-sum/Bernoulli congruence ("folklore") route. No exact rational value of
a large Bernoulli number is ever needed, which is what makes p ~ 10^4 cheap.
"""

from __future__ import annotations

from collections.abc import Callable
from math import comb, isqrt

from .bernoulli import BernoulliTable, bar_value, beta_value
from .padic import TrackedResidue, combine, forward_difference, is_prime, reduce_rational, work


class InadmissibleCase(Exception):
    pass


class HypothesisViolated(Exception):
    pass


def _smallest_prime_factors(p: int) -> list[int]:
    """spf[a] for 0 <= a < p: the smallest prime factor of a (a itself for a
    prime, and for 0 and 1). ValueError if the sieve cannot be allocated,
    whether the list itself or a later step is refused."""
    try:
        spf = list(range(p))
        for b in range(2, isqrt(p - 1) + 1):
            if spf[b] == b:
                for a in range(b * b, p, b):
                    if spf[a] == a:
                        spf[a] = b
    except (OverflowError, MemoryError) as exc:
        raise ValueError(f"sieve below {p} is too large") from exc
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


# A power list is held unreduced while its entries fit in this many bits:
# on entries of one to three machine digits a reduction costs more than the
# product it reduces, and with no cap the entries of a long column grow with
# it. On a 2-vCPU VM (Python 3.11), caps of 128, 256, 384 and 512 bits ran
# perfbench's tiers_large_p pass in a median 0.0280, 0.0261, 0.0270 and
# 0.0242 s (3 runs of 20 s each), and `wilson --p 1000003 --mod-exp 4
# --method bernoulli` peaked at 253, 284, 315 and 345 MB RSS. 256 is the
# fastest of those whose peak stays below the 322 MB that a reduction at
# every other step of a column took.
_UNREDUCED_BITS = 256


def _step_powers(n: int, below: list[int], t: list[int], m: int, reduce: bool) -> list[int]:
    """pw[a] = a^n (mod m) from below[a] = a^(n-(p-1)) and t[a] = a^(p-1),
    both mod m, where p = len(t): one multiplication per a.

    The products are reduced mod m when reduce is true and left as they are
    when not; the caller decides by the size of the entries (see
    _PowerSumMemo).
    """
    if reduce:
        return [x * y % m for x, y in zip(below, t)]
    return [x * y for x, y in zip(below, t)]


class _PowerSumMemo:
    """The power sums of one prime p: n -> (K, S_n(p) mod p^K), and the
    smallest-prime-factor sieve below p, built on the first sieve pass. It
    lives in padic.work(p).power_sums, which only power_sum_mod reads or
    writes, and goes when the slot moves to another prime. A miss computes
    its sum at the precision asked, so a sum asked at its highest precision
    first is computed once.

    Write an index n = d(p-1) + j with d = ceil(n/(p-1)) and
    -(p-1) < j <= 0. A miss at (d, j) and precision W is a step, not a
    sieve pass, when the memo holds the power list a -> a^((d-1)(p-1)+j)
    and t: a -> a^(p-1), both mod p^W or finer:
    a^(d(p-1)+j) = a^((d-1)(p-1)+j) * a^(p-1).
    columns maps j to the latest list of shape (d, j) computed, as (d,
    precision, list, bits), and t is the list of shape (1, 0) as (precision,
    list, bits), kept only at the precision it was sieved at: a finer t is
    congruent to a^(p-1) mod every coarser p^W, so a step multiplies by it
    as it is. Any other miss runs the sieve; none runs only to make t.

    bits bounds the bit length of a list's entries: a sieved list's is that
    of its modulus, a step's is its list below's plus t's. A step leaves its
    products unreduced while that bound is at most _UNREDUCED_BITS, and
    reduces them mod p^W past it, so every list held has entries below
    max(p^W, 2^_UNREDUCED_BITS). The sum of each list is reduced once.
    """

    def __init__(self, p: int):
        self.p = p
        self.sums: dict[int, tuple[int, int]] = {}
        self.spf: list[int] | None = None
        self.t: tuple[int, list[int], int] | None = None
        self.columns: dict[int, tuple[int, int, list[int], int]] = {}

    def get(self, n: int, K: int) -> int:
        m = self.p ** K
        held = self.sums.get(n)
        if held is not None and held[0] >= K:
            return held[1] % m
        d = -(-n // (self.p - 1))
        j = n - d * (self.p - 1)
        below = self.columns.get(j)
        if (below is not None and below[0] == d - 1 and below[1] >= K
                and self.t is not None and self.t[0] >= K):
            bits = below[3] + self.t[2]
            reduce = bits > _UNREDUCED_BITS
            pw = _step_powers(n, below[2], self.t[1], m, reduce)
            if reduce:
                bits = m.bit_length()
        else:
            if self.spf is None:
                self.spf = _smallest_prime_factors(self.p)
            pw = _sieve_powers(n, m, self.spf)
            bits = m.bit_length()
        if (d, j) == (1, 0):
            self.t = (K, pw, bits)
        self.columns[j] = (d, K, pw, bits)
        value = sum(pw) % m
        self.sums[n] = (K, value)
        return value


def power_sum_mod(n: int, p: int, K: int) -> TrackedResidue:
    """1^n + ... + (p-1)^n mod p^K, with the convention that n = 0 gives p - 1.

    Sums are memoised in work(p).power_sums, which the first call at p
    fills, so callers that keep to one prime reuse them: a sum held at
    precision K or higher is reduced, one held lower is recomputed at K. A
    call at another prime, by any kernel, drops the memo with the rest of
    padic.work's slot, so nothing a prime asked moves the work of the next
    one, and a caller that asks each sum at its highest precision first
    computes it once. A miss one step of p - 1 above a power list that the
    memo holds, with t: a -> a^(p-1), at the miss's precision or finer
    costs one multiplication per a, reduced only once the list's entries
    outgrow _UNREDUCED_BITS (see _PowerSumMemo); any other miss costs pow
    at the primes below p only, through a smallest-prime-factor sieve (see
    _sieve_powers). Values are a pure function of (n, p, K) either way.
    The residues share work(p).ctx.
    """
    if n < 0 or K < 1:
        raise ValueError("need n >= 0 and K >= 1")
    w = work(p)
    if n == 0:
        return w.ctx.from_int(p - 1, K)
    if w.power_sums is None:
        w.power_sums = _PowerSumMemo(p)
    return w.ctx.from_int(w.power_sums.get(n, K), K)


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


def adjusted_bernoulli_mod(
    d: int, p: int, r: int, table: BernoulliTable | None = None
) -> TrackedResidue:
    """Adjusted Bernoulli number at index d(p-1), mod p^r, via one power sum.

    Admissible for p >= max(5, r+3-delta) with delta = 0 only when d >= 2
    and d = 1 mod p; r <= 6. For r <= 4 the single correction input
    B_{n-2} mod p^{r-2} comes from the folklore route and the computation
    is O(p) with no exact values at all. The r = 5, 6 rows need divided
    inputs at precision 3 and up, beyond any fast route: they read the
    divided values at n-2 and n-4 from the exact route of beta_route over
    the given table and exist for small p only. That restriction is
    deliberate and not silently relaxed.
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
        # C(n, 3) B_{n-2}/(n-2) = n(n-1)/6 B_{n-2}; 6 is a unit mod p^r
        b2 = folklore_bernoulli_mod(n - 2, p, r - 2)
        acc = combine((6, -n * (n - 1) * p ** 2), (acc, b2), 6)
    elif r >= 5:
        if table is None or table.max_index < n - 2:
            raise InadmissibleCase(
                f"r = {r} needs exact correction inputs up to index {n - 2}"
            )
        oracle = beta_route("exact", p, table)
        acc = combine(
            (1, -comb(n, 3) * p ** 2, -comb(n, 5) * p ** 4),
            (acc, oracle(n - 2, r - 2), oracle(n - 4, r - 4)),
        )
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
    return num.divide_by_p(e).scale(pow(mm, -1, p ** K)).truncate(K)


def beta_route(
    engine: str, p: int, table: BernoulliTable | None = None
) -> Callable[[int, int], TrackedResidue]:
    """The route (m, K) -> divided adjusted Bernoulli value at even index m,
    mod p^K, by one engine: beta_mod for 'modular', the oracle's rational
    reduced for 'exact' (at p = 2 the index-1 value -1 of bar_value).

    The exact route is the one place that turns an oracle rational into a
    residue. It keeps what it reduces in table.reduced, one residue per
    (p, m) at the highest K asked, and answers a K at or below it by
    truncation; every route on the same table shares it. The modular route
    keeps nothing above power_sum_mod's memo.

    bundle and generalized_kummer_difference take every value from here,
    so their two engines differ in this one place. The exact-only values
    (kummer_pair, congruences.carlitz_pair, the registry's cor35_tiers,
    folklore and prop22) and the r >= 5 corrections of
    adjusted_bernoulli_mod read the exact route too.
    """
    if engine == "modular":
        return lambda m, K: beta_mod(m, p, K)
    if engine != "exact":
        raise ValueError(f"unknown engine {engine!r}")
    if table is None:
        raise ValueError("exact engine needs a Bernoulli table")
    memo, ctx = table.reduced, work(p).ctx

    def exact(m: int, K: int) -> TrackedResidue:
        held = memo.get((p, m))
        if held is None or held.prec < K:
            value = bar_value(m, p, table) if p == 2 else beta_value(m, p, table)
            held = memo[p, m] = reduce_rational(value, ctx, K)
        return held.truncate(K)

    return exact


# A bundle: (nu, d) -> the divided value at index d(p-1) - nu.
Bundle = dict[tuple[int, int], TrackedResidue]


def bundle(
    p: int,
    r: int = 4,
    engine: str = "modular",
    table: BernoulliTable | None = None,
) -> Bundle:
    """The divided Bernoulli residues a tier-r congruence reads, keyed by
    (nu, d): the value at index d(p-1) - nu, mod p^(r-nu), for nu in (0, 2)
    and 1 <= d <= r - nu (every consumer multiplies a nu = 2 value by p^2
    or more, so nothing is lost). A fresh dict per call.

    Every value comes from beta_route(engine, p, table): engine 'modular'
    costs O(p); engine 'exact' reduces oracle rationals and is the
    cross-check path. p in {2, 3} is exact-only, p = 2 limited to r = 1 and
    p = 3 to r = 2. The gates are per engine; the precisions are the same
    on both. The Kummer chain of each nu (its values pairwise congruent
    mod p) is asserted.
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
    bnd: Bundle = {}
    for nu in (0, 2):
        chain = [value(d * (p - 1) - nu, r - nu) for d in range(1, r - nu + 1)]
        for v in chain[1:]:
            if not chain[0].agrees_with(v, 1):
                raise AssertionError(f"Kummer chain violated at p={p}: {chain[0]} vs {v}")
        bnd.update(((nu, d), v) for d, v in enumerate(chain, 1))
    return bnd


# -- Kummer congruences ----------------------------------------------------


def kummer_pair(n: int, m: int, p: int, table: BernoulliTable) -> tuple[TrackedResidue, ...]:
    """B_n/n and B_m/m mod p, equal for even n = m (mod p-1) not divisible
    by p-1: the exact route's divided values (beta_route)."""
    if p < 5:
        raise HypothesisViolated("p must be >= 5")
    if n < 2 or m < 2 or n % 2 or m % 2:
        raise HypothesisViolated("indices must be even and >= 2")
    if (n - m) % (p - 1) != 0 or n % (p - 1) == 0:
        raise HypothesisViolated(
            f"need n = m (mod p-1) and (p-1) does not divide n; got n={n}, m={m}, p={p}"
        )
    value = beta_route("exact", p, table)
    return value(n, 1), value(m, 1)


def generalized_kummer_difference(
    n: int,
    p: int,
    r: int,
    table: BernoulliTable | None = None,
    engine: str = "exact",
) -> TrackedResidue:
    """r-th difference (step p-1) of the divided adjusted values from index
    n, mod p^r; it vanishes there.

    Hypotheses (one must hold): (1) (p-1) does not divide n and n > r;
    (2) (p-1) | n and p > r + n/(p-1).
    """
    if r < 0:
        raise HypothesisViolated("r must be >= 0")
    if p < 5 or n < 2 or n % 2:
        raise HypothesisViolated("need p >= 5 and even n >= 2")
    cond1 = n % (p - 1) != 0 and n > r
    cond2 = n % (p - 1) == 0 and p > r + n // (p - 1)
    if not (cond1 or cond2):
        raise HypothesisViolated(f"neither hypothesis holds for n={n}, p={p}, r={r}")
    if r == 0:
        return work(p).ctx.from_int(0, 0)
    value = beta_route(engine, p, table)
    return forward_difference([value(n + k * (p - 1), r) for k in range(r + 1)])
