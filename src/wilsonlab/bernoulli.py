"""Exact rational Bernoulli machinery: the slow, trusted oracle.

Everything here works in arbitrary-precision rationals (``fractions.Fraction``)
and is meant for desk-scale indices; the O(p) modular engine in
``wilsonlab.modular`` owns large primes. Sign convention: B_1 = -1/2. The
polynomial denominators are read from the table by integer gcds
(``polynomial_denominators``); the Fraction polynomials are their reference.

The table is built from the tangent numbers T_k, computed in integers by the
in-place recurrence of Brent and Harvey ("Fast computation of Bernoulli,
Tangent and Secant numbers", 2011), its row divided by (j-k)! so that each
stage is one C-level prefix sum (``tangent_rows``), and
B_{2k} = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)). The recurrence only adds and
multiplies integers, never divides, so it runs as well mod any modulus:
``BernoulliTable.build`` reads its rows exact, and
``congruences.irregular_primes`` reads them reduced mod a product of prime
powers.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from fractions import Fraction
from itertools import accumulate, repeat, starmap
from math import comb, gcd, lcm
from operator import mul

from .padic import Frozen, TrackedResidue, is_prime, primes_up_to

# Exact values above this index are refused rather than silently thrashing:
# numerators grow like n log n digits and the modular engine owns that range.
DESK_CAP = 2400


class IndexOutOfTable(Exception):
    pass


def tangent_rows(m: int) -> Iterator[deque]:
    """The rows of the tangent recurrence after stages k = 1..m; the first
    entry of row k is T_k.

    After stage k, t_j (j >= k) is divisible by (j-k)!, so the row holds
    u_j = t_j / (j-k)!, j = k..m, from u = [1]*m (t_j = (j-1)!). Stage k+1,
    t_j <- (j-k-1) t_{j-1} + (j-k+1) t_j, divided by i! (i = j-k-1), is the
    prefix sum u'_j = u'_{j-1} + (i+1)(i+2) u_j. The row is one deque,
    yielded at each stage and advanced in place when the reader asks for the
    next. A reader may replace its entries by congruent ones mod any M
    before then: the stages only add and multiply by integers, so every
    later T_k comes out congruent to the exact one mod M.
    """
    weights = [(i + 1) * (i + 2) for i in range(m)]
    row = deque([1] * m)
    for _ in range(m):
        yield row
        row.popleft()
        # the next stage pops each old entry as it appends the new one,
        # so only one row is alive
        pops = starmap(row.popleft, repeat((), len(row)))
        row.extend(accumulate(map(mul, weights, pops)))


class BernoulliTable:
    """Exact Bernoulli numbers B_0..B_N.

    ``divided`` is beta_value's memo, m -> B_m/m. ``reduced`` is the memo of
    modular.beta_route's exact engine: (p, m) -> the divided value at index
    m reduced mod p^K, K the highest precision asked. Both belong to the
    table, so they live and die with it.
    """

    def __init__(self, values: list[Fraction]):
        self._values = list(values)
        self.divided: dict[int, Fraction] = {}
        self.reduced: dict[tuple[int, int], TrackedResidue] = {}

    @classmethod
    def build(cls, n_max: int) -> "BernoulliTable":
        """Build B_0..B_n_max from the tangent numbers T_1..T_m, m = n_max // 2,
        each read off its row (tangent_rows) as
        B_{2k} = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        if n_max > DESK_CAP:
            raise IndexOutOfTable(f"exact table capped at index {DESK_CAP}")
        values = [Fraction(0)] * (n_max + 1)
        values[0] = Fraction(1)
        if n_max >= 1:
            values[1] = Fraction(-1, 2)
        for k, row in enumerate(tangent_rows(n_max // 2), 1):
            four_k = 4 ** k
            sign = 1 if k % 2 else -1
            values[2 * k] = Fraction(sign * 2 * k * row[0], four_k * (four_k - 1))
        return cls(values)

    @property
    def max_index(self) -> int:
        return len(self._values) - 1

    def bernoulli(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("index must be >= 0")
        if n > self.max_index:
            raise IndexOutOfTable(f"B_{n} beyond table (max {self.max_index})")
        return self._values[n]


class RationalPolynomial(Frozen):
    """Polynomial with Fraction coefficients, ascending degree, trimmed."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        self._init(coeffs)

    @classmethod
    def make(cls, coeffs) -> "RationalPolynomial":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def drop_constant(self) -> "RationalPolynomial":
        if not self.coeffs:
            return self
        return RationalPolynomial.make((Fraction(0),) + self.coeffs[1:])

    def denominator(self) -> int:
        """LCM of the coefficient denominators (1 for the zero polynomial)."""
        d = 1
        for c in self.coeffs:
            d = lcm(d, c.denominator)
        return d


def bernoulli_polynomial(n: int, table: BernoulliTable) -> RationalPolynomial:
    """The degree-n monic polynomial sum(C(n,k) B_{n-k} x^k, k=0..n)."""
    if n > table.max_index:
        raise IndexOutOfTable(f"index {n} beyond table")
    return RationalPolynomial.make(
        [comb(n, k) * table.bernoulli(n - k) for k in range(n + 1)]
    )


def power_sum_polynomial(n: int, table: BernoulliTable) -> RationalPolynomial:
    """Degree n+1 polynomial with S_n(m) = 1^n + ... + (m-1)^n for integer m >= 1.

    Faulhaber's formula: the coefficient of m^k is C(n+1, k) B_{n+1-k} / (n+1).
    n >= 1 only (the n = 0 convention S_0(m) = m - 1 is a caller-side special
    case, not a polynomial produced here).
    """
    if n < 1:
        raise ValueError("n must be >= 1; S_0 is a special case for callers")
    if n + 1 > table.max_index:
        raise IndexOutOfTable(f"index {n + 1} beyond table")
    return RationalPolynomial.make([Fraction(0)] + [
        Fraction(comb(n + 1, k), n + 1) * table.bernoulli(n + 1 - k)
        for k in range(1, n + 2)
    ])


def polynomial_denominators(n: int, table: BernoulliTable) -> tuple[int, int]:
    """Denominators of B_n(x) - B_n and of the power-sum polynomial S_n(m),
    each the lcm of its coefficient denominators, from integer gcds alone.

    Since gcd(num B_j, den B_j) = 1, the coefficient C(n,k) B_{n-k} has
    denominator den(B_{n-k}) / gcd(den(B_{n-k}), C(n,k)). The power-sum
    coefficient C(n+1,k) B_{n+1-k} / (n+1) reduces in the same way, with one
    more gcd against n+1. The loop runs over the Bernoulli index j (j = n-k,
    resp. n+1-k, so the binomial is C(n,j), resp. C(n+1,j)), and vanishing
    coefficients (odd j > 1) add nothing. The Fraction polynomials above
    are the tests' reference.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n + 1 > table.max_index:
        raise IndexOutOfTable(f"index {n + 1} beyond table")
    shifted = power = 1
    for j in (0, 1, *range(2, n + 1, 2)):
        b = table.bernoulli(j)
        den = b.denominator
        if j < n:
            shifted = lcm(shifted, den // gcd(den, comb(n, j)))
        c = comb(n + 1, j)
        g = gcd(den, c)
        power = lcm(power, (n + 1) * (den // g) // gcd(c // g * b.numerator, n + 1))
    return shifted, power


def vsc_denominator(n: int) -> int:
    """Product of primes p with (p-1) | n; equals denominator of B_n for even n."""
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    out = 1
    for d in range(1, n + 1):
        if n % d == 0 and is_prime(d + 1):
            out *= d + 1
    return out


def digit_sum(n: int, p: int) -> int:
    """Sum of base-p digits of n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    s = 0
    while n:
        n, r = divmod(n, p)
        s += r
    return s


def dn_product(n: int) -> int:
    """Product of primes p <= n whose base-p digit sum of n is at least p.

    Equals the coefficient denominator of B_n(x) - B_n. Primes above n never
    qualify (their digit sum is n itself, below p), so the product is finite.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    out = 1
    for p in primes_up_to(n):
        if digit_sum(n, p) >= p:
            out *= p
    return out


def adjusted_bernoulli(n: int, p: int, table: BernoulliTable) -> Fraction:
    """B_n made p-integral: 0 at n = 0; B_n + 1/p - 1 when (p-1) | n; else B_n."""
    if n == 0:
        return Fraction(0)
    if n % 2:
        raise ValueError("index must be even or 0")
    b = table.bernoulli(n)
    if n % (p - 1) == 0:
        return b + Fraction(1, p) - 1
    return b


def beta_value(n: int, p: int, table: BernoulliTable) -> Fraction:
    """Divided adjusted Bernoulli number: adjusted B_n over n. Where (p-1)
    does not divide n it is B_n/n at every p, divided once per table and
    held in table.divided; at (p-1) | n it is made per call."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % (p - 1) == 0:
        return adjusted_bernoulli(n, p, table) / n
    held = table.divided.get(n)
    if held is None:
        held = table.divided[n] = adjusted_bernoulli(n, p, table) / n
    return held


def bar_value(d: int, p: int, table: BernoulliTable) -> Fraction:
    """(B_{d(p-1)} + 1/p - 1) / (d(p-1)).

    At p = 2 only d = 1 is defined (the odd-index value B_1 = -1/2 enters,
    giving -1). At p = 3 the value is -1/4 for d = 1; higher d use the even
    index 2d as usual.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    n = d * (p - 1)
    if p == 2:
        if d != 1:
            raise ValueError("only d = 1 is defined for p = 2")
        return (table.bernoulli(1) + Fraction(1, 2) - 1) / 1
    return beta_value(n, p, table)
