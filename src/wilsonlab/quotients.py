"""Wilson and Fermat quotients, power sums of Fermat quotients, and the
Wilson quotient through them by the log/exp series of
((p-1)!)^(p-1) = prod_a a^(p-1).

The quotient power sums Q_p(n) come by two independent methods that must
agree exactly: direct summation of n-th powers of Fermat quotients, and an
n-th forward difference of integer power sums followed by n backward shifts.
The direct side keeps its own memo for one prime (the Fermat quotients and
the sums built from them); it reads nothing of modular's power-sum memo or
sieve, so a fault there cannot make the two methods agree.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from typing import Sequence

from .modular import HypothesisViolated, power_sum_mod
from .padic import (
    PrimePowerContext,
    TrackedResidue,
    forward_difference,
    is_prime,
)


class NotCoprime(Exception):
    pass


def factorial_mod(p: int, K: int) -> TrackedResidue:
    """(p-1)! mod p^K by direct product."""
    if K < 1:
        raise ValueError("K must be >= 1")
    ctx = PrimePowerContext(p, K)
    m = ctx.modulus
    acc = 1
    for a in range(2, p):
        acc = acc * a % m
    return ctx.from_int(acc, K)


def factorials_mod(primes: Sequence[int], K: int) -> dict[int, int]:
    """{p: (p-1)! mod p^K} for a strictly increasing list of primes, from one
    accumulating remainder tree (Costa, Gerbicz and Harvey, "A search for
    Wilson primes", Math. Comp. 2014).

    Leaf i holds A_i = p_{i-1} * ... * (p_i - 1), with p_{-1} = 1, so that
    (p_i - 1)! = A_0 * ... * A_i; a node holds the product of its moduli
    p^K. Going down, a node's prefix product v (the A's to its left, reduced
    mod the node's modulus) passes to the left child as v mod M_left and to
    the right child as v * prod(A_left) mod M_right. The A-products are
    returned up the recursion instead of stored, so only the modulus tree
    is kept, as a flat list. With fast integer division the cost is
    quasi-linear in the largest prime P, against O(P^2 / log P) for a
    factorial_mod loop per prime; CPython's schoolbook division makes the
    top nodes dominate past P ~ 10^5.

    This is a bulk scan kernel, not an oracle: the checks compare against
    factorial_mod, which must not read it.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    primes = list(primes)
    if any(b <= a for a, b in zip(primes, primes[1:])):
        raise ValueError("primes must be strictly increasing")
    if not primes:
        return {}

    # moduli[k] is the product of p^K over the primes under node k; the
    # children of node k are 2k and 2k + 1
    moduli = [0] * (4 * len(primes))

    def build(k, lo, hi):
        if hi - lo == 1:
            moduli[k] = primes[lo] ** K
            return
        mid = (lo + hi) // 2
        build(2 * k, lo, mid)
        build(2 * k + 1, mid, hi)
        moduli[k] = moduli[2 * k] * moduli[2 * k + 1]

    out: dict[int, int] = {}

    def descend(k, lo, hi, v, want):
        """Fill `out` for primes[lo:hi]; return the A-product if wanted."""
        if hi - lo == 1:
            p, m = primes[lo], moduli[k]
            start = primes[lo - 1] if lo else 1
            if not want:  # a direct loop, so one large prime costs O(p)
                for a in range(start, p):
                    v = v * a % m
                out[p] = v
                return None
            a = prod(range(start, p))
            out[p] = v * a % m
            return a
        mid = (lo + hi) // 2
        a = descend(2 * k, lo, mid, v % moduli[2 * k], True)
        b = descend(2 * k + 1, mid, hi, v * a % moduli[2 * k + 1], want)
        return a * b if want else None

    build(1, 0, len(primes))
    descend(1, 0, len(primes), 1, False)
    return out


def wilson_quotient(p: int, r: int) -> TrackedResidue:
    """((p-1)! + 1)/p mod p^r.

    NotDivisible here would falsify Wilson's theorem, so it is allowed to
    propagate as a fatal internal error.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    f = factorial_mod(p, r + 1)
    return (f + 1).divide_by_p(1)


def fermat_quotient(a: int, p: int, r: int) -> TrackedResidue:
    """(a^(p-1) - 1)/p mod p^r for a coprime to p."""
    if gcd(a, p) != 1:
        raise NotCoprime(f"gcd({a}, {p}) != 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    ctx = PrimePowerContext(p, r + 1)
    t = ctx.from_int(pow(a, p - 1, ctx.modulus), r + 1)
    return (t - 1).divide_by_p(1)


def _fermat_quotients(p: int, R: int) -> list[int]:
    """q_p(a) mod p^R for a = 1..p-1, one pow(a, p-1, p^(R+1)) each."""
    m = p ** (R + 1)
    return [(pow(a, p - 1, m) - 1) // p for a in range(1, p)]


class _QuotientMemo:
    """The direct quotient power sums of one prime p: the Fermat quotients
    mod p^R at the highest precision R asked so far, and
    n -> (r, Q_p(n) mod p^r)."""

    def __init__(self, p: int):
        self.p = p
        self.R = 0
        self.quotients: list[int] = []
        self.sums: dict[int, tuple[int, int]] = {}

    def get(self, n: int, r: int) -> int:
        m = self.p ** r
        held = self.sums.get(n)
        if held is not None and held[0] >= r:
            return held[1] % m
        if self.R < r:
            self.quotients = _fermat_quotients(self.p, r)
            self.R = r
        value = sum([pow(q, n, m) for q in self.quotients]) % m
        self.sums[n] = (r, value)
        return value


_memo = _QuotientMemo(0)


def q_sum(p: int, n: int, r: int, method: str = "direct") -> TrackedResidue:
    """Sum of n-th powers of the Fermat quotients q_p(1..p-1), mod p^r.

    method 'direct' sums q_p(a)^n, with q_p(a) = (a^(p-1) - 1)/p from one
    pow per a. The quotients and sums are memoised for one prime at a time
    (a call at another prime starts the memo afresh): a sum held at
    precision r or higher is reduced, and a higher r recomputes the
    quotients at that r, so callers that keep to one prime pay one pow loop
    per new precision. method 'difference' computes the same value as the
    n-th forward difference (step p-1) of nu -> S_nu(p) at nu = 0, shifted
    back by p^n; it needs the power sums at precision r + n. Both methods
    agree exactly, and neither reads the other's memo.
    """
    global _memo
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    if method == "direct":
        if _memo.p != p:
            _memo = _QuotientMemo(p)
        return PrimePowerContext(p, r + 1).from_int(_memo.get(n, r), r)
    if method == "difference":
        values = [power_sum_mod(k * (p - 1), p, r + n) for k in range(n + 1)]
        return forward_difference(values).divide_by_p(n)
    raise ValueError(f"unknown method {method!r}")


def wilson_via_psi(p: int, r: int) -> TrackedResidue:
    """Wilson quotient mod p^r from the quotient power sums Q_p(1..r); must
    equal wilson_quotient(p, r) whenever p > r.

    With a^(p-1) = 1 + p q_p(a) and (p-1)! = -(1 - pW_p), the logarithm of
    ((p-1)!)^(p-1) = prod_a (1 + p q_p(a)) gives 1 - pW_p = exp(x), where
    x = L/(p-1) and L = sum_k (-1)^(k-1) p^k Q_p(k)/k. So
    W_p = -(1/p) sum_n x^n/n!. Both series stop at their r-th term and run
    mod p^(r+1); 1/(k(p-1)) and 1/n! are units because p > r. Expanded in
    the Q_p(k), the series is sum_nu p^(nu-1)/nu! Psi_nu(Q_p(1..nu)) with the
    classical expansion polynomials Psi_nu. The quotient power sums enter at
    precision r and share q_sum's memo, so the Fermat quotients of p are
    computed once.
    """
    # the checks and the tests' reference rows stop at r = 4; past it each r
    # adds a q_sum pass at p^r
    if r < 1 or r > 4:
        raise HypothesisViolated("supported range is 1 <= r <= 4")
    if p <= r or p == 2:
        raise HypothesisViolated(f"need an odd prime p > r, got p={p}, r={r}")
    ctx = PrimePowerContext(p, r + 1)
    x = ctx.from_int(0)
    for k in range(1, r + 1):
        term = q_sum(p, k, r).lift(ctx).scale(p**k)
        x = x + term.scale_fraction(Fraction((-1) ** (k - 1), k * (p - 1)))
    term = acc = x
    for n in range(2, r + 1):
        term = (term * x).scale_fraction(Fraction(1, n))
        acc = acc + term
    return (-acc).divide_by_p(1)
