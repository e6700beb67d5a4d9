"""Wilson and Fermat quotients, power sums of Fermat quotients, and the
multivariate polynomials expressing the Wilson quotient through them.

The quotient power sums Q_p(n) come by two independent methods that must
agree exactly: direct summation of n-th powers of Fermat quotients, and an
n-th forward difference of integer power sums followed by n backward shifts.
The direct side keeps its own memo for one prime (the Fermat quotients and
the sums built from them); it reads nothing of modular's power-sum memo or
sieve, so a fault there cannot make the two methods agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, gcd, prod
from typing import Sequence

from .modular import HypothesisViolated, power_sum_mod
from .padic import (
    MixedContext,
    PrimePowerContext,
    TrackedResidue,
    forward_difference,
    inv_mod,
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


@dataclass(frozen=True)
class PsiPolynomial:
    """One row of the quotient-expansion table: integer polynomial in
    x_1..x_nu with no constant term, stored as (coefficient, exponent
    vector) terms."""

    nu: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]

    def evaluate(self, args: Sequence[TrackedResidue]) -> TrackedResidue:
        if len(args) != self.nu:
            raise ValueError(f"need exactly {self.nu} arguments")
        ps = {a.p for a in args}
        if len(ps) > 1:
            raise MixedContext(f"mixed primes {sorted(ps)}")
        acc = None
        for coeff, exps in self.terms:
            term = None
            for x, e in zip(args, exps):
                if e == 0:
                    continue
                pw = x ** e
                term = pw if term is None else term * pw
            term = args[0].ctx.from_int(coeff, args[0].prec) if term is None else term.scale(coeff)
            acc = term if acc is None else acc + term
        return acc


# The first four expansion polynomials. These are data, not code: r > 4 has
# no table row here and requests beyond it fail instead of extrapolating.
PSI_TABLE: dict[int, PsiPolynomial] = {
    1: PsiPolynomial(1, ((1, (1,)),)),
    2: PsiPolynomial(
        2,
        (
            (2, (1, 0)),
            (-1, (2, 0)),
            (-1, (0, 1)),
        ),
    ),
    3: PsiPolynomial(
        3,
        (
            (6, (1, 0, 0)),
            (-6, (2, 0, 0)),
            (1, (3, 0, 0)),
            (3, (1, 1, 0)),
            (-3, (0, 1, 0)),
            (2, (0, 0, 1)),
        ),
    ),
    4: PsiPolynomial(
        4,
        (
            (24, (1, 0, 0, 0)),
            (-36, (2, 0, 0, 0)),
            (12, (3, 0, 0, 0)),
            (-1, (4, 0, 0, 0)),
            (-6, (2, 1, 0, 0)),
            (24, (1, 1, 0, 0)),
            (-8, (1, 0, 1, 0)),
            (-12, (0, 1, 0, 0)),
            (-3, (0, 2, 0, 0)),
            (8, (0, 0, 1, 0)),
            (-6, (0, 0, 0, 1)),
        ),
    ),
}

PSI_MAX = max(PSI_TABLE)


def psi_eval(nu: int, args: Sequence[TrackedResidue]) -> TrackedResidue:
    if nu not in PSI_TABLE:
        raise HypothesisViolated(f"no expansion polynomial for nu = {nu}")
    return PSI_TABLE[nu].evaluate(args)


def wilson_via_psi(p: int, r: int) -> TrackedResidue:
    """Wilson quotient mod p^r from quotient power sums; must equal
    wilson_quotient(p, r) whenever p > r.

    The sum over nu of p^(nu-1)/nu! applied to the expansion rows. The
    quotient power sums enter at uniform precision r (immune to off-by-one
    budgeting, and cheap: the r calls share q_sum's memo, so the Fermat
    quotients of p are computed once); nu! is a unit because p > r >= nu.
    """
    if r < 1 or r > PSI_MAX:
        raise HypothesisViolated(f"supported range is 1 <= r <= {PSI_MAX}")
    if p <= r or p == 2:
        raise HypothesisViolated(f"need an odd prime p > r, got p={p}, r={r}")
    ctx = PrimePowerContext(p, r + 2)
    qs = [
        TrackedResidue(ctx, r, q_sum(p, nu, r).residue) for nu in range(1, r + 1)
    ]
    acc = ctx.from_int(0, ctx.working_exp)
    for nu in range(1, r + 1):
        term = psi_eval(nu, qs[:nu])
        term = term.scale(p ** (nu - 1))
        term = term * inv_mod(factorial(nu), ctx, term.prec)
        acc = acc + term
    return acc.truncate(r)
