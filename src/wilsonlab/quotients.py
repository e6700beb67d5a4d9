"""Wilson and Fermat quotients, power sums of Fermat quotients, and the
Wilson quotient through them by the log/exp series of
((p-1)!)^(p-1) = prod_a a^(p-1).

The quotient power sums Q_p(n) come by two independent methods that must
agree exactly: direct summation of n-th powers of Fermat quotients, and an
n-th forward difference of integer power sums followed by n backward shifts.
The direct side keeps its own memo of one prime in padic.work's slot: the
Fermat quotients, from a linear sieve of its own, the latest list of their
powers, stepped from one n to the next, and the sums built from them. It
reads nothing of modular's power-sum memo or sieve, so a fault there cannot
make the two methods agree.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, prod

from .modular import HypothesisViolated, power_sum_mod
from .padic import TrackedResidue, forward_difference, is_prime, work


class NotCoprime(Exception):
    pass


_FACTORIAL_CHUNK = 32


def factorial_mod(p: int, K: int) -> TrackedResidue:
    """(p-1)! mod p^K by direct product, one reduction per chunk of
    _FACTORIAL_CHUNK consecutive factors (math.prod of a range, no list).

    The product is memoised as (K, (p-1)! mod p^K) in work(p).factorial at
    the highest K asked: a K at or below it is the held product reduced, a
    higher one computes it again at that K, and a call at another prime, by
    any kernel, drops it with the rest of padic.work's slot. So the Wilson
    tiers of one prime, asked from the highest down, pay one product. The
    memo is this function's own; it reads nothing of the other memos."""
    if K < 1:
        raise ValueError("K must be >= 1")
    w = work(p)
    if w.factorial is None or w.factorial[0] < K:
        m = p**K
        acc = 1
        for lo in range(2, p, _FACTORIAL_CHUNK):
            acc = acc * prod(range(lo, min(lo + _FACTORIAL_CHUNK, p))) % m
        w.factorial = (K, acc)
    return w.ctx.from_int(w.factorial[1], K)


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
    t = work(p).ctx.from_int(pow(a, p - 1, p ** (r + 1)), r + 1)
    return (t - 1).divide_by_p(1)


def _fermat_quotients(p: int, R: int) -> list[int]:
    """q_p(a) mod p^R for a = 1..p-1, as (a^(p-1) mod p^(R+1) - 1) // p.

    a -> a^(p-1) is completely multiplicative, so a linear sieve (Gries and
    Misra, CACM 1978) fills the powers: pow runs at the primes a only, and
    each composite a * b, b a prime no larger than the smallest prime
    factor of a, is the product of two earlier entries, made once. The
    sieve is this module's own; it reads nothing of modular's.
    """
    m, e = p ** (R + 1), p - 1
    pw = [0] * p
    pw[1] = 1
    primes: list[int] = []
    for a in range(2, p):
        x = pw[a]
        if not x:  # a^(p-1) is a unit, so 0 marks an entry not yet made
            x = pw[a] = pow(a, e, m)
            primes.append(a)
        for b in primes:
            if a * b >= p:
                break
            pw[a * b] = x * pw[b] % m
            if a % b == 0:
                break
    return [(x - 1) // p for x in pw[1:]]


# A list of quotient powers is held unreduced while its entries fit in this
# many bits. The same rule as modular's power lists, kept apart on purpose:
# lemma26_qdiff compares the two kernels, so they share no code.
_UNREDUCED_BITS = 256


class _QuotientMemo:
    """The direct quotient power sums of one prime p: the Fermat quotients
    mod p^R at the highest precision R asked so far, n -> (r, Q_p(n) mod
    p^r), and powers, (k, [x_a]) with x_a = q_a^k mod p^R for the highest k
    reached at R, its entries of at most bits bits. It lives in
    padic.work(p).quotients, which only q_sum's direct side reads or
    writes, and goes when the slot moves to another prime.

    A miss at (n, r) with n <= r is a term of a p-adic series to precision
    r, which asks every lower n as well: the Wilson series, lemma 2.6 and
    the Q-tiers do, in rising or falling order. It steps powers up to q^n,
    one product per a and step, and keeps the sum of every list it passes
    at R, reduced mod p^R. A step leaves its products unreduced while their
    bound, the list's bits plus those of p^R, is at most _UNREDUCED_BITS,
    and reduces them mod p^R past it, so the list's entries stay below
    max(p^R, 2^_UNREDUCED_BITS). Since k only rises at one R, every n <= k
    is then held, and the list is dropped once k = R, where no such miss is
    left to step it. A miss at n > r, a lone sum that no series asks, takes
    one pow(q, n, p^r) per a, so its cost grows with the bit length of n,
    not with n.
    """

    def __init__(self, p: int):
        self.p = p
        self.R = 0
        self.quotients: list[int] = []
        self.sums: dict[int, tuple[int, int]] = {}
        self.powers: tuple[int, list[int] | None] = (0, None)
        self.bits = 0

    def get(self, n: int, r: int) -> int:
        m = self.p ** r
        held = self.sums.get(n)
        if held is not None and held[0] >= r:
            return held[1] % m
        if self.R < r:
            self.quotients = _fermat_quotients(self.p, r)
            self.R = r
            self.powers = (1, self.quotients)
            self.bits = (self.p**r).bit_length()
        qs = self.quotients
        if n > r:
            value = sum([pow(q, n, m) for q in qs]) % m
            self.sums[n] = (r, value)
            return value
        R, M = self.R, self.p**self.R
        k, pw = self.powers
        if self.sums.get(k, (0, 0))[0] < R:  # q^1, just made at this R
            self.sums[k] = (R, sum(pw) % M)
        bits, qbits = self.bits, M.bit_length()
        while k < n:
            if bits + qbits > _UNREDUCED_BITS:
                pw = [x * q % M for x, q in zip(pw, qs)]
                bits = qbits
            else:
                pw = [x * q for x, q in zip(pw, qs)]
                bits += qbits
            k += 1
            self.sums[k] = (R, sum(pw) % M)
        self.powers = (k, pw if k < R else None)
        self.bits = bits
        return self.sums[n][1] % m


def q_sum(p: int, n: int, r: int, method: str = "direct") -> TrackedResidue:
    """Sum of n-th powers of the Fermat quotients q_p(1..p-1), mod p^r.

    method 'direct' sums q_p(a)^n, with q_p(a) = (a^(p-1) - 1)/p from a
    linear sieve that calls pow at the primes a only. The quotients, the
    latest list of their powers and the sums are memoised in
    work(p).quotients (a call at another prime, by any kernel, drops them
    with the rest of padic.work's slot): a sum held at precision r or
    higher is reduced, a higher r recomputes the quotients at that r, and a
    miss at n <= r steps the held powers to n, keeping every sum on the way
    (see _QuotientMemo), so callers that keep to one prime pay one sieve
    per new precision. method 'difference' computes the same value as the
    n-th forward difference (step p-1) of nu -> S_nu(p) at nu = 0, shifted
    back by p^n; it needs the power sums at precision r + n. Both methods
    agree exactly, and neither reads the other's memo.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    if method == "direct":
        w = work(p)
        if w.quotients is None:
            w.quotients = _QuotientMemo(p)
        return w.ctx.from_int(w.quotients.get(n, r), r)
    if method == "difference":
        values = [power_sum_mod(k * (p - 1), p, r + n) for k in range(n + 1)]
        return forward_difference(values).divide_by_p(n)
    raise ValueError(f"unknown method {method!r}")


def wilson_series(L: TrackedResidue, r: int) -> TrackedResidue:
    """W_p mod p^r from L = sum_{k<=r} (-1)^(k-1) p^k Q_p(k)/k mod p^(r+1),
    the logarithm of ((p-1)!)^(p-1) = prod_a a^(p-1) = prod_a (1 + p q_p(a)).

    As (p-1)! = -(1 - pW_p), 1 - pW_p = exp(x) with x = L/(p-1), so
    W_p = -(1/p) sum_{n<=r} x^n/n!, run in integers mod p^(r+1): 1/(p-1) and
    1/n! are units for p > r. It equals wilson_quotient(p, r) for odd p > r;
    the Bernoulli route also passes p = 2 at r = 1, where it is L/(p(1-p)).
    """
    p, m = L.p, L.p ** (r + 1)
    x = L.truncate(r + 1).residue * pow(p - 1, -1, m) % m
    term = acc = x
    for n in range(2, r + 1):
        term = term * x * pow(n, -1, m) % m
        acc += term
    return L.ctx.from_int(-acc, r + 1).divide_by_p(1)


def wilson_via_psi(p: int, r: int) -> TrackedResidue:
    """Wilson quotient mod p^r from the quotient power sums Q_p(1..r) by
    wilson_series, for odd p > r. Expanded in the Q_p(k), the series is
    sum_nu p^(nu-1)/nu! Psi_nu(Q_p(1..nu)) with the classical expansion
    polynomials Psi_nu. The power sums enter at precision r and share
    q_sum's memo, so the Fermat quotients of p are computed once.
    """
    if r < 1 or p <= r or p == 2:
        raise HypothesisViolated(f"need r >= 1 and an odd prime p > r, got p={p}, r={r}")
    ctx, m = work(p).ctx, p ** (r + 1)
    L = sum((-1) ** (k - 1) * p**k * pow(k, -1, m) * q_sum(p, k, r).residue
            for k in range(1, r + 1))
    return wilson_series(ctx.from_int(L, r + 1), r)
