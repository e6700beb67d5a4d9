"""Modular arithmetic in Z/p^K with explicit precision tracking.

A ``TrackedResidue`` is an integer known modulo ``p**K``; every operation
propagates the precision ``K`` so that a congruence proved at precision r
really was computed at precision >= r. The precision belongs to the residue
alone: its context is just the prime, with no ceiling, so a multiplication
by p^j keeps every one of the j units it gains. Dividing by p costs one unit
of precision and is only legal when the residue is divisible; silent
precision loss is the main correctness hazard in this kind of computation,
so it is an error here, never a truncation.

A residue is stored in three slots: its context, its precision K and its
integer in [0, p^K). It stays immutable: assigning to a slot raises, and
every operation returns a new residue.

The paper's results are linear forms in such residues with exact rational
coefficients. combine evaluates one, sum_k c_k x_k / den, as a single
residue: its precision is the least of x_k.prec + ord_p(c_k) - ord_p(den),
which is what scaling each term and adding them one by one gives, and its
total is reduced once. The tiers, forward differences and the modular
engine's Bernoulli corrections are evaluated through it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import comb


class PadicError(Exception):
    pass


class NotPrime(PadicError):
    pass


class NotPIntegral(PadicError):
    """The rational has p in its denominator; it has no residue mod p^K."""


class NotDivisible(PadicError):
    """Residue not divisible by p^j; some congruence upstream is violated."""


class PrecisionExhausted(PadicError):
    pass


class MixedContext(PadicError):
    pass


_set = object.__setattr__


class Frozen:
    """Base of the package's immutable values: what a frozen dataclass
    gives, without the start-up cost of importing dataclasses. A subclass
    names its fields in _fields and sets each once in __init__, by
    object.__setattr__ or all at once by _init; equality, hashing, repr and
    pickling go by those fields. Assigning or deleting an attribute raises
    dataclasses.FrozenInstanceError, an AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({args})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # loaded on this error only

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


# Deterministic Miller-Rabin witness set: the primes to 41 decide every
# n < 3.3 * 10^24 (without 41, only n < 3.18 * 10^23).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_TRIAL_BOUND = 1 << 16


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic primality test: trial division below 2^16, Miller-Rabin above."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    if n < _TRIAL_BOUND:
        f = 3
        while f * f <= n:
            if n % f == 0:
                return False
            f += 2
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by sieve; ValueError if the sieve cannot be allocated,
    whether its first array, a marking pass or the list of primes is
    refused."""
    if n < 2:
        return []
    try:  # zero-filled: a refused bytearray([1]) * n prints a SystemError too
        composite = bytearray(n + 1)
        composite[0] = composite[1] = 1
        for q in range(2, math.isqrt(n) + 1):
            if not composite[q]:
                composite[q * q :: q] = b"\x01" * ((n - q * q) // q + 1)
        return [i for i, c in enumerate(composite) if not c]
    except (OverflowError, MemoryError) as exc:
        raise ValueError(f"sieve limit {n} is too large") from exc


def ord_p(x: int | Fraction, p: int) -> int | float:
    """p-adic valuation of a rational; +inf for 0."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if x == 0:
        return math.inf
    if isinstance(x, int):
        num, den = x, 1
    else:
        num, den = x.numerator, x.denominator
    o = 0
    while num % p == 0:
        num //= p
        o += 1
    while den % p == 0:
        den //= p
        o -= 1
    return o


class PrimePowerContext(Frozen):
    """A validated prime p: the residues mod p^K, for every K, share it."""

    __slots__ = _fields = ("p",)

    def __init__(self, p: int):
        _set(self, "p", p)
        self.__post_init__()

    # the check is a method of its own: perfbench/tracing.py counts the
    # contexts made through it
    def __post_init__(self):
        if not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")

    def from_int(self, value: int, prec: int) -> "TrackedResidue":
        """Embed an exact integer at precision prec >= 0."""
        if prec < 0:
            raise PrecisionExhausted(f"negative precision {prec}")
        return _reduced(self, prec, value % self.p ** prec)


class PrimeWork:
    """One prime's work: its context, and three memos that their owners
    fill on first use and keep apart: power_sums (modular.power_sum_mod),
    quotients (quotients.q_sum's direct side) and factorial
    (quotients.factorial_mod). Made only by work(p)."""

    __slots__ = ("p", "ctx", "power_sums", "quotients", "factorial")

    def __init__(self, p: int):
        self.p = p
        self.ctx = PrimePowerContext(p)
        self.power_sums = self.quotients = self.factorial = None


@lru_cache(maxsize=1)
def work(p: int) -> PrimeWork:
    """The work of p, from one slot: a run works through one prime at a
    time, so its residues share one context per prime and its kernels one
    memo each. A call at another prime, by any kernel and n = 0 included,
    drops the held prime's context and all three memos at once; a p that
    is not prime raises NotPrime and leaves the slot as it was. The last
    prime's work stays held until another prime is asked or
    work.cache_clear() is called."""
    return PrimeWork(p)


class TrackedResidue(Frozen):
    """An integer known modulo p^prec. Immutable; all arithmetic is pure.

    Binary operations take the minimum of the operand precisions.
    Multiplying by an exact integer c gains all ord_p(c) units of precision:
    this covers the p^j shift used when assembling congruences with p-power
    prefactors.

    The constructor checks that 0 <= residue < p^prec. from_int and the
    arithmetic reduce each result themselves and build it through _reduced,
    which skips that check and so keeps a residue's creation cheap.
    """

    __slots__ = _fields = ("ctx", "prec", "residue")

    def __init__(self, ctx: PrimePowerContext, prec: int, residue: int):
        if prec < 0:
            raise PrecisionExhausted(f"negative precision {prec}")
        if prec == 0:
            if residue != 0:
                raise ValueError("zero-precision residue must store 0")
        elif not 0 <= residue < ctx.p ** prec:
            raise ValueError("residue not reduced mod p^prec")
        _set_ctx(self, ctx)
        _set_prec(self, prec)
        _set_residue(self, residue)

    # -- helpers ------------------------------------------------------

    @property
    def p(self) -> int:
        return self.ctx.p

    def _join(self, other: "TrackedResidue") -> int:
        if self.ctx.p != other.ctx.p:
            raise MixedContext(f"mixed primes {self.p} and {other.p}")
        return min(self.prec, other.prec)

    # -- ring operations ----------------------------------------------
    # An int operand is exact, so the result keeps self's precision.

    def __add__(self, other):
        if isinstance(other, TrackedResidue):
            prec = self._join(other)
            other = other.residue
        elif isinstance(other, int):
            prec = self.prec
        else:
            return NotImplemented
        ctx = self.ctx
        return _reduced(ctx, prec, (self.residue + other) % ctx.p ** prec)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, TrackedResidue):
            prec = self._join(other)
            other = other.residue
        elif isinstance(other, int):
            prec = self.prec
        else:
            return NotImplemented
        ctx = self.ctx
        return _reduced(ctx, prec, (self.residue - other) % ctx.p ** prec)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        ctx = self.ctx
        return _reduced(ctx, self.prec, (other - self.residue) % ctx.p ** self.prec)

    def __neg__(self):
        ctx = self.ctx
        return _reduced(ctx, self.prec, -self.residue % ctx.p ** self.prec)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, TrackedResidue):
            return NotImplemented
        prec = self._join(other)
        ctx = self.ctx
        return _reduced(ctx, prec, self.residue * other.residue % ctx.p ** prec)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if e == 1:
            return self
        ctx = self.ctx
        return _reduced(ctx, self.prec, pow(self.residue, e, ctx.p ** self.prec))

    def scale(self, c: int) -> "TrackedResidue":
        """Multiply by an exact integer; precision grows by ord_p(c)."""
        if c == 1:
            return self
        ctx = self.ctx
        p = ctx.p
        K = self.prec
        if c % p == 0:
            if c == 0:
                return _reduced(ctx, K, 0)
            cc = c
            while cc % p == 0:
                cc //= p
                K += 1
        return _reduced(ctx, K, c * self.residue % p ** K)

    def scale_fraction(self, fr: Fraction) -> "TrackedResidue":
        """Multiply by an exact rational whose denominator is prime to p."""
        if isinstance(fr, int):
            return self.scale(fr)
        if not isinstance(fr, Fraction):
            fr = Fraction(fr)
        den = fr.denominator
        if den % self.ctx.p == 0:
            raise NotPIntegral(f"denominator of {fr} divisible by {self.p}")
        out = self.scale(fr.numerator)
        if den == 1 or out.prec == 0:
            return out
        m = out.ctx.p ** out.prec
        return _reduced(out.ctx, out.prec, out.residue * pow(den, -1, m) % m)

    def divide_by_p(self, j: int = 1) -> "TrackedResidue":
        """Exact division by p^j; costs j units of precision."""
        if j < 0:
            raise ValueError("j must be >= 0")
        if j == 0:
            return self
        if self.prec < j:
            raise PrecisionExhausted(
                f"need {j} precision units for division, have {self.prec}"
            )
        pj = self.ctx.p ** j
        if self.residue % pj != 0:
            raise NotDivisible(
                f"{self.residue} is not divisible by {self.p}^{j} "
                f"(known mod {self.p}^{self.prec})"
            )
        return _reduced(self.ctx, self.prec - j, self.residue // pj)

    def truncate(self, K: int) -> "TrackedResidue":
        """Forget precision down to K <= prec."""
        if K > self.prec:
            raise PrecisionExhausted(f"cannot raise precision {self.prec} to {K}")
        if K == self.prec:
            return self
        if K < 0:
            raise PrecisionExhausted(f"negative precision {K}")
        ctx = self.ctx
        return _reduced(ctx, K, self.residue % ctx.p ** K)

    def agrees_with(self, other: "TrackedResidue", K: int) -> bool:
        """True when both values are congruent mod p^K (both must know K digits)."""
        if self.p != other.p:
            raise MixedContext(f"mixed primes {self.p} and {other.p}")
        if K < 0:
            raise PrecisionExhausted(f"negative precision {K}")
        if self.prec < K or other.prec < K:
            raise PrecisionExhausted(
                f"comparison mod p^{K} needs precision {K}, "
                f"have {self.prec} and {other.prec}"
            )
        m = self.p ** K
        return self.residue % m == other.residue % m

    def __repr__(self):
        return f"{self.residue} (mod {self.p}^{self.prec})"


_new_residue = object.__new__
_set_ctx = TrackedResidue.ctx.__set__
_set_prec = TrackedResidue.prec.__set__
_set_residue = TrackedResidue.residue.__set__


def _reduced(ctx: PrimePowerContext, prec: int, residue: int) -> TrackedResidue:
    """A residue that the caller has already reduced mod p^prec, prec >= 0:
    the constructor without its range check."""
    r = _new_residue(TrackedResidue)
    _set_ctx(r, ctx)
    _set_prec(r, prec)
    _set_residue(r, residue)
    return r


def reduce_rational(x: Fraction, ctx: PrimePowerContext, K: int) -> TrackedResidue:
    """Image of a p-integral rational in Z/p^K."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if x.denominator % ctx.p == 0:
        raise NotPIntegral(f"{x} has negative {ctx.p}-adic valuation")
    if K < 0:
        raise PrecisionExhausted(f"negative precision {K}")
    m = ctx.p ** K
    return _reduced(ctx, K, x.numerator * pow(x.denominator, -1, m) % m)


def combine(
    coeffs: Sequence[int], values: Sequence[TrackedResidue], den: int = 1
) -> TrackedResidue:
    """sum_k coeffs[k] * values[k] / den as one residue, the coefficients
    and den exact ints: what folding x.scale_fraction(Fraction(c, den)) with
    + over the terms gives, in precision and residue, without a residue or
    a Fraction per term.

    The precision is the least over k of values[k].prec + ord_p(coeffs[k])
    - ord_p(den), a zero coefficient counting as values[k].prec (as scale(0)
    keeps it). The total is reduced once and divided by the p-free part of
    den once. A nonzero coeffs[k] / den with p in its denominator raises
    NotPIntegral, values at two primes MixedContext.
    """
    if not values:
        raise ValueError("need at least one value")
    if not den:
        raise ZeroDivisionError("den must be nonzero")
    ctx = values[0].ctx
    p = ctx.p
    unit, pv = den, 1  # den = unit * pv, pv = p^ord_p(den)
    while unit % p == 0:
        unit //= p
        pv *= p
    prec = None
    total = 0
    for c, x in zip(coeffs, values, strict=True):
        if x.ctx is not ctx and x.ctx.p != p:
            raise MixedContext(f"mixed primes {p} and {x.ctx.p}")
        K = x.prec
        if c:
            if pv != 1:
                if c % pv:
                    raise NotPIntegral(f"denominator of {Fraction(c, den)} divisible by {p}")
                c //= pv
            total += c * x.residue
            while c % p == 0:
                c //= p
                K += 1
        if prec is None or K < prec:
            prec = K
    m = p ** prec
    if unit != 1:
        total *= pow(unit, -1, m)
    return _reduced(ctx, prec, total % m)


def forward_difference(values: Sequence[TrackedResidue]) -> TrackedResidue:
    """n-th forward difference of n+1 equally spaced samples.

    The samples are the caller-evaluated f(s), f(s+h), ..., f(s+nh); the
    step h is the caller's business. Returns sum C(n,k) (-1)^(n-k) values[k]
    as one combine: at the least precision of the inputs, each raised by
    ord_p of its binomial.
    """
    n = len(values) - 1
    return combine([comb(n, k) * (-1) ** (n - k) for k in range(n + 1)], values)
