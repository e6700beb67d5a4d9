"""Modular arithmetic in Z/p^K with explicit precision tracking.

A ``TrackedResidue`` is an integer known modulo ``p**K``; every operation
propagates the precision ``K`` so that a congruence proved at precision r
really was computed at precision >= r. Dividing by p costs one unit of
precision and is only legal when the residue is divisible; silent
precision loss is the main correctness hazard in this kind of computation,
so it is an error here, never a truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence, Union


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
    """All primes <= n by sieve."""
    if n < 2:
        return []
    try:
        sieve = bytearray([1]) * (n + 1)
    except OverflowError as exc:
        raise ValueError(f"sieve limit {n} is too large") from exc
    sieve[0] = sieve[1] = 0
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(sieve[q * q :: q]))
    return [i for i, fl in enumerate(sieve) if fl]


def ord_p(x: Union[int, Fraction], p: int) -> Union[int, float]:
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


@dataclass(frozen=True)
class PrimePowerContext:
    """The ring Z/p^R: a prime p and a working precision exponent R."""

    p: int
    working_exp: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")
        if self.working_exp < 1:
            raise ValueError("working_exp must be >= 1")

    @property
    def modulus(self) -> int:
        return self.p ** self.working_exp

    def one(self, prec: int | None = None) -> "TrackedResidue":
        return self.from_int(1, prec)

    def from_int(self, value: int, prec: int | None = None) -> "TrackedResidue":
        """Embed an exact integer at the given precision (default: full R)."""
        K = self.working_exp if prec is None else prec
        if not 0 <= K <= self.working_exp:
            raise PrecisionExhausted(f"precision {K} outside [0, {self.working_exp}]")
        return TrackedResidue(self, K, value % self.p ** K if K else 0)


@dataclass(frozen=True)
class TrackedResidue:
    """An integer known modulo p^prec. Immutable; all arithmetic is pure.

    Binary operations take the minimum of the operand precisions.
    Multiplying by an exact integer c gains ord_p(c) of precision (capped
    at the context's working exponent): this covers the p^j shift used when
    assembling congruences with p-power prefactors.
    """

    ctx: PrimePowerContext
    prec: int
    residue: int

    def __post_init__(self):
        if not 0 <= self.prec <= self.ctx.working_exp:
            raise PrecisionExhausted(
                f"precision {self.prec} outside [0, {self.ctx.working_exp}]"
            )
        if self.prec == 0:
            if self.residue != 0:
                raise ValueError("zero-precision residue must store 0")
        elif not 0 <= self.residue < self.ctx.p ** self.prec:
            raise ValueError("residue not reduced mod p^prec")

    # -- helpers ------------------------------------------------------

    @property
    def p(self) -> int:
        return self.ctx.p

    @property
    def modulus(self) -> int:
        return self.p ** self.prec

    def _join(self, other: "TrackedResidue") -> tuple[PrimePowerContext, int]:
        if self.p != other.p:
            raise MixedContext(f"mixed primes {self.p} and {other.p}")
        ctx = self.ctx if self.ctx.working_exp >= other.ctx.working_exp else other.ctx
        return ctx, min(self.prec, other.prec)

    def _coerce(self, other) -> "TrackedResidue":
        if isinstance(other, TrackedResidue):
            return other
        if isinstance(other, int):
            return self.ctx.from_int(other, self.prec)
        return NotImplemented

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ctx, K = self._join(other)
        return ctx.from_int(self.residue + other.residue, K)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ctx, K = self._join(other)
        return ctx.from_int(self.residue - other.residue, K)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return self.ctx.from_int(-self.residue, self.prec)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, TrackedResidue):
            return NotImplemented
        ctx, K = self._join(other)
        return ctx.from_int(self.residue * other.residue, K)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if e == 0:
            return self.ctx.one()
        if self.prec == 0:
            return self
        return self.ctx.from_int(pow(self.residue, e, self.modulus), self.prec)

    def scale(self, c: int) -> "TrackedResidue":
        """Multiply by an exact integer; precision grows by ord_p(c)."""
        if c == 1:
            return self
        if c == 0:
            return self.ctx.from_int(0, self.ctx.working_exp)
        gain = 0
        cc = c
        while cc % self.p == 0:
            cc //= self.p
            gain += 1
        K = min(self.prec + gain, self.ctx.working_exp)
        return self.ctx.from_int(c * self.residue, K)

    def scale_fraction(self, fr: Fraction) -> "TrackedResidue":
        """Multiply by an exact rational whose denominator is prime to p."""
        if isinstance(fr, int):
            return self.scale(fr)
        if not isinstance(fr, Fraction):
            fr = Fraction(fr)
        if fr.denominator % self.p == 0:
            raise NotPIntegral(f"denominator of {fr} divisible by {self.p}")
        out = self.scale(fr.numerator)
        if fr.denominator != 1:
            inv = pow(fr.denominator, -1, self.p ** max(out.prec, 1)) if out.prec else 0
            out = self.ctx.from_int(out.residue * inv, out.prec)
        return out

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
        if self.residue % self.p ** j != 0:
            raise NotDivisible(
                f"{self.residue} is not divisible by {self.p}^{j} "
                f"(known mod {self.p}^{self.prec})"
            )
        return self.ctx.from_int(self.residue // self.p ** j, self.prec - j)

    def truncate(self, K: int) -> "TrackedResidue":
        """Forget precision down to K <= prec."""
        if K > self.prec:
            raise PrecisionExhausted(f"cannot raise precision {self.prec} to {K}")
        if K == self.prec:
            return self
        return self.ctx.from_int(self.residue, K)

    def lift(self, ctx: PrimePowerContext) -> "TrackedResidue":
        """Move into a wider context (same p, same knowledge, more headroom)."""
        if ctx.p != self.p:
            raise MixedContext(f"mixed primes {self.p} and {ctx.p}")
        return TrackedResidue(ctx, self.prec, self.residue)

    def agrees_with(self, other: "TrackedResidue", K: int) -> bool:
        """True when both values are congruent mod p^K (both must know K digits)."""
        if self.p != other.p:
            raise MixedContext(f"mixed primes {self.p} and {other.p}")
        if self.prec < K or other.prec < K:
            raise PrecisionExhausted(
                f"comparison mod p^{K} needs precision {K}, "
                f"have {self.prec} and {other.prec}"
            )
        m = self.p ** K
        return self.residue % m == other.residue % m

    def __repr__(self):
        return f"{self.residue} (mod {self.p}^{self.prec})"


def reduce_rational(x: Fraction, ctx: PrimePowerContext, K: int) -> TrackedResidue:
    """Image of a p-integral rational in Z/p^K."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if x.denominator % ctx.p == 0:
        raise NotPIntegral(f"{x} has negative {ctx.p}-adic valuation")
    if K == 0:
        return TrackedResidue(ctx, 0, 0)
    m = ctx.p ** K
    return ctx.from_int(x.numerator * pow(x.denominator, -1, m), K)


def forward_difference(values: Sequence[TrackedResidue]) -> TrackedResidue:
    """n-th forward difference of n+1 equally spaced samples.

    The samples are the caller-evaluated f(s), f(s+h), ..., f(s+nh); the
    step h is the caller's business. Returns sum C(n,k) (-1)^(n-k) values[k]
    at the minimum precision of the inputs.
    """
    if not values:
        raise ValueError("need at least one value")
    n = len(values) - 1
    acc = None
    for k, v in enumerate(values):
        term = v.scale(comb(n, k) * (-1) ** (n - k))
        acc = term if acc is None else acc + term
    return acc
