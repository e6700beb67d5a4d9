import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wilsonlab.padic import (
    MixedContext,
    NotDivisible,
    NotPIntegral,
    PrecisionExhausted,
    PrimePowerContext,
    forward_difference,
    is_prime,
    ord_p,
    primes_up_to,
    reduce_rational,
)

PRIMES = (2, 3, 5, 7, 11, 13, 31, 97)


def test_is_prime_small():
    assert [p for p in range(2, 40) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
    ]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(561)  # Carmichael
    assert is_prime(2**61 - 1)  # above the trial-division bound
    assert not is_prime(2**67 - 1)
    # the least strong pseudoprime to the bases 2..37 needs the witness 41
    assert not is_prime(318665857834031151167461)  # 399165290221 * 798330580441


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(13) == [2, 3, 5, 7, 11, 13]
    assert len(primes_up_to(10**4)) == 1229


def test_ord_p_examples():
    assert ord_p(Fraction(-5, 6), 5) == 1
    assert ord_p(24, 2) == 3
    assert ord_p(Fraction(1, 9), 3) == -2
    assert ord_p(0, 7) == math.inf


@given(
    st.sampled_from(PRIMES),
    st.fractions(min_value=-1000, max_value=1000),
    st.fractions(min_value=-1000, max_value=1000),
)
def test_ord_p_multiplicative_and_ultrametric(p, x, y):
    ox, oy = ord_p(x, p), ord_p(y, p)
    assert ord_p(x * y, p) == ox + oy
    os = ord_p(x + y, p)
    assert os >= min(ox, oy)
    if ox != oy:
        assert os == min(ox, oy)


def test_context_validation():
    with pytest.raises(Exception):
        PrimePowerContext(6, 2)
    with pytest.raises(ValueError):
        PrimePowerContext(5, 0)
    assert PrimePowerContext(5, 3).modulus == 125


def test_reduce_rational_examples():
    ctx = PrimePowerContext(5, 3)
    assert reduce_rational(Fraction(1, 6), ctx, 2).residue == 21
    assert reduce_rational(Fraction(0), ctx, 2).residue == 0
    with pytest.raises(NotPIntegral):
        reduce_rational(Fraction(1, 5), ctx, 2)


def test_divide_by_p_examples():
    ctx = PrimePowerContext(5, 3)
    x = ctx.from_int(70, 3)
    y = x.divide_by_p()
    assert (y.residue, y.prec) == (14, 2)
    z = ctx.from_int(0, 3).divide_by_p()
    assert (z.residue, z.prec) == (0, 2)
    with pytest.raises(NotDivisible):
        ctx.from_int(3, 2).divide_by_p()
    with pytest.raises(PrecisionExhausted):
        ctx.from_int(0, 0).divide_by_p()


def test_forward_difference_examples():
    ctx = PrimePowerContext(5, 4)
    f = [ctx.from_int(v, 4) for v in (0, 1, 4)]
    assert forward_difference(f).residue == 2
    single = [ctx.from_int(9, 4)]
    assert forward_difference(single).residue == 9
    power_sums = [ctx.from_int(4, 4), ctx.from_int(354, 4)]
    assert forward_difference(power_sums).residue == 350


def test_forward_difference_mixed_context():
    a = PrimePowerContext(5, 2).from_int(1, 2)
    b = PrimePowerContext(7, 2).from_int(1, 2)
    with pytest.raises(MixedContext):
        forward_difference([a, b])


def test_precision_rules():
    ctx = PrimePowerContext(5, 4)
    a = ctx.from_int(7, 3)
    b = ctx.from_int(2, 2)
    assert (a + b).prec == 2
    assert (a * b).prec == 2
    assert (a - 1).prec == 3
    # multiplying by p^j gains j, capped at the working exponent
    assert a.scale(5).prec == 4
    assert a.scale(25).prec == 4
    assert a.scale(3).prec == 3
    assert a.truncate(1).residue == 7 % 5
    with pytest.raises(PrecisionExhausted):
        b.truncate(3)


@given(
    st.sampled_from((3, 5, 7, 13)),
    st.integers(min_value=1, max_value=4),
    st.fractions(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50),
)
def test_reduction_is_ring_homomorphism(p, K, x, y):
    for v in (x, y, x * y, x + y):
        if v != 0 and ord_p(v, p) < 0:
            return
    ctx = PrimePowerContext(p, K)
    rx, ry = reduce_rational(x, ctx, K), reduce_rational(y, ctx, K)
    assert (rx * ry).residue == reduce_rational(x * y, ctx, K).residue
    assert (rx + ry).residue == reduce_rational(x + y, ctx, K).residue


@given(
    st.sampled_from((3, 5, 7)),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=3),
)
def test_divide_undoes_prime_power_scaling(p, value, j):
    ctx = PrimePowerContext(p, 6)
    x = ctx.from_int(value, 3)
    back = x.scale(p ** j).divide_by_p(j)
    assert back.prec == min(3 + j, 6) - j
    assert back.residue == value % p ** back.prec


@given(
    st.sampled_from((3, 5, 7)),
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
)
def test_forward_difference_annihilates_low_degree(p, n, coeffs):
    """The n-th difference of a polynomial of degree < n is zero."""
    poly = coeffs[:n]  # degree <= n-1

    def f(x):
        return sum(c * x ** i for i, c in enumerate(poly))

    ctx = PrimePowerContext(p, 6)
    values = [ctx.from_int(f(s), 6) for s in range(n + 1)]
    assert forward_difference(values).residue == 0


@given(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-50, max_value=50),
)
def test_unchanging_operations_match_the_general_path(p, R, value, c):
    """truncate(prec), scale(1) and scale_fraction(int) return the residue
    itself, with the (prec, residue) that rebuilding it gives, at precision
    0, at the working exponent and between."""
    ctx = PrimePowerContext(p, R)
    for K in sorted({0, R // 2, R}):
        x = ctx.from_int(value, K)
        rebuilt = ctx.from_int(x.residue, K)
        for same in (x.truncate(K), x.scale(1), x.scale_fraction(1)):
            assert same is x
            assert (same.prec, same.residue) == (rebuilt.prec, rebuilt.residue)
        by_int, by_fraction = x.scale_fraction(c), x.scale_fraction(Fraction(c))
        assert (by_int.prec, by_int.residue) == (by_fraction.prec, by_fraction.residue)
        # the errors of the general path still raise
        if K < R:
            with pytest.raises(PrecisionExhausted):
                x.truncate(K + 1)
        with pytest.raises(NotPIntegral):
            x.scale_fraction(Fraction(1, p))
        with pytest.raises(NotPIntegral):
            reduce_rational(Fraction(1, p), ctx, K)
        if K and value % p:
            with pytest.raises(NotDivisible):
                x.divide_by_p()
