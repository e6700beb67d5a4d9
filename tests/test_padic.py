import math
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wilsonlab.padic import (
    MixedContext,
    NotDivisible,
    NotPIntegral,
    PrecisionExhausted,
    PrimePowerContext,
    TrackedResidue,
    combine,
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
        PrimePowerContext(6)


def test_reduce_rational_examples():
    ctx = PrimePowerContext(5)
    assert reduce_rational(Fraction(1, 6), ctx, 2).residue == 21
    assert reduce_rational(Fraction(0), ctx, 2).residue == 0
    with pytest.raises(NotPIntegral):
        reduce_rational(Fraction(1, 5), ctx, 2)
    with pytest.raises(PrecisionExhausted, match="negative precision -1"):
        reduce_rational(Fraction(1, 6), ctx, -1)


def test_negative_precision_is_refused_everywhere():
    """A precision below 0 is PrecisionExhausted wherever it is asked, never
    a float modulus or a TypeError from pow."""
    ctx = PrimePowerContext(5)
    a, b = ctx.from_int(7, 3), ctx.from_int(3, 2)
    for K in (-1, -3):
        with pytest.raises(PrecisionExhausted):
            a.agrees_with(b, K)
        with pytest.raises(PrecisionExhausted):
            reduce_rational(Fraction(1, 6), ctx, K)
        with pytest.raises(PrecisionExhausted):
            ctx.from_int(7, K)
        with pytest.raises(PrecisionExhausted):
            a.truncate(K)
    assert a.agrees_with(b, 0)
    assert not a.agrees_with(b, 1)


def test_constructor_keeps_its_validation():
    ctx = PrimePowerContext(5)
    assert TrackedResidue(ctx, 2, 24) == ctx.from_int(24, 2)
    assert TrackedResidue(ctx=ctx, prec=0, residue=0) == ctx.from_int(3, 0)
    with pytest.raises(ValueError, match="not reduced"):
        TrackedResidue(ctx, 2, 25)
    with pytest.raises(ValueError, match="not reduced"):
        TrackedResidue(ctx, 2, -1)
    with pytest.raises(PrecisionExhausted, match="negative precision"):
        TrackedResidue(ctx, -1, 0)
    with pytest.raises(ValueError, match="zero-precision"):
        TrackedResidue(ctx, 0, 3)


def test_residues_are_immutable():
    x = PrimePowerContext(7).from_int(10, 2)
    for name, value in (("residue", 11), ("prec", 3), ("ctx", PrimePowerContext(5)),
                        ("other", 1)):
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, value)
    with pytest.raises(FrozenInstanceError):
        del x.residue
    assert (x.ctx.p, x.prec, x.residue) == (7, 2, 10)
    assert not hasattr(x, "__dict__")


def test_equality_and_hashing():
    """A residue equals a residue with the same prime, precision and
    integer, whichever context object it holds, and nothing else: not the
    tuple of its fields, not its integer."""
    x = PrimePowerContext(7).from_int(10, 2)
    same = TrackedResidue(PrimePowerContext(7), 2, 10)
    assert x == same and not x != same
    assert hash(x) == hash(same) == hash((x.ctx, 2, 10))
    for other in (PrimePowerContext(7).from_int(10, 3), PrimePowerContext(11).from_int(10, 2),
                  PrimePowerContext(7).from_int(11, 2)):
        assert x != other
    for other in ((x.ctx, 2, 10), (7, 2, 10), 10, None):
        assert x != other and other != x
    assert len({x, same, x.truncate(1)}) == 2
    with pytest.raises(TypeError):
        x < same


def test_residues_survive_pickling():
    for p, K, v in ((2, 0, 0), (5, 3, 124), (1009, 4, 10**11)):
        x = PrimePowerContext(p).from_int(v, K)
        back = pickle.loads(pickle.dumps(x))
        assert back == x and back is not x
        assert (back.ctx, back.prec, back.residue) == (x.ctx, x.prec, x.residue)
        assert back + 1 == x + 1


def test_divide_by_p_examples():
    ctx = PrimePowerContext(5)
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
    ctx = PrimePowerContext(5)
    f = [ctx.from_int(v, 4) for v in (0, 1, 4)]
    assert forward_difference(f).residue == 2
    single = [ctx.from_int(9, 4)]
    assert forward_difference(single).residue == 9
    power_sums = [ctx.from_int(4, 4), ctx.from_int(354, 4)]
    assert forward_difference(power_sums).residue == 350


def test_forward_difference_mixed_context():
    a = PrimePowerContext(5).from_int(1, 2)
    b = PrimePowerContext(7).from_int(1, 2)
    with pytest.raises(MixedContext):
        forward_difference([a, b])
    # a zero coefficient still joins its value's prime, as the fold's + did
    for coeffs, den in (([1, 1], 1), ([1, 0], 3), ([0, 2], 5)):
        with pytest.raises(MixedContext):
            combine(coeffs, [a, b], den)
    with pytest.raises(ValueError):
        combine([], [])


def test_precision_rules():
    ctx = PrimePowerContext(5)
    a = ctx.from_int(7, 3)
    b = ctx.from_int(2, 2)
    assert (a + b).prec == 2
    assert (a * b).prec == 2
    assert (a - 1).prec == 3
    # multiplying by p^j gains j, with no ceiling
    assert a.scale(5).prec == 4
    assert a.scale(25).prec == 5
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
    ctx = PrimePowerContext(p)
    rx, ry = reduce_rational(x, ctx, K), reduce_rational(y, ctx, K)
    assert (rx * ry).residue == reduce_rational(x * y, ctx, K).residue
    assert (rx + ry).residue == reduce_rational(x + y, ctx, K).residue


@given(
    st.sampled_from((3, 5, 7)),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=3),
)
def test_divide_undoes_prime_power_scaling(p, value, j):
    ctx = PrimePowerContext(p)
    x = ctx.from_int(value, 3)
    back = x.scale(p ** j).divide_by_p(j)
    assert back.prec == 3
    assert back.residue == value % p ** back.prec


@given(
    st.sampled_from((2, 3, 5, 7, 1009)),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
)
def test_scaling_by_p_power_keeps_every_unit(p, K, j, value, u):
    """Multiplying by u * p^j, u a unit, gains exactly j units at any K and
    j, and dividing by p^j and u gives the value back mod p^K."""
    if u % p == 0:
        u += 1
    x = PrimePowerContext(p).from_int(value, K).scale(u * p**j)
    assert x.prec == K + j
    back = x.divide_by_p(j).scale_fraction(Fraction(1, u))
    assert (back.prec, back.residue) == (K, value % p**K)
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

    ctx = PrimePowerContext(p)
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
    0, at R and between."""
    ctx = PrimePowerContext(p)
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


@given(
    st.sampled_from((2, 3, 5, 7, 1009)),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-10**12, max_value=10**12),
    st.integers(min_value=-10**12, max_value=10**12),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
)
def test_ring_operations_agree_with_integer_arithmetic(p, K, L, a, b, c, d):
    """Every operation gives plain integer arithmetic reduced mod p^prec,
    at the precision the rules say: the minimum of the operands for a
    binary op, self's for an exact int operand, + ord_p(c) for scale and
    scale_fraction, - j for divide_by_p, and the asked K for truncate."""
    ctx = PrimePowerContext(p)
    x, y = ctx.from_int(a, K), ctx.from_int(b, L)

    def same(r, prec, value):
        assert r.__class__ is TrackedResidue
        assert (r.ctx.p, r.prec, r.residue) == (p, prec, value % p**prec)

    low = min(K, L)
    same(x + y, low, a + b)
    same(x - y, low, a - b)
    same(x * y, low, a * b)
    same(x + c, K, a + c)
    same(c + x, K, a + c)
    same(x - c, K, a - c)
    same(c - x, K, c - a)
    same(-x, K, -a)
    same(x ** 3, K, a**3)
    same(x ** 0, K, 1)
    if c:
        same(x.scale(c), K + ord_p(c, p), a * c)
        same(x * c, K + ord_p(c, p), a * c)
    else:
        same(x.scale(0), K, 0)
    if d % p:
        fr = Fraction(c, d)
        prec = K + (ord_p(fr, p) if c else 0)
        inverse = pow(fr.denominator, -1, p**prec)
        same(x.scale_fraction(fr), prec, fr.numerator * a * inverse)
    for j in range(0, 3):
        z = ctx.from_int(a * p**j, K + j)
        same(z.divide_by_p(j), K, a)
    for T in range(0, K + 1):
        same(x.truncate(T), T, a)


@given(
    st.sampled_from((2, 3, 5, 7, 1009)),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=-10**12, max_value=10**12),
            st.one_of(st.just(0), st.integers(min_value=-10**6, max_value=10**6)),
            st.integers(min_value=0, max_value=4),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=-10**4, max_value=10**4).filter(bool),
    st.integers(min_value=0, max_value=3),
)
def test_combine_equals_the_per_term_fold(p, terms, unit, e):
    """combine(coeffs, values, den) has the precision and residue of
    folding x.scale_fraction(Fraction(c, den)) with + over the terms, zero
    coefficients and a den with factors of p included, and raises
    NotPIntegral, with the fold's message, exactly where the fold does."""
    ctx = PrimePowerContext(p)
    values = [ctx.from_int(a, K) for K, a, _, _ in terms]
    coeffs = [c * p**j for _, _, c, j in terms]
    den = unit * p**e
    try:
        acc = None
        for c, x in zip(coeffs, values):
            term = x.scale_fraction(Fraction(c, den))
            acc = term if acc is None else acc + term
    except NotPIntegral as exc:
        with pytest.raises(NotPIntegral) as refused:
            combine(coeffs, values, den)
        assert str(refused.value) == str(exc)
        return
    got = combine(coeffs, values, den)
    assert got.__class__ is TrackedResidue
    assert (got.ctx, got.prec, got.residue) == (acc.ctx, acc.prec, acc.residue)

