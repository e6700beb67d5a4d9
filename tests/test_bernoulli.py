from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from wilsonlab.bernoulli import (
    BernoulliTable,
    DESK_CAP,
    IndexOutOfTable,
    adjusted_bernoulli,
    bar_value,
    bernoulli_polynomial,
    beta_value,
    digit_sum,
    dn_product,
    polynomial_denominators,
    power_sum_polynomial,
    vsc_denominator,
)
from wilsonlab.padic import ord_p


def bernoulli_reference(n: int) -> Fraction:
    """Independent oracle: the double-sum formula over falling samples.

    B_n = sum_k 1/(k+1) * sum_v (-1)^v C(k,v) v^n, which never touches the
    recurrence used by the table builder.
    """
    total = Fraction(0)
    for k in range(n + 1):
        inner = sum((-1) ** v * comb(k, v) * v ** n for v in range(k + 1))
        total += Fraction(inner, k + 1)
    return total


def bernoulli_recurrence(n_max: int) -> list[Fraction]:
    """Second oracle: B_0..B_n_max from sum(C(n+1,k) B_k, k=0..n) = 0 in Fractions.

    Shares no arithmetic with the tangent-number builder, and is fast enough
    to cover every index the workloads build.
    """
    values = [Fraction(1)]
    if n_max >= 1:
        values.append(Fraction(-1, 2))
    for n in range(2, n_max + 1):
        if n % 2:
            values.append(Fraction(0))
            continue
        # odd-index terms vanish except k = 1
        s = Fraction(comb(n + 1, 1), -2)
        for k in range(0, n, 2):
            s += comb(n + 1, k) * values[k]
        values.append(-s / (n + 1))
    return values


def brute_power_sum(n: int, m: int) -> int:
    return sum(a ** n for a in range(1, m))


def test_first_values(small_table):
    assert small_table.bernoulli(0) == 1
    assert small_table.bernoulli(1) == Fraction(-1, 2)
    assert small_table.bernoulli(2) == Fraction(1, 6)
    assert small_table.bernoulli(3) == 0
    assert small_table.bernoulli(4) == Fraction(-1, 30)


@pytest.mark.parametrize("n", list(range(0, 41)))
def test_table_matches_independent_oracle(small_table, n):
    assert small_table.bernoulli(n) == bernoulli_reference(n)


def test_table_matches_recurrence_oracle_to_700():
    """700 covers the largest table any benchmark workload builds (697)."""
    table = BernoulliTable.build(700)
    expected = bernoulli_recurrence(700)
    assert table.max_index == 700
    for n in range(701):
        assert table.bernoulli(n) == expected[n], n
    for n in range(2, 701, 2):
        assert table.bernoulli(n).denominator == vsc_denominator(n), n


def test_table_bounds(small_table):
    with pytest.raises(IndexOutOfTable):
        small_table.bernoulli(61)
    with pytest.raises(IndexOutOfTable):
        BernoulliTable.build(DESK_CAP + 1)


def test_bernoulli_polynomial_basics(small_table):
    assert bernoulli_polynomial(0, small_table).coeffs == (Fraction(1),)
    b1 = bernoulli_polynomial(1, small_table)
    assert b1.coeffs == (Fraction(-1, 2), Fraction(1))
    assert bernoulli_polynomial(6, small_table).coeffs[-1] == 1  # monic
    for n in range(8):
        assert bernoulli_polynomial(n, small_table).degree == n


def test_power_sum_polynomial_examples(small_table):
    s1 = power_sum_polynomial(1, small_table)
    assert s1.coeffs == (Fraction(0), Fraction(-1, 2), Fraction(1, 2))
    assert s1(5) == 10
    s4 = power_sum_polynomial(4, small_table)
    assert s4(5) == 354 == brute_power_sum(4, 5)
    with pytest.raises(ValueError):
        power_sum_polynomial(0, small_table)


@pytest.mark.parametrize("n", list(range(1, 13)))
def test_power_sum_polynomial_is_integer_valued(small_table, n):
    poly = power_sum_polynomial(n, small_table)
    assert poly.degree == n + 1
    assert poly.coeffs[0] == 0
    for m in range(1, 51):
        v = poly(m)
        assert v.denominator == 1
        assert v == brute_power_sum(n, m)


def test_vsc_denominator_examples(small_table):
    assert vsc_denominator(2) == 6
    assert vsc_denominator(4) == 30
    assert vsc_denominator(12) == 2730
    for n in range(2, 61, 2):
        assert small_table.bernoulli(n).denominator == vsc_denominator(n)


def test_digit_sum_and_dn(small_table):
    assert digit_sum(6, 2) == 2
    assert digit_sum(0, 5) == 0
    assert digit_sum(124, 5) == 4 + 4 + 4  # 444 base 5
    assert dn_product(3) == 2
    tilde3 = bernoulli_polynomial(3, small_table).drop_constant()
    assert tilde3.denominator() == 2
    assert dn_product(6) == 2
    assert power_sum_polynomial(5, small_table).denominator() == 6 * dn_product(6)
    assert dn_product(1) == 1
    with pytest.raises(ValueError):
        dn_product(-3)


def test_integer_denominators_match_the_fraction_polynomials():
    """The gcd route gives the denominators of the Fraction polynomials,
    which are D_n and (n+1) D_{n+1}, at every index the 450 table serves."""
    table = BernoulliTable.build(450)
    for n in range(1, 450):
        shifted = bernoulli_polynomial(n, table).drop_constant().denominator()
        power = power_sum_polynomial(n, table).denominator()
        assert polynomial_denominators(n, table) == (shifted, power), n
        assert (shifted, power) == (dn_product(n), (n + 1) * dn_product(n + 1)), n
    with pytest.raises(IndexOutOfTable):
        polynomial_denominators(450, table)
    with pytest.raises(ValueError):
        polynomial_denominators(0, table)


def test_adjusted_bernoulli_examples(small_table):
    assert adjusted_bernoulli(0, 5, small_table) == 0
    assert adjusted_bernoulli(4, 5, small_table) == Fraction(-5, 6)
    assert adjusted_bernoulli(4, 7, small_table) == Fraction(-1, 30)
    with pytest.raises(ValueError):
        adjusted_bernoulli(3, 5, small_table)


@pytest.mark.parametrize(
    "p,expected",
    [(2, Fraction(-1)), (3, Fraction(-1, 4)), (5, Fraction(-5, 24))],
)
def test_bar_value_small_prime_fixed_points(small_table, p, expected):
    assert bar_value(1, p, small_table) == expected


def test_divided_examples(small_table):
    assert beta_value(1 * (7 - 1) - 2, 7, small_table) == Fraction(-1, 120)
    assert beta_value(2, 7, small_table) == Fraction(1, 12)
    assert bar_value(1, 5, small_table) == Fraction(-5, 24)
    assert beta_value(6, 5, small_table) == Fraction(1, 252)
    with pytest.raises(ValueError):
        bar_value(2, 2, small_table)


@given(st.integers(min_value=1, max_value=60), st.sampled_from((2, 3, 5, 7, 11)))
@settings(max_examples=60, deadline=None)
def test_tilde_denominator_is_dn(small_table, n, p):
    """denom of B_n(x) - B_n equals the digit-sum product, and the minimum
    coefficient valuation is -1 exactly when the digit sum reaches p."""
    tilde = bernoulli_polynomial(n, small_table).drop_constant()
    assert tilde.denominator() == dn_product(n)
    o = min(ord_p(c, p) for c in tilde.coeffs if c != 0)
    assert o == (-1 if digit_sum(n, p) >= p else 0)
