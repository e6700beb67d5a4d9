from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from wilsonlab import quotients
from wilsonlab.modular import HypothesisViolated
from wilsonlab.padic import PrimePowerContext, primes_up_to, work
from wilsonlab.quotients import (
    NotCoprime,
    factorial_mod,
    factorials_mod,
    fermat_quotient,
    q_sum,
    wilson_quotient,
    wilson_via_psi,
)

ODD_PRIMES_TO_100 = [p for p in primes_up_to(100) if p > 2]


def test_factorial_examples():
    assert factorial_mod(5, 3).residue == 24
    assert factorial_mod(7, 1).residue == 6
    import math

    assert factorial_mod(13, 2).residue == math.factorial(12) % 169


def test_chunked_factorial_matches_factorial():
    """The primes to 2000 cross the chunk boundaries of factorial_mod's
    products, at every precision K = 1..5."""
    for p in primes_up_to(2000):
        f = factorial(p - 1)
        for K in range(1, 6):
            got = factorial_mod(p, K)
            assert (got.prec, got.residue) == (K, f % p**K), (p, K)


def test_factorial_memo_equals_the_fresh_product(monkeypatch):
    """factorial_mod holds one prime's product at the highest K asked: a K
    at or below it makes no product, a higher K or another prime makes one,
    and every value is (p-1)! mod p^K, K rising, falling and across primes."""
    products = []
    real = quotients.prod

    def counted(factors):
        products.append(factors)
        return real(factors)

    work.cache_clear()
    monkeypatch.setattr(quotients, "prod", counted)
    made = []
    for p, K in [(1103, 5), (1103, 4), (1103, 1), (1103, 5), (1103, 6), (1103, 2),
                 (101, 2), (101, 5), (101, 3), (1103, 3), (1103, 3)]:
        before = len(products)
        got = factorial_mod(p, K)
        assert (got.prec, got.residue) == (K, factorial(p - 1) % p**K), (p, K)
        made.append(len(products) > before)
    assert made == [True, False, False, False, True, False,
                    True, True, False, True, False]
    assert work(1103).factorial[0] == 3


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_remainder_tree_matches_factorial_oracle(K):
    primes = primes_up_to(2000)
    f = factorials_mod(primes, K)
    assert list(f) == primes
    assert all(f[p] == factorial_mod(p, K).residue for p in primes)


def test_remainder_tree_edge_cases():
    assert factorials_mod([], 2) == {}
    assert factorials_mod([2], 3) == {2: 1}
    assert factorials_mod([2, 3], 2) == {2: 1, 3: 2}
    assert factorials_mod([10007], 2) == {10007: factorial_mod(10007, 2).residue}
    sparse = [3, 101, 9973]
    assert factorials_mod(sparse, 3) == {p: factorial_mod(p, 3).residue for p in sparse}
    with pytest.raises(ValueError):
        factorials_mod([3, 2], 2)
    with pytest.raises(ValueError):
        factorials_mod([5, 5], 2)
    with pytest.raises(ValueError):
        factorials_mod([5], 0)


def test_wilson_quotient_examples():
    assert wilson_quotient(5, 1).residue == 0
    assert wilson_quotient(5, 2).residue == 5
    assert wilson_quotient(2, 1).residue == 1
    assert wilson_quotient(3, 1).residue == 1
    assert wilson_quotient(13, 1).residue == 0  # Wilson prime
    assert wilson_quotient(7, 4).residue == 103


def test_fermat_quotient_examples():
    assert fermat_quotient(2, 5, 2).residue == 3
    assert fermat_quotient(1, 11, 3).residue == 0
    assert fermat_quotient(3, 5, 1).residue == 16 % 5
    with pytest.raises(NotCoprime):
        fermat_quotient(10, 5, 1)


def brute_q_sum(p: int, n: int) -> int:
    return sum(((a ** (p - 1) - 1) // p) ** n for a in range(1, p))


def test_q_sum_examples():
    assert brute_q_sum(5, 1) == 70
    assert q_sum(5, 1, 3).residue == 70
    assert q_sum(5, 1, 3, "difference").residue == 70
    assert q_sum(3, 1, 1).residue == 1
    assert q_sum(5, 2, 4).residue == 2866 % 5 ** 4
    with pytest.raises(ValueError):
        q_sum(5, 1, 1, "telepathy")


@given(
    st.sampled_from((3, 5, 7, 11, 13)),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50, deadline=None)
def test_q_sum_methods_agree_and_match_brute_force(p, n, r):
    direct = q_sum(p, n, r, "direct")
    diff = q_sum(p, n, r, "difference")
    assert direct.residue == diff.residue == brute_q_sum(p, n) % p ** r
    assert direct.prec == diff.prec == r


def test_q_sum_both_methods_sweep_to_500():
    for p in primes_up_to(500):
        if p == 2:
            continue
        for n in (1, 2, 3, 4):
            for r in (1, 4):
                assert (
                    q_sum(p, n, r, "direct").residue
                    == q_sum(p, n, r, "difference").residue
                ), (p, n, r)


def test_sieved_fermat_quotients_match_pow():
    """The linear sieve gives (pow(a, p-1, p^(R+1)) - 1) // p, which is
    that quotient at R = 5 reduced mod p^R."""
    for p in primes_up_to(3000):
        top = [(pow(a, p - 1, p**6) - 1) // p for a in range(1, p)]
        for R in range(1, 6):
            want = [q % p**R for q in top]
            assert quotients._fermat_quotients(p, R) == want, (p, R)


MEMO_PRIMES = primes_up_to(200) + [1103, 1109]


@lru_cache(maxsize=None)
def _plain_q_sum(p, n, r):
    m = p ** r
    return sum(pow((pow(a, p - 1, p ** (r + 1)) - 1) // p, n, m) for a in range(1, p)) % m


def _q_requests(p, precisions):
    return [(p, n, r) for r in precisions for n in range(1, 7)]


@pytest.mark.parametrize("order", ["rising", "falling", "interleaved"])
def test_quotient_memo_matches_plain_loop(monkeypatch, order):
    work.cache_clear()
    real = quotients._fermat_quotients
    loops = []

    def counted(p, R):
        loops.append((p, R))
        return real(p, R)

    monkeypatch.setattr(quotients, "_fermat_quotients", counted)
    if order == "interleaved":  # every request but a list's tail switches prime
        per_prime = [_q_requests(p, range(1, 7)) for p in MEMO_PRIMES]
        requests = [t for t in chain(*zip_longest(*per_prime)) if t is not None]
    else:
        precisions = range(1, 7) if order == "rising" else range(6, 0, -1)
        requests = [t for p in MEMO_PRIMES for t in _q_requests(p, precisions)]
    for p, n, r in requests:
        got = q_sum(p, n, r)
        assert (got.prec, got.residue) == (r, _plain_q_sum(p, n, r)), (p, n, r)
    if order == "rising":  # each higher precision recomputes the quotients
        assert loops == [(p, r) for p in MEMO_PRIMES for r in range(1, 7)]
    if order == "falling":  # once per prime, at r = 6; the rest are reductions
        assert loops == [(p, 6) for p in MEMO_PRIMES]


def test_quotient_memo_steps_a_series_and_pows_a_lone_sum(monkeypatch):
    """A miss at n <= r steps the held powers up to q^n mod p^R, one
    product per a and step with no pow past the sieve's, and keeps every
    sum on the way: the Q-tiers' n = 1..4 take one step each, lemma 2.6's
    n = 4, 3, 2, 1 and the Wilson series' Q_p(1..r) one pass. The list goes
    once k = R. A miss at n > r takes one pow(q, n, p^r) per a and holds
    nothing else."""
    p = 101
    pows, steps = [], []

    def counted_pow(*args):
        if len(args) == 3 and args[1] not in (-1, p - 1):  # not the sieve's
            pows.append(args[1])
        return pow(*args)

    def counted_zip(*args):  # a step is the one zip of the memo
        steps.append(1)
        return zip(*args)

    def held():
        return {n: r for n, (r, _) in work(p).quotients.sums.items()}

    monkeypatch.setattr(quotients, "pow", counted_pow, raising=False)
    monkeypatch.setattr(quotients, "zip", counted_zip, raising=False)
    for order in ((1, 2, 3, 4), (4, 3, 2, 1)):
        work.cache_clear()
        steps.clear()
        for n in order:
            assert q_sum(p, n, 4).residue == _plain_q_sum(p, n, 4), (order, n)
            if order[0] == 1:
                assert (work(p).quotients.powers[0], len(steps)) == (n, n - 1)
        assert len(steps) == 3 and work(p).quotients.powers == (4, None)
        assert held() == dict.fromkeys(range(1, 5), 4)
    q_sum(p, 6, 6)  # a new R: the steps start again from q^1
    q_sum(p, 3, 2)  # held finer: a reduction
    assert len(steps) == 8 and held() == dict.fromkeys(range(1, 7), 6)
    assert pows == []

    work.cache_clear()
    steps.clear()
    got = q_sum(p, 60, 9)
    assert (got.prec, got.residue) == (9, _plain_q_sum(p, 60, 9))
    assert (pows, steps, held()) == ([60] * (p - 1), [], {60: 9})

    pows.clear()
    work.cache_clear()
    assert wilson_via_psi(p, 12) == wilson_quotient(p, 12)
    assert (pows, len(steps), held()) == ([], 11, dict.fromkeys(range(1, 13), 12))


@pytest.mark.parametrize("R", (4, 40))
def test_quotient_powers_are_reduced_by_size(R):
    """The steps of q_sum(101, n, R), n = 1..R, leave their products
    unreduced while the list's bits plus those of p^R fit in
    _UNREDUCED_BITS: at R = 4 the powers are held unreduced up to q^R, at
    R = 40 (p^40 alone is past 256 bits) every step reduces. Either way
    every list held has entries below max(p^R, 2^_UNREDUCED_BITS), within
    its bits, and every sum is the plain loop's."""
    p, cap = 101, 2**quotients._UNREDUCED_BITS
    work.cache_clear()
    unreduced = []
    for n in range(1, R + 1):
        assert q_sum(p, n, R).residue == _plain_q_sum(p, n, R), (R, n)
        k, pw = work(p).quotients.powers
        if pw is not None:
            assert k == n
            assert all(0 <= x < max(p**R, cap) for x in pw)
            assert max(pw).bit_length() <= work(p).quotients.bits
            unreduced.append(max(pw) >= p**R)
    assert unreduced == [n > 1 and R == 4 for n in range(1, R)]


# the expansion polynomials Psi_1..Psi_4, typed by hand as plain expressions:
# the reference that the log/exp series of wilson_via_psi is checked against
_PSI_BY_HAND = {
    1: lambda x1: x1,
    2: lambda x1, x2: 2 * x1 - x1**2 - x2,
    3: lambda x1, x2, x3: 6 * x1 - 6 * x1**2 + x1**3 + 3 * x1 * x2 - 3 * x2 + 2 * x3,
    4: lambda x1, x2, x3, x4: 24 * x1 - 36 * x1**2 + 12 * x1**3 - x1**4
    - 6 * x1**2 * x2 + 24 * x1 * x2 - 8 * x1 * x3 - 12 * x2 - 3 * x2**2
    + 8 * x3 - 6 * x4,
}


@given(
    st.sampled_from((5, 7, 11, 1009)),
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=10**13), min_size=4, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_psi_series_matches_hand_entered_rows(p, r, qs):
    """For any values of Q_p(1..4), the series equals
    sum_nu p^(nu-1)/nu! Psi_nu(Q_p(1..nu)) mod p^r."""

    def fake_q_sum(p_, n, r_):
        assert (p_, r_) == (p, r)
        return PrimePowerContext(p).from_int(qs[n - 1], r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quotients, "q_sum", fake_q_sum)
        got = wilson_via_psi(p, r)
    want = sum(
        Fraction(p ** (nu - 1), factorial(nu)) * _PSI_BY_HAND[nu](*qs[:nu])
        for nu in range(1, r + 1)
    )
    m = p**r
    assert (got.prec, got.residue) == (r, want.numerator * pow(want.denominator, -1, m) % m)


def test_wilson_via_psi_examples():
    assert wilson_via_psi(5, 1).residue == wilson_quotient(5, 1).residue
    assert wilson_via_psi(7, 4).residue == wilson_quotient(7, 4).residue
    with pytest.raises(HypothesisViolated):
        wilson_via_psi(3, 4)
    assert wilson_via_psi(7, 5).residue == wilson_quotient(7, 5).residue
    with pytest.raises(HypothesisViolated):
        wilson_via_psi(2, 1)


@pytest.mark.parametrize("p", (11, 13, 101, 1009))
def test_psi_series_past_the_paper_tiers(p):
    """The series has no cap on r: it equals the factorial oracle mod p^5
    to p^8."""
    for r in (5, 6, 7, 8):
        assert wilson_via_psi(p, r).residue == wilson_quotient(p, r).residue, r


@pytest.mark.parametrize("p", ODD_PRIMES_TO_100 + [1009, 10007])
def test_psi_route_agrees_with_factorial_oracle(p):
    for r in (1, 2, 3, 4):
        if p <= r:
            continue
        assert wilson_via_psi(p, r).residue == wilson_quotient(p, r).residue


def test_lerch_congruence_sweep():
    for p in primes_up_to(2000):
        if p == 2:
            continue
        assert wilson_quotient(p, 1).residue == q_sum(p, 1, 1).residue, p
