from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from wilsonlab import modular
from wilsonlab.bernoulli import (
    BernoulliTable,
    adjusted_bernoulli,
    beta_value,
    power_sum_polynomial,
)
from wilsonlab.modular import (
    HypothesisViolated,
    InadmissibleCase,
    adjusted_bernoulli_mod,
    beta_mod,
    beta_route,
    bundle,
    folklore_bernoulli_mod,
    generalized_kummer_check,
    kummer_check,
    power_sum_mod,
    sh_value,
)
from wilsonlab.padic import NotDivisible, PrimePowerContext, primes_up_to, reduce_rational


def test_power_sum_examples():
    assert power_sum_mod(0, 5, 1).residue == 4
    assert power_sum_mod(4, 5, 4).residue == 354
    assert power_sum_mod(1, 7, 2).residue == 21


@given(
    st.sampled_from((3, 5, 7, 11, 13)),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_power_sum_matches_brute_force(p, n, K):
    got = power_sum_mod(n, p, K)
    assert got.prec == K
    assert got.residue == sum(a ** n for a in range(1, p)) % p ** K


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
def test_power_sum_matches_polynomial(table, p):
    for n in range(1, 51):
        poly_value = power_sum_polynomial(n, table)(p)
        for K in (1, 3, 5):
            assert power_sum_mod(n, p, K).residue == poly_value % p ** K, (n, K)


MEMO_PRIMES = primes_up_to(200) + [1103, 1109]


@lru_cache(maxsize=None)
def _plain_power_sum(n, p, K):
    return sum(pow(a, n, p ** K) for a in range(1, p)) % p ** K


def _memo_exponents(p):
    """0, small n, and d(p-1), d(p-1) - 2 for d = 1..6."""
    ns = set(range(8))
    for d in range(1, 7):
        ns |= {d * (p - 1), d * (p - 1) - 2}
    return sorted(n for n in ns if n >= 0)


def _requests(p, precisions):
    return [(n, p, K) for K in precisions for n in _memo_exponents(p)]


def _shape(n, p):
    """(d, j) with n = d(p-1) + j and -(p-1) < j <= 0."""
    d = -(-n // (p - 1))
    return d, n - d * (p - 1)


def _kind(n, p):
    """How the memo makes a miss in these request orders: a step from the
    list one column entry below when d >= 2, a sieve pass when d = 1."""
    return "step" if _shape(n, p)[0] >= 2 else "sieve"


@pytest.mark.parametrize("order", ["rising", "falling", "interleaved"])
def test_power_sum_memo_matches_plain_loop(power_sum_runs, order):
    if order == "interleaved":  # every request but a list's tail switches prime
        per_prime = [_requests(p, range(1, 9)) for p in MEMO_PRIMES]
        requests = [t for t in chain(*zip_longest(*per_prime)) if t is not None]
    else:
        precisions = range(1, 9) if order == "rising" else range(8, 0, -1)
        requests = [t for p in MEMO_PRIMES for t in _requests(p, precisions)]
    for n, p, K in requests:
        got = power_sum_mod(n, p, K)
        assert (got.prec, got.residue) == (K, _plain_power_sum(n, p, K)), (n, p, K)
    computed = [(n, p, K) for n, p, K in requests if n > 0]
    if order == "rising":
        # a sum whose shape the previous prime asked is computed once, at
        # its first request and the previous prime's K = 8; the rest rise.
        # Each index is asked after the one p - 1 below it, at the same K
        # or the same plan, so every sum past d = 1 is a step
        asked = {p: {_shape(n, p) for n in _memo_exponents(p) if n > 0} for p in MEMO_PRIMES}
        planned = {(n, p) for prev, p in zip(MEMO_PRIMES, MEMO_PRIMES[1:])
                   for n in _memo_exponents(p) if n > 0 and _shape(n, p) in asked[prev]}
        assert power_sum_runs == [(_kind(n, p), n, p, p ** (8 if (n, p) in planned else K))
                                  for n, p, K in computed if (n, p) not in planned or K == 1]
        assert sum(kind == "step" for kind, *_ in power_sum_runs) == 589
        # that is every d(p-1) and d(p-1) - 2 of a bundle from p = 7 on; the
        # small n keep their shape only across a prime gap smaller than n
        assert {(d * (p - 1) - j, p) for p in MEMO_PRIMES[3:]
                for d in range(1, 7) for j in (0, 2)} <= planned
    if order == "falling":  # once per (p, n), at K = 8; the rest are reductions
        assert power_sum_runs == [(_kind(n, p), n, p, p ** 8)
                                  for n, p, K in computed if K == 8]
        assert sum(kind == "step" for kind, *_ in power_sum_runs) == 477
    if order == "interleaved":  # a new memo per request: nothing to step from
        assert {kind for kind, *_ in power_sum_runs} == {"sieve"}


def test_power_sum_plan_is_one_prime_deep(power_sum_runs):
    """A prime's misses take the precisions the previous prime asked, and
    only those: K = 8 at p1 plans p2's sum at p2^8, but p2 asked K = 2
    alone, so p3 computes at p3^2. No prime holds S_{p-1}, so each is a
    sieve pass."""
    for p, K in ((1103, 8), (1109, 2), (1117, 2)):
        got = power_sum_mod(2 * (p - 1), p, K)
        assert (got.prec, got.residue) == (K, _plain_power_sum(2 * (p - 1), p, K))
    assert power_sum_runs == [("sieve", 2 * 1102, 1103, 1103 ** 8),
                              ("sieve", 2 * 1108, 1109, 1109 ** 8),
                              ("sieve", 2 * 1116, 1117, 1117 ** 2)]
    # a planned miss holds the sum at the plan's precision, and returns it mod p^K
    memo = modular._PowerSumMemo(1109, {(2, 0): 8})
    assert memo.get(2 * 1108, 2) == _plain_power_sum(2 * 1108, 1109, 2)
    assert memo.sums[2 * 1108][0] == 8


STEP_PRIMES = (2, 3, 5, 7, 11, 13)

# runs of requests at one prime: a switch of prime starts a new memo with
# the previous one's plan, and steps happen only within a run. A request
# walks one column j: it names -j (the bundle's 0 and 2, or any other,
# reduced mod p - 1) and a move of d from the column's last request, mostly
# +1 so that the memo can step, or a jump (folklore's m = 398 at p = 7 is
# d = 67); d starts at 0 and stays >= 1
_step_requests = st.lists(
    st.tuples(
        st.sampled_from(STEP_PRIMES),
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from((0, 2)), st.integers(1, 11)),
                st.one_of(st.just(1), st.integers(-3, 66)),
                st.integers(1, 8),
            ),
            min_size=1,
            max_size=16,
        ),
    ),
    min_size=1,
    max_size=4,
)


def test_power_sum_steps_match_plain_loop(power_sum_runs):
    """Any request sequence, over prime switches, rises and falls of K,
    sparse d and columns j other than 0 and -2, gives the plain loop's
    value, whether the memo steps or sieves."""

    @given(_step_requests)
    @settings(max_examples=300, deadline=None)
    def check(requests):
        modular._memo = modular._PowerSumMemo(0)
        for p, run in requests:
            last_d = {}
            for minus_j, move, K in run:
                j = -(minus_j % (p - 1))
                d = last_d[j] = max(1, last_d.get(j, 0) + move)
                n = d * (p - 1) + j
                got = power_sum_mod(n, p, K)
                assert (got.prec, got.residue) == (K, _plain_power_sum(n, p, K)), (n, p, K)

    check()
    assert {kind for kind, *_ in power_sum_runs} == {"sieve", "step"}


def test_sh_value_examples():
    v = sh_value(4, 5, 2)
    assert (v.residue, v.prec) == (20, 2)
    # exponent not a multiple of p-1: the defining division must fail
    with pytest.raises(NotDivisible):
        sh_value(3, 7, 2)


@pytest.mark.parametrize("p", (5, 7, 11))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_sh_value_brute_force(p, d):
    n = d * (p - 1)
    s = sum(a ** n for a in range(1, p))
    want = (s - (p - 1)) // p
    got = sh_value(n, p, 3)
    assert got.residue == want % p ** 3


def test_folklore_fixed_points(table):
    assert folklore_bernoulli_mod(4, 7, 2).residue == 31
    b10 = folklore_bernoulli_mod(10, 7, 1)
    assert b10.residue == reduce_rational(
        Fraction(5, 66), PrimePowerContext(7), 1
    ).residue
    with pytest.raises(InadmissibleCase):
        folklore_bernoulli_mod(4, 5, 1)  # (p-1) | m
    with pytest.raises(InadmissibleCase):
        folklore_bernoulli_mod(8, 5, 2)  # K = 2 needs p >= 7
    with pytest.raises(InadmissibleCase):
        folklore_bernoulli_mod(14, 13, 2)  # (p-1) | m-2


def test_folklore_agrees_with_oracle_dense(table):
    """The strengthened K = 2 route is trusted only because of this sweep."""
    for p in primes_up_to(31):
        if p < 5:
            continue
        for m in range(4, 101, 2):
            if m % (p - 1) == 0:
                continue
            ctx = PrimePowerContext(p)
            assert folklore_bernoulli_mod(m, p, 1).residue == reduce_rational(
                table.bernoulli(m), ctx, 1
            ).residue
            if p >= 7 and (m - 2) % (p - 1) != 0:
                assert folklore_bernoulli_mod(m, p, 2).residue == reduce_rational(
                    table.bernoulli(m), ctx, 2
                ).residue


def test_adjusted_mod_fixed_points():
    assert adjusted_bernoulli_mod(1, 5, 2).residue == 20
    assert adjusted_bernoulli_mod(1, 5, 1).residue == sh_value(4, 5, 1).residue


def test_adjusted_mod_gates():
    with pytest.raises(InadmissibleCase):
        adjusted_bernoulli_mod(1, 5, 4)  # r = 4 needs p >= 7
    with pytest.raises(InadmissibleCase):
        adjusted_bernoulli_mod(1, 7, 7)
    with pytest.raises(InadmissibleCase):
        adjusted_bernoulli_mod(1, 7, 5)  # r = 5 needs exact correction inputs


@pytest.mark.parametrize("p", (5, 7, 11, 13, 17))
@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_adjusted_mod_agrees_with_oracle(table, p, d):
    exact = adjusted_bernoulli(d * (p - 1), p, table)
    for r in range(1, 7):
        try:
            got = adjusted_bernoulli_mod(d, p, r, table)
        except InadmissibleCase:
            continue
        ctx = PrimePowerContext(p)
        assert got.residue == reduce_rational(exact, ctx, r).residue, (p, d, r)


def test_adjusted_mod_delta_zero_case(table):
    """d = 1 mod p with d >= 2 weakens the admissible range by one power."""
    p, d = 5, 6
    exact = adjusted_bernoulli(d * (p - 1), p, table)
    for r in (1, 2):
        got = adjusted_bernoulli_mod(d, p, r)
        assert got.residue == reduce_rational(exact, PrimePowerContext(p), r).residue
    with pytest.raises(InadmissibleCase):
        adjusted_bernoulli_mod(d, p, 3)  # delta = 0: p >= r+3 fails


@pytest.mark.parametrize("p", (7, 11, 13))
def test_beta_mod_routes(table, p):
    ctx2 = PrimePowerContext(p)
    for m in (p - 3, 2 * p - 4, p - 1, 2 * (p - 1), 4 * (p - 1)):
        got = beta_mod(m, p, 2)
        want = reduce_rational(beta_value(m, p, table), ctx2, 2)
        assert got.residue == want.residue, m


def test_beta_mod_p_divides_index(table):
    # index 2p(p-1)/2... pick m = p(p-1): burning one precision unit works at K=1
    p = 7
    m = p * (p - 1)
    got = beta_mod(m, p, 1)
    want = reduce_rational(beta_value(m, p, table), PrimePowerContext(p), 1)
    assert got.residue == want.residue


def test_beta_route_engines_agree(table):
    """Wherever beta_mod admits (m, K), the exact and modular routes give
    the same residue."""
    compared = 0
    for p in primes_up_to(47):
        if p < 5:
            continue
        exact, modular = beta_route("exact", p, table), beta_route("modular", p)
        for m in range(2, min(401, 4 * (p - 1)) + 1, 2):
            for K in (1, 2, 3, 4):
                try:
                    want = modular(m, K)
                except InadmissibleCase:
                    continue
                assert exact(m, K).residue == want.residue, (p, m, K)
                compared += 1
    assert compared > 1000


def test_beta_route_refusals(table):
    with pytest.raises(ValueError, match="unknown engine"):
        beta_route("oracle", 7, table)
    with pytest.raises(ValueError, match="needs a Bernoulli table"):
        beta_route("exact", 7)
    assert beta_route("exact", 2, table)(1, 1).residue == 1  # bar value -1 at p = 2


def _count_oracle_values(monkeypatch):
    """Record (m, p) for every rational that the exact route computes."""
    calls = []

    def counted(n, p, table):
        calls.append((n, p))
        return beta_value(n, p, table)

    monkeypatch.setattr(modular, "beta_value", counted)
    return calls


def test_exact_route_memo_lives_on_its_table(monkeypatch):
    """The exact route computes a rational once per (p, m) and precision
    rise, keeps one residue per (p, m) on the table it reads, and answers a
    second route on that table from it; another table starts empty."""
    calls = _count_oracle_values(monkeypatch)
    first, second = BernoulliTable.build(48), BernoulliTable.build(48)
    ms = range(2, 4 * 12 + 1, 2)
    asks = [(m, K) for m in ms for K in (1, 4, 2, 0)]  # a rise, then two hits

    got = [beta_route("exact", 13, first)(m, K) for m, K in asks]
    assert calls == [(m, 13) for m in ms for _ in range(2)]
    assert set(first.reduced) == {(13, m) for m in ms}
    assert all(v.prec == 4 for v in first.reduced.values())

    calls.clear()
    assert [beta_route("exact", 13, first)(m, K) for m, K in asks] == got
    assert calls == []

    assert second.reduced == {}
    assert [beta_route("exact", 13, second)(m, K) for m, K in asks] == got
    assert calls == [(m, 13) for m in ms for _ in range(2)]
    assert first.reduced is not second.reduced
    assert all(second.reduced[k] is not v for k, v in first.reduced.items())


def test_exact_route_memo_matches_the_uncached_oracle():
    """At every even m <= 4(p-1) and K <= 4 for 5 <= p <= 113, asked in an
    order that rises, truncates and hits, the memo gives what reducing the
    oracle's rational gives."""
    table = BernoulliTable.build(4 * 112)
    for p in primes_up_to(113)[2:]:
        route, ctx = beta_route("exact", p, table), PrimePowerContext(p)
        for m in range(2, 4 * (p - 1) + 1, 2):
            value = beta_value(m, p, table)
            for K in (2, 0, 4, 1, 3, 4):
                assert route(m, K) == reduce_rational(value, ctx, K), (p, m, K)


def test_bundle_fixed_points(table):
    b7 = bundle(7, 4, "modular")
    assert b7.bar2(1).residue % 49 == 20
    b7e = bundle(7, 4, "exact", table)
    for d in (1, 2, 3, 4):
        assert b7.bar(d).residue == b7e.bar(d).residue
    for d in (1, 2):
        assert b7.bar2(d).truncate(2).residue == b7e.bar2(d).truncate(2).residue
    b5 = bundle(5, 3, "exact", table)
    assert b5.bar(1).residue == reduce_rational(
        Fraction(-5, 24), PrimePowerContext(5), 3
    ).residue


@pytest.mark.parametrize("p", (5, 7, 11, 13, 1009))
def test_bundle_precisions_are_the_same_on_both_engines(small_table, p):
    """Wherever bundle admits (p, r): every bar mod p^r and every bar2 mod
    p^(r-2), on each engine, and the engines' residues agree."""
    engines = ("modular",) if p == 1009 else ("exact", "modular")
    built = 0
    for r in (1, 2, 3, 4):
        bundles = []
        for eng in engines:
            try:
                bundles.append(bundle(p, r, eng, small_table))
            except InadmissibleCase:
                continue
        for b in bundles:
            assert [v.prec for v in b.bars] == [r] * r
            assert [v.prec for v in b.bars2] == [r - 2] * max(r - 2, 0)
        residues = {tuple(v.residue for v in b.bars + b.bars2) for b in bundles}
        assert len(residues) <= 1, (p, r)
        built += len(bundles)
    assert built == {5: 7, 1009: 4}.get(p, 8)


def test_bundle_gates():
    with pytest.raises(InadmissibleCase):
        bundle(5, 4, "modular")
    with pytest.raises(InadmissibleCase):
        bundle(3, 2, "modular")
    with pytest.raises(InadmissibleCase):
        bundle(2, 2, "exact", None)


@pytest.mark.parametrize("p", (7, 11, 13, 23))
def test_bundle_kummer_chain(p):
    b = bundle(p, 4, "modular")
    first = b.bars[0].truncate(1).residue
    assert all(v.truncate(1).residue == first for v in b.bars)
    f2 = b.bars2[0].truncate(1).residue
    assert all(v.truncate(1).residue == f2 for v in b.bars2)


def test_kummer_examples(table):
    assert kummer_check(2, 6, 5, table).passed
    assert kummer_check(6, 6, 5, table).passed
    with pytest.raises(HypothesisViolated):
        kummer_check(4, 8, 5, table)


def test_kummer_sweep(table):
    for p in (5, 7, 11, 13):
        for n in range(2, p - 3 + 1, 2):
            assert kummer_check(n, n + (p - 1), p, table).passed


def test_generalized_kummer_examples(table):
    # second difference at 6, 10, 14 for p = 5 has valuation exactly 2
    assert (
        beta_value(6, 5, table)
        - 2 * beta_value(10, 5, table)
        + beta_value(14, 5, table)
        == Fraction(50, 693)
    )
    assert generalized_kummer_check(6, 5, 2, table).passed
    assert generalized_kummer_check(4, 5, 1, table).passed
    assert generalized_kummer_check(6, 5, 0, table).passed
    with pytest.raises(HypothesisViolated):
        generalized_kummer_check(2, 5, 2, table)  # n > r fails
    with pytest.raises(HypothesisViolated):
        generalized_kummer_check(4 * 4, 5, 2, table)  # p > r + n/(p-1) fails


@pytest.mark.parametrize("p", (7, 11, 13, 19))
@pytest.mark.parametrize("r", (1, 2, 3, 4))
def test_generalized_kummer_box(table, p, r):
    for n in (r + 2 - r % 2, p - 1, 2 * (p - 1)):
        n += n % 2
        cond1 = n % (p - 1) != 0 and n > r
        cond2 = n % (p - 1) == 0 and p > r + n // (p - 1)
        if not (cond1 or cond2) or n + r * (p - 1) > table.max_index:
            continue
        assert generalized_kummer_check(n, p, r, table).passed, (p, r, n)


@pytest.mark.parametrize("p", (7, 11, 13))
def test_generalized_kummer_modular_matches_exact(table, p):
    for r in (1, 2, 3, 4):
        for d in (1, 2):
            if p <= r + d:
                continue
            n = d * (p - 1)
            a = generalized_kummer_check(n, p, r, table, "exact")
            b = generalized_kummer_check(n, p, r, None, "modular")
            assert a.passed and b.passed
