import ast
from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wilsonlab import modular, quotients
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
    generalized_kummer_difference,
    kummer_pair,
    power_sum_mod,
    sh_value,
)
from wilsonlab.padic import (
    NotDivisible, NotPrime, PrimePowerContext, primes_up_to, reduce_rational, work,
)
from wilsonlab.quotients import factorial_mod, q_sum
from wilsonlab.registry import REGISTRY, RunEnv, execute_check


def test_power_sum_examples():
    assert power_sum_mod(0, 5, 1).residue == 4
    assert power_sum_mod(4, 5, 4).residue == 354
    assert power_sum_mod(1, 7, 2).residue == 21


def test_the_power_sums_of_one_prime_share_one_context(monkeypatch):
    """A context is made when the prime changes, n = 0 included, and is
    shared by every sum of that prime, and by the quotient sums and the
    factorial. padic.work(p) holds the three memos as distinct objects; a
    call at another prime by any one kernel drops all three, and a prime
    that is not one is refused before the slot moves."""
    made = []
    check = PrimePowerContext.__post_init__

    def counted(ctx):  # a context that is made, not one refused
        check(ctx)
        made.append(ctx.p)

    monkeypatch.setattr(PrimePowerContext, "__post_init__", counted)
    for kernel in (lambda p: power_sum_mod(0, p, 2), lambda p: q_sum(p, 1, 1, "direct"),
                   lambda p: factorial_mod(p, 1)):
        work.cache_clear()
        made.clear()
        sums = [power_sum_mod(n, 13, K) for n in (12, 0, 24, 10, 12) for K in (1, 3)]
        assert made == [13]
        assert all(s.ctx is sums[0].ctx for s in sums)
        assert [s.residue for s in sums] == [sum(a ** n for a in range(1, 13)) % 13 ** K
                                             if n else 12 % 13 ** K
                                             for n in (12, 0, 24, 10, 12) for K in (1, 3)]
        held = work(13)
        residues = sums + [q_sum(13, 2, 3, "direct"), factorial_mod(13, 2)]
        assert made == [13] and all(x.ctx is held.ctx for x in residues)
        assert isinstance(held.power_sums, modular._PowerSumMemo)
        assert isinstance(held.quotients, quotients._QuotientMemo)
        assert held.factorial == (2, 479001600 % 13**2)
        other = kernel(17)
        assert made == [13, 17] and other.ctx.p == 17 and work(17).ctx is other.ctx
        assert power_sum_mod(4, 13, 2).ctx.p == 13 and made == [13, 17, 13]
        fresh = work(13)
        assert fresh is not held and fresh.power_sums is not held.power_sums
        assert (fresh.quotients, fresh.factorial) == (None, None)
        for refused in (lambda: power_sum_mod(4, 15, 2), lambda: factorial_mod(15, 1),
                        lambda: work(15)):
            with pytest.raises(NotPrime):
                refused()
        assert work(13) is fresh and made == [13, 17, 13]


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


def _kind(n, p):
    """How the memo makes a miss in these request orders: a step from the
    list one column entry below when n > p - 1, a sieve pass when not."""
    return "step" if n > p - 1 else "sieve"


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
        # every request rises, so each is computed at its own K, whatever
        # an earlier prime asked; each index is asked after the one p - 1
        # below it at the same K, so every sum past d = 1 is a step
        assert power_sum_runs == [(_kind(n, p), n, p, p ** K) for n, p, K in computed]
        assert sum(kind == "step" for kind, *_ in power_sum_runs) == 8 * 477
    if order == "falling":  # once per (p, n), at K = 8; the rest are reductions
        assert power_sum_runs == [(_kind(n, p), n, p, p ** 8)
                                  for n, p, K in computed if K == 8]
        assert sum(kind == "step" for kind, *_ in power_sum_runs) == 477
    if order == "interleaved":  # a new memo per request: nothing to step from
        assert {kind for kind, *_ in power_sum_runs} == {"sieve"}


def test_a_new_prime_starts_from_an_empty_memo(power_sum_runs):
    """Nothing a prime asked moves the work of the next one: after S_{2(p-1)}
    at 1103^8, the sum of the same index shape at 1109 and K = 2 is sieved
    at 1109^2 and held at 2."""
    for p, K in ((1103, 8), (1109, 2)):
        got = power_sum_mod(2 * (p - 1), p, K)
        assert (got.prec, got.residue) == (K, _plain_power_sum(2 * (p - 1), p, K))
    assert power_sum_runs == [("sieve", 2 * 1102, 1103, 1103 ** 8),
                              ("sieve", 2 * 1108, 1109, 1109 ** 2)]
    assert work(1109).power_sums.sums[2 * 1108][0] == 2


STEP_PRIMES = (2, 3, 5, 7, 11, 13)

# runs of requests at one prime: a switch of prime starts an empty memo,
# and steps happen only within a run. A request walks one column j: it
# names -j (the bundle's 0 and 2, or any other, reduced mod p - 1) and a
# move of d from the column's last request, mostly +1 so that the memo can
# step, or a jump (folklore's m = 398 at p = 7 is d = 67); d starts at 0
# and stays >= 1
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
        work.cache_clear()
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


def _held_lists(memo):
    """Every power list the memo holds, as (precision, list, bits)."""
    held = [] if memo.t is None else [memo.t]
    return held + [column[1:] for column in memo.columns.values()]


def _bounded(lists, p):
    """Whether every entry of every (precision, list, bits) lies below
    max(p^precision, 2^_UNREDUCED_BITS) and has at most bits bits."""
    cap = 2**modular._UNREDUCED_BITS
    return all(0 <= x < max(p**prec, cap) and x.bit_length() <= bits
               for prec, pw, bits in lists for x in pw)


@pytest.mark.parametrize("finer", [None, "t", "below"])
def test_long_column_reduces_its_lists_by_size(monkeypatch, finer):
    """q_sum(101, 12, 2, "difference") asks S_{d(p-1)} mod p^14 for d = 1..12:
    eleven steps up column 0 from t, the list at d = 1. The column is asked
    once as it stands, once with t held finer (p^20), and once with d <= 3
    held finer (p^16). A step leaves its products unreduced while their
    bound, the list below's bits plus t's, fits in _UNREDUCED_BITS, and
    reduces them mod p^14 past it: every list made or kept has entries below
    max(p^W, 2^_UNREDUCED_BITS), W its own precision, within its bits; some
    are held unreduced and some reduced; t is kept at the one precision it
    was sieved at, and used there; and the value is the plain loop's."""
    p, M = 101, 101**14
    made, kept = [], []
    step = modular._step_powers

    def recorded(n, below, t, m, reduce):
        assert t is work(p).power_sums.t[1], "t is handed as it was sieved"
        kept.extend(_held_lists(work(p).power_sums))
        made.append((n // (p - 1), m))
        return step(n, below, t, m, reduce)

    work.cache_clear()
    if finer == "t":
        modular.power_sum_mod(p - 1, p, 20)
    if finer == "below":
        for d in (1, 2, 3):
            modular.power_sum_mod(d * (p - 1), p, 16)
    monkeypatch.setattr(modular, "_step_powers", recorded)
    qs = [(pow(a, p - 1, p**3) - 1) // p for a in range(1, p)]
    assert q_sum(p, 12, 2, "difference").residue == sum(q**12 for q in qs) % p**2
    kept.extend(_held_lists(work(p).power_sums))
    first = 4 if finer == "below" else 2
    assert made == [(d, M) for d in range(first, 13)]
    assert _bounded(kept, p)
    assert {max(pw) < p**prec for prec, pw, _ in kept} == {True, False}
    assert work(p).power_sums.t[0] == {None: 14, "t": 20, "below": 16}[finer]
    for d in range(1, 13):
        assert power_sum_mod(d * (p - 1), p, 14).residue == _plain_power_sum(d * (p - 1), p, 14)


def test_a_long_column_stays_bounded(monkeypatch):
    """q_sum(1009, 60, 2, "difference") steps column 0 to d = 60 mod p^62.
    p^62 has 619 bits, so the bound of every step, 1238 bits, is past
    _UNREDUCED_BITS and each step reduces: every list made or kept has
    entries below p^62, where a rule with no cap would let them grow with
    d, and the value is the direct method's."""
    p, kept = 1009, []
    step = modular._step_powers

    def recorded(n, below, t, m, reduce):
        kept.extend(_held_lists(work(p).power_sums))
        return step(n, below, t, m, reduce)

    work.cache_clear()
    monkeypatch.setattr(modular, "_step_powers", recorded)
    assert q_sum(p, 60, 2, "difference").residue == q_sum(p, 60, 2, "direct").residue
    kept.extend(_held_lists(work(p).power_sums))
    assert len(kept) > 60 and _bounded(kept, p)
    assert all(x < p**62 for _, pw, _ in kept for x in pw)


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


def test_only_the_exact_route_reduces_an_oracle_rational():
    """Every oracle residue in the package comes from beta_route's exact
    side: reduce_rational is called nowhere else."""
    src = Path(modular.__file__).parent
    callers = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name == "reduce_rational":
                        callers.add((path.stem, getattr(top, "name", None)))
    assert callers == {("modular", "beta_route")}


def test_per_prime_state_has_one_home():
    """A prime's work lives in padic.work's slot alone: no module of the
    package has a global statement, PrimeWork is made in padic.work only,
    and each memo of the slot has one owner: modular reads and writes
    power_sums, quotients the quotients and the factorial."""
    src = Path(modular.__file__).parent
    globals_, makers, owners = [], set(), {}
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if getattr(top, "name", None) == "PrimeWork":  # the slot's own class
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Global):
                    globals_.append((path.stem, node.names))
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "PrimeWork":
                    makers.add((path.stem, getattr(top, "name", None)))
                elif isinstance(node, ast.Attribute) and node.attr in (
                        "power_sums", "quotients", "factorial"):
                    owners.setdefault(node.attr, set()).add(path.stem)
    assert globals_ == []
    assert makers == {("padic", "work")}
    assert owners == {"power_sums": {"modular"}, "quotients": {"quotients"},
                      "factorial": {"quotients"}}


def test_only_the_registry_makes_rows_and_names_checks():
    """modular and congruences import nothing from result; only registry
    builds a row (CongruenceCheckResult or one of result's builders), while
    suite and cli read rows; and no check id is a string literal outside
    registry. Within registry, _verdict alone calls CongruenceCheckResult:
    it makes every pass and fail row."""
    src = Path(modular.__file__).parent
    builders = {
        node.name for node in ast.parse((src / "result.py").read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert builders == {"CongruenceCheckResult", "skipped", "error_fail"}
    direct = set()
    for path in sorted(src.glob("*.py")):
        if path.stem == "result":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name == "CongruenceCheckResult":
                        direct.add((path.stem, getattr(top, "name", None)))
    assert direct == {("registry", "_verdict")}
    imports_result, builds, names_checks = set(), set(), set()
    for path in sorted(src.glob("*.py")):
        if path.stem in ("registry", "result"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.module in ("result", "wilsonlab.result")
                or any(a.name == "result" for a in node.names)
            ):
                imports_result.add(path.stem)
            elif isinstance(node, ast.Import) and any(
                a.name == "wilsonlab.result" for a in node.names
            ):
                imports_result.add(path.stem)
            elif isinstance(node, ast.Call):
                f = node.func
                if (isinstance(f, ast.Name) and f.id in builders) or (
                    isinstance(f, ast.Attribute) and f.attr in builders
                    and isinstance(f.value, ast.Name) and f.value.id == "result"
                ):
                    builds.add(path.stem)
            elif isinstance(node, ast.Constant) and node.value in REGISTRY:
                names_checks.add((path.stem, node.value))
    assert not imports_result & {"modular", "congruences"}
    assert builds == set()
    assert names_checks == set()


def test_bundle_fixed_points(table):
    b7 = bundle(7, 4, "modular")
    assert b7[2, 1].residue % 49 == 20
    b7e = bundle(7, 4, "exact", table)
    for d in (1, 2, 3, 4):
        assert b7[0, d].residue == b7e[0, d].residue
    for d in (1, 2):
        assert b7[2, d].truncate(2).residue == b7e[2, d].truncate(2).residue
    b5 = bundle(5, 3, "exact", table)
    assert b5[0, 1].residue == reduce_rational(
        Fraction(-5, 24), PrimePowerContext(5), 3
    ).residue


@pytest.mark.parametrize("p", (5, 7, 11, 13, 1009))
def test_bundle_precisions_are_the_same_on_both_engines(small_table, p):
    """Wherever bundle admits (p, r): the keys (0, d), d <= r, mod p^r and
    then (2, d), d <= r - 2, mod p^(r-2), on each engine, and the engines'
    residues agree."""
    engines = ("modular",) if p == 1009 else ("exact", "modular")
    built = 0
    for r in (1, 2, 3, 4):
        bundles = []
        for eng in engines:
            try:
                bundles.append(bundle(p, r, eng, small_table))
            except InadmissibleCase:
                continue
        want = [((nu, d), r - nu) for nu in (0, 2) for d in range(1, r - nu + 1)]
        for b in bundles:
            assert [(key, v.prec) for key, v in b.items()] == want
        residues = {tuple(v.residue for v in b.values()) for b in bundles}
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
    for nu in (0, 2):
        first = b[nu, 1].truncate(1).residue
        assert all(v.truncate(1).residue == first for (m, _), v in b.items() if m == nu)


def test_bundle_asserts_its_kummer_chains(monkeypatch):
    """A value off its Kummer chain, the value (0, 2) shifted by 1 mod p,
    makes bundle raise, and the bundle_kummer_chain row a fail carrying it."""
    real = modular.beta_mod

    def skewed(m, p, K):
        v = real(m, p, K)
        return v.ctx.from_int(v.residue + 1, v.prec) if m == 2 * (p - 1) else v

    monkeypatch.setattr(modular, "beta_mod", skewed)
    with pytest.raises(AssertionError, match="Kummer chain violated at p=11"):
        bundle(11, 4, "modular")
    row = execute_check("bundle_kummer_chain", 11, RunEnv(engine="modular"))
    assert row.status == "fail"
    assert row.reason.startswith("AssertionError: Kummer chain violated at p=11: ")


def _kummer_holds(n, m, p, table):
    a, b = kummer_pair(n, m, p, table)
    return a.prec == b.prec == 1 and a.residue == b.residue


def test_kummer_examples(table):
    assert _kummer_holds(2, 6, 5, table)
    assert _kummer_holds(6, 6, 5, table)
    with pytest.raises(HypothesisViolated):
        kummer_pair(4, 8, 5, table)


def test_kummer_sweep(table):
    for p in (5, 7, 11, 13):
        for n in range(2, p - 3 + 1, 2):
            assert _kummer_holds(n, n + (p - 1), p, table)


def _vanishes(diff, r):
    """The difference is known mod p^r and is 0 there."""
    return diff.prec == r and diff.residue == 0


def test_generalized_kummer_examples(table):
    # second difference at 6, 10, 14 for p = 5 has valuation exactly 2
    assert (
        beta_value(6, 5, table)
        - 2 * beta_value(10, 5, table)
        + beta_value(14, 5, table)
        == Fraction(50, 693)
    )
    assert _vanishes(generalized_kummer_difference(6, 5, 2, table), 2)
    assert _vanishes(generalized_kummer_difference(4, 5, 1, table), 1)
    assert _vanishes(generalized_kummer_difference(6, 5, 0, table), 0)
    with pytest.raises(HypothesisViolated):
        generalized_kummer_difference(2, 5, 2, table)  # n > r fails
    with pytest.raises(HypothesisViolated):
        generalized_kummer_difference(4 * 4, 5, 2, table)  # p > r + n/(p-1) fails


@pytest.mark.parametrize("p", (7, 11, 13, 19))
@pytest.mark.parametrize("r", (1, 2, 3, 4))
def test_generalized_kummer_box(table, p, r):
    for n in (r + 2 - r % 2, p - 1, 2 * (p - 1)):
        n += n % 2
        cond1 = n % (p - 1) != 0 and n > r
        cond2 = n % (p - 1) == 0 and p > r + n // (p - 1)
        if not (cond1 or cond2) or n + r * (p - 1) > table.max_index:
            continue
        assert _vanishes(generalized_kummer_difference(n, p, r, table), r), (p, r, n)


@pytest.mark.parametrize("p", (7, 11, 13))
def test_generalized_kummer_modular_matches_exact(table, p):
    for r in (1, 2, 3, 4):
        for d in (1, 2):
            if p <= r + d:
                continue
            n = d * (p - 1)
            a = generalized_kummer_difference(n, p, r, table, "exact")
            b = generalized_kummer_difference(n, p, r, None, "modular")
            assert _vanishes(a, r) and _vanishes(b, r)
