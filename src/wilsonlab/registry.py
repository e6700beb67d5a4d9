"""The suite registry: every named check, engine dispatch, and gating.

A check runs at one prime (or one index, for the index-domain checks) and
gives its sub-cases, (r, lhs, rhs, sub) or a skipped one; execute_check
makes the one result row from them (_verdict), and _verdict alone compares
two values and builds a pass or fail row. Hypothesis gates produce skipped
rows so reports show what was not claimed rather than silently omitting
it: a gate over the whole check raises _NoRoute, and a plain "p >= N" gate
is declared as the check's p_min and applied by execute_check.

Engines are chosen in this module alone: _engines names the engines that
run at p and _table the table each one reads, while every value comes from
modular.beta_route, the one place where the engines differ. _per_engine runs
a value function on each engine. The dual-path checks (the Wilson and
power-sum tiers, glaisher_beeger, lehmer, lehmer_diff, bundle_kummer_chain)
take their sub-cases from _dual_path on top of it: with engine 'both' any
disagreement between the exact oracle and the modular engine is a loud
failure, and where only one path is admissible that path alone is used.
The CLI's wilson and qsum values by the Bernoulli route come through it as
well (cross_checked).
prop36, prop37 and reduction_chain check each engine's own bundles, and each
gen_kummer_r* instance runs on the first engine with a route. cor35_tiers
and folklore compare modular functions with the oracle whatever the
selection. Every oracle residue, theirs and those of the exact-only checks
(kummer, carlitz, prop22) included, is read from beta_route's exact side,
which keeps one reduced residue per (p, m) in the table's memo.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, partial

from . import result
from .bernoulli import (
    BernoulliTable,
    IndexOutOfTable,
    adjusted_bernoulli,
    dn_product,
    polynomial_denominators,
    vsc_denominator,
)
from .congruences import (
    Q_TIER_PMIN,
    WQ_TIER_PMIN,
    carlitz_pair,
    central_binom_dichotomy,
    q_tier_lhs,
    q_tier_rhs,
    qsum_beta_identity_rhs,
    reduction_chain_values,
    remainder_term_sides,
    wilson_via_bernoulli,
)
from .modular import (
    InadmissibleCase,
    adjusted_bernoulli_mod,
    beta_route,
    bundle,
    folklore_bernoulli_mod,
    generalized_kummer_difference,
    kummer_pair,
)
from .padic import Frozen, NotDivisible, NotPIntegral, TrackedResidue, ord_p
from .quotients import q_sum, wilson_quotient, wilson_via_psi
from .result import FAIL, PASS, SKIPPED, CongruenceCheckResult

CARLITZ_INDEX_CAP = 1200
CARLITZ_PAIRS = ((1, 0), (2, 0), (3, 0), (4, 0), (1, 1), (2, 1), (1, 2))
REMAINDER_P_CAP = 31
# A run given no table builds one to this index on first exact use; it
# covers folklore to index 400 and four bar values for p <= 113.
AUTO_ORACLE_CAP = 450


class RunEnv(Frozen):
    """What every check of a run shares: the engine selection (exact |
    modular | both), the exact table if one was given, and the precision
    the checks that read mod_exp use. Not slotted: oracle is cached in the
    instance's __dict__."""

    _fields = ("engine", "table", "mod_exp")

    def __init__(self, engine: str = "both", table: BernoulliTable | None = None,
                 mod_exp: int | None = None):
        self._init(engine, table, mod_exp)

    @cached_property
    def oracle(self) -> BernoulliTable:
        """The given table, else one built to AUTO_ORACLE_CAP, once per env."""
        if self.table is not None:
            return self.table
        return BernoulliTable.build(AUTO_ORACLE_CAP)


# One registered check: its id, its domain ("prime" | "index"), the
# exponent r of its modulus p^r, and run(value, env) -> its sub-cases (see
# _verdict).
# index_step and index_min pick an index-domain check's values; a prime
# below p_min is a "p >= p_min" skip row; reads_mod_exp marks a check whose
# precision the run's mod_exp sets.
CheckDef = namedtuple(
    "CheckDef",
    "check_id domain mod_exp run index_step index_min p_min reads_mod_exp",
    defaults=(1, 1, 0, False),
)


class _NoRoute(Exception):
    """A value cannot be computed; the message is the skip reason. Within
    the dual-path runner it rules out one engine; yielded, it is a skipped
    sub-case; escaping a check, it makes the check's row a skip."""


def _engines(p: int, env: RunEnv) -> tuple[str, ...]:
    """The engines that run at p. Below p = 5 the exact table is the only
    route whatever the selection says; those are the suite's only sub-5
    values."""
    if p < 5:
        return ("exact",)
    return ("exact", "modular") if env.engine == "both" else (env.engine,)


def _per_engine(p: int, env: RunEnv, value):
    """value(engine) for every engine that runs at p, and the joined reasons
    of those that raised _NoRoute."""
    values = []
    reasons = []
    for eng in _engines(p, env):
        try:
            values.append(value(eng))
        except _NoRoute as exc:
            reasons.append(str(exc))
    return values, "; ".join(reasons)


def _dual_path(p, r, env, rhs, lhs=None, sub=""):
    """The sub-cases of lhs() against rhs(engine), a residue mod p^r, from
    every engine: first the engines' values against each other, then lhs()
    against the first engine's value, the last engine's standing in for a
    missing lhs. lhs() is not called after a mismatch. No engine is a
    skipped sub-case."""
    values, why = _per_engine(p, env, rhs)
    if not values:
        yield _NoRoute(why)
        return
    first, last = values[0], values[-1]
    yield r, first, last, "cross-path mismatch (exact vs modular)" + (f" at {sub}" if sub else "")
    yield r, lhs() if lhs else last, first, sub


def _table(eng: str, env: RunEnv, n: int = 0, why: str = "needs exact table"):
    """The table engine eng reads: none for the modular engine, else the
    run's, which must reach index n."""
    if eng != "exact":
        return None
    if env.oracle.max_index < n:
        raise _NoRoute(why)
    return env.oracle


def _bundle(p: int, r: int, eng: str, env: RunEnv):
    try:
        return bundle(p, r, eng, _table(eng, env))
    except (IndexOutOfTable, InadmissibleCase) as exc:
        raise _NoRoute(f"{eng}: {exc}") from exc


def cross_checked(label: str, p: int, r: int, tier: int, value) -> CongruenceCheckResult:
    """value(bundle), a residue mod p^r, from the tier bundle of every engine
    that runs at p, as the row of _dual_path's sub-cases: a pass carries the
    value as rhs, a fail says that the engines disagree, and a skip says why
    no engine has a route. A division that the congruence guarantees but
    the bundle's value does not allow is a fail as well; the sub-cases are
    made lazily, so it is raised within _verdict. The exact side reads a
    table built to tier*(p-1), the top index of the bundle, when that is at
    most AUTO_ORACLE_CAP; beyond it the run is modular only and builds no
    table. A tier that bundle refuses on every engine is a skip that builds
    no table and names no engine, whichever engines would have run. A
    skip names the tier where it is not r."""
    if not 1 <= tier <= 4:
        row = result.skipped(label, p, r, "bundle supports 1 <= r <= 4")
    else:
        top = tier * (p - 1)
        if top <= AUTO_ORACLE_CAP:
            env = RunEnv(table=BernoulliTable.build(max(top, 0)))
        else:
            env = RunEnv(engine="modular")
        try:
            row = _verdict(label, p, r, _dual_path(
                p, r, env, lambda eng: value(_bundle(p, tier, eng, env))
            ))
        except NotDivisible as exc:
            return result.error_fail(label, p, r, exc)
    if row.status == SKIPPED and tier != r:
        why = f"{label} mod {p}^{r} needs tier r = {tier}; {row.reason}"
        return result.skipped(label, p, r, why)
    return row


def _verdict(check_id, p, mod_exp, cases) -> CongruenceCheckResult:
    """The row of a check: its first failing sub-case, else its last passing
    one, else a skip at mod_exp that gives the distinct reasons of its
    skipped sub-cases in order, or "no admissible sub-case" when it has
    none. A sub-case is (r, lhs, rhs, sub), or the _NoRoute that skips it:
    residues are compared mod p^r, other values for equality, and sub is the
    reason of a failure. Only the returned row is made, and the sub-cases
    after a failure are never made. A check may make several sub-cases
    before it gives the first: cor35_tiers and folklore make the values of
    every precision at one index before the first of them is compared, so
    a failure stops such a check before its next index."""
    last = None
    skips = {}
    for case in cases:
        if isinstance(case, _NoRoute):
            skips[str(case)] = None
            continue
        r, lhs, rhs, sub = case
        if isinstance(lhs, TrackedResidue):
            lhs, rhs = lhs.truncate(r).residue, rhs.truncate(r).residue
        if lhs != rhs:
            return CongruenceCheckResult(check_id, p, r, lhs, rhs, FAIL, sub)
        last = r, lhs, rhs
    if last is None:
        return result.skipped(check_id, p, mod_exp, "; ".join(skips) or "no admissible sub-case")
    return CongruenceCheckResult(check_id, p, *last, PASS)


# -- classical mod-p congruences -------------------------------------------


def run_lerch(p: int, env: RunEnv):
    if p == 2:
        raise _NoRoute("odd primes only")
    return [(1, wilson_quotient(p, 1), q_sum(p, 1, 1), "")]


def _bhat(eng: str, mult: int, p: int, env: RunEnv):
    """Adjusted Bernoulli value at m = mult*(p-1) mod p by one engine: the
    divided value times m, a unit mod p since p > mult."""
    m = mult * (p - 1)
    return beta_route(eng, p, _table(eng, env, m, "exact oracle cap"))(m, 1).scale(m)


def run_glaisher_beeger(p: int, env: RunEnv):
    return _dual_path(p, 1, env, lambda eng: _bhat(eng, 1, p, env), lambda: wilson_quotient(p, 1))


def run_lehmer(p: int, env: RunEnv):
    w1 = wilson_quotient(p, 1)
    for mult in (2, 3):
        yield from _dual_path(
            p, 1, env, lambda eng: _bhat(eng, mult, p, env), lambda: w1.scale(mult),
            f"mult={mult}",
        )


def run_lehmer_diff(p: int, env: RunEnv):
    return _dual_path(
        p, 1, env, lambda eng: _bhat(eng, 2, p, env) - _bhat(eng, 1, p, env),
        lambda: wilson_quotient(p, 1),
    )


def run_carlitz(p: int, env: RunEnv):
    table = env.oracle
    for mult, k in CARLITZ_PAIRS:
        if mult * p ** k * (p - 1) <= min(table.max_index, CARLITZ_INDEX_CAP):
            yield 1, *carlitz_pair(p, mult, k, table), f"mult={mult}, k={k}"


# -- Wilson quotient and power-sum tiers ------------------------------------


def _tier(lhs, rhs, args: tuple, p: int, env: RunEnv):
    """lhs(p, *args) by the direct oracle against rhs(p, *args, bnd) on each
    engine's bundle of the tier r = args[-1]."""
    r = args[-1]
    want = lhs(p, *args)
    return _dual_path(p, r, env, lambda eng: rhs(p, *args, _bundle(p, r, eng, env)), lambda: want)


def _psi_tier(r: int, p: int, env: RunEnv):
    if p <= r or p == 2:
        raise _NoRoute(f"needs odd p > {r}")
    return [(r, wilson_quotient(p, r), wilson_via_psi(p, r), "")]


def run_reduction_chain(p: int, env: RunEnv):
    """The tier chain on each engine's own bundles: the top tier's value
    truncates to each lower tier's. A short exact table or an inadmissible
    modular tier drops that engine."""
    top = 4 if p >= 7 else 3
    chains, _ = _per_engine(p, env, lambda eng: reduction_chain_values(
        p, [_bundle(p, t, eng, env) for t in range(1, top + 1)]
    ))
    for values in chains:
        w = values[-1]
        for t in range(1, top):
            yield t, w.truncate(t), values[t - 1], f"truncation to p^{t} broke"
        yield top, w, w, ""


# -- Kummer families ---------------------------------------------------------


def run_kummer(p: int, env: RunEnv):
    table = env.oracle
    for n in range(2, min(p - 3, 12) + 1, 2):
        m = n + (p - 1)
        if n % (p - 1) and m <= table.max_index:
            yield 1, *kummer_pair(n, m, p, table), f"indices {n}, {m}"


def _gen_kummer(r: int, p: int, env: RunEnv):
    instances = []
    n = r + 1 + ((r + 1) % 2)  # smallest even n > r
    while len(instances) < 3:
        if n % (p - 1) != 0:
            instances.append(n)
        n += 2
    for d in (1, 2):
        if p > r + d:
            instances.append(d * (p - 1))
    for n in instances:
        # exact when the table reaches the top index, else modular
        for eng in _engines(p, env):
            try:
                table = _table(eng, env, n + r * (p - 1))
                diff = generalized_kummer_difference(n, p, r, table, eng)
            except (_NoRoute, InadmissibleCase):
                continue
            yield r, diff, diff.ctx.from_int(0, r), f"start index {n}"
            break


def run_bundle_kummer_chain(p: int, env: RunEnv):
    """The bundle's value (0, 1) mod p by each engine. Building a bundle
    already asserts its Kummer chains (the values of each nu congruent mod p)."""
    r = 4 if p >= 7 else 3
    return _dual_path(p, 1, env, lambda eng: _bundle(p, r, eng, env)[0, 1].truncate(1))


# -- oracle-agreement checks --------------------------------------------------


def _top_first(value, top: int):
    """(K, value(K)) for each K in 1..top that value admits, in ascending K,
    computed from K = top down: a power sum that value asks at every K is
    made once, at its top precision, and reduced for the rest."""
    got = []
    for K in range(top, 0, -1):
        try:
            got.append((K, value(K)))
        except InadmissibleCase:
            pass
    return got[::-1]


def run_cor35_tiers(p: int, env: RunEnv):
    """adjusted_bernoulli_mod(d, p, r) against the oracle, r = 1..6 (_top_first)."""
    table = env.oracle
    oracle = beta_route("exact", p, table)
    for d in (1, 2, 3, 4):
        n = d * (p - 1)
        if n > table.max_index:
            continue
        want = oracle(n, 6).scale(n)  # the adjusted B_n, read at r <= 6
        for r, got in _top_first(lambda r: adjusted_bernoulli_mod(d, p, r, table), 6):
            yield r, got, want, f"d={d}, r={r}"


_FOLKLORE_SAMPLE_EXTRA = (118, 242, 398)


def run_folklore(p: int, env: RunEnv):
    """folklore_bernoulli_mod(m, p, K) against the oracle, K = 1, 2 (_top_first)."""
    table = env.oracle
    cap = min(table.max_index, 400)
    sample = [m for m in range(4, 41, 2) if m <= cap]
    sample += [m for m in _FOLKLORE_SAMPLE_EXTRA if m <= cap]
    oracle = beta_route("exact", p, table)
    for m in sample:
        want = oracle(m, 2).scale(m)  # B_m, read at K <= 2
        for K, got in _top_first(lambda K: folklore_bernoulli_mod(m, p, K), 2):
            yield K, got, want, f"m={m}, K={K}"


def run_prop22(p: int, env: RunEnv):
    table = env.oracle
    cap = min(3 * (p - 1), 240, table.max_index)
    value = beta_route("exact", p, table)
    wq = wilson_quotient(p, 1)
    for n in range(2, cap + 1, 2):
        try:
            lhs = -value(n, 1)
        except NotPIntegral:
            # B_n adjusted has lower p-order than n
            o_b, o_n = ord_p(adjusted_bernoulli(n, p, table), p), ord_p(n, p)
            yield 0, o_b, o_n, f"ord at n={n}: {o_b} < {o_n}"
            continue
        np_ = n % (p - 1)
        yield 1, lhs, wq if np_ == 0 else -value(np_, 1), f"branch at n={n}"


def run_prop34_remainder(p: int, env: RunEnv):
    if p > REMAINDER_P_CAP:
        raise _NoRoute(f"desk-scale gate p <= {REMAINDER_P_CAP}")
    table = _table("exact", env, 3 * (p - 1), "needs exact table to 3(p-1)")
    return ((0, *remainder_term_sides(p, d, table)) for d in (1, 2, 3))


def run_lemma33(p: int, env: RunEnv):
    bad = [d for d in range(1, 3 * p + 1) if not central_binom_dichotomy(d, p)]
    return [(0, bad[0], None, f"dichotomy fails at d={bad[0]}") if bad else (0, 0, 0, "")]


def _prop_identity(depth: int, p: int, env: RunEnv):
    bundles, why = _per_engine(p, env, lambda eng: _bundle(p, depth, eng, env))
    if not bundles:
        raise _NoRoute(why)
    for n in range(1, depth + 1):
        for b in bundles:
            rhs = qsum_beta_identity_rhs(p, n, depth, b)
            yield depth, q_tier_lhs(p, n, depth), rhs, f"n={n}"


def run_lemma26_qdiff(p: int, env: RunEnv):
    if p == 2:
        raise _NoRoute("odd primes only")
    r = 4 if env.mod_exp is None else env.mod_exp
    # n = 4 first: its power sums are asked at the highest precision, r + 4,
    # so the smaller n reduce them instead of computing them again
    sides = {}
    for n in (4, 3, 2, 1):
        sides[n] = q_sum(p, n, r, "direct"), q_sum(p, n, r, "difference")
    return [(r, *sides[n], f"n={n}") for n in (1, 2, 3, 4)]


# -- index-domain checks ------------------------------------------------------


def run_denominators_dn(n: int, env: RunEnv):
    shifted, power = polynomial_denominators(n, _table("exact", env, n + 1))
    return [
        (0, shifted, dn_product(n), f"denom at n={n}"),
        (0, power, (n + 1) * dn_product(n + 1), f"power-sum denom at n={n}"),
    ]


def run_vsc(n: int, env: RunEnv):
    table = _table("exact", env, n)
    return [(0, table.bernoulli(n).denominator, vsc_denominator(n), "")]


# -- registry -----------------------------------------------------------------

_WQ_TIER_IDS = {1: "thm_main_p1", 2: "thm_main_p2", 3: "thm_main_p3", 4: "thm_main2_p4"}

_CHECKS = [
    CheckDef("lerch", "prime", 1, run_lerch),
    CheckDef("glaisher_beeger", "prime", 1, run_glaisher_beeger, p_min=5),
    CheckDef("lehmer", "prime", 1, run_lehmer, p_min=5),
    CheckDef("lehmer_diff", "prime", 1, run_lehmer_diff, p_min=5),
    CheckDef("carlitz", "prime", 1, run_carlitz, p_min=5),
    *(CheckDef(cid, "prime", r, partial(_tier, wilson_quotient, wilson_via_bernoulli, (r,)),
               p_min=WQ_TIER_PMIN[r])
      for r, cid in _WQ_TIER_IDS.items()),
    *(CheckDef(f"thm_main3_q{n}_r{r}", "prime", r, partial(_tier, q_tier_lhs, q_tier_rhs, (n, r)),
               p_min=Q_TIER_PMIN[(n, r)])
      for n, r in Q_TIER_PMIN),
    *(CheckDef(f"thm_kel_psi_r{r}", "prime", r, partial(_psi_tier, r)) for r in (1, 2, 3, 4)),
    CheckDef("reduction_chain", "prime", 4, run_reduction_chain, p_min=5),
    CheckDef("kummer", "prime", 1, run_kummer, p_min=5),
    *(CheckDef(f"gen_kummer_r{r}", "prime", r, partial(_gen_kummer, r), p_min=5)
      for r in (1, 2, 3, 4)),
    CheckDef("cor35_tiers", "prime", 4, run_cor35_tiers, p_min=5),
    CheckDef("prop36", "prime", 3, partial(_prop_identity, 3), p_min=5),
    CheckDef("prop37", "prime", 4, partial(_prop_identity, 4), p_min=7),
    CheckDef("prop34_remainder", "prime", 0, run_prop34_remainder, p_min=5),
    CheckDef("lemma33_binom", "prime", 0, run_lemma33),
    CheckDef("prop22", "prime", 1, run_prop22, p_min=5),
    CheckDef("folklore", "prime", 2, run_folklore, p_min=5),
    CheckDef("denominators_dn", "index", 0, run_denominators_dn),
    CheckDef("vsc", "index", 0, run_vsc, index_step=2, index_min=2),
    CheckDef("lemma26_qdiff", "prime", 4, run_lemma26_qdiff, reads_mod_exp=True),
    CheckDef("bundle_kummer_chain", "prime", 1, run_bundle_kummer_chain, p_min=5),
]

REGISTRY: dict[str, CheckDef] = {defn.check_id: defn for defn in _CHECKS}

ALL_CHECK_IDS = tuple(sorted(REGISTRY))


def effective_mod_exp(check_id: str, mod_exp: int | None) -> int:
    """The exponent a check works at in a run whose mod_exp is the given
    one: the run's for a check that reads it, when the run sets one, else
    the registered one."""
    defn = REGISTRY[check_id]
    if defn.reads_mod_exp and mod_exp is not None:
        return mod_exp
    return defn.mod_exp


def execute_check(check_id: str, value: int, env: RunEnv) -> CongruenceCheckResult:
    """Run one (check, prime-or-index) task. A prime below the check's
    p_min, an exact table too short for the check and an oracle-cap
    overrun are skips; unexpected errors, in a sub-case too, become fail
    rows carrying the error. Those rows carry the check's effective
    exponent (effective_mod_exp)."""
    defn = REGISTRY[check_id]
    mod_exp = effective_mod_exp(check_id, env.mod_exp)
    if value < defn.p_min:
        return result.skipped(check_id, value, mod_exp, f"p >= {defn.p_min}")
    try:
        return _verdict(check_id, value, mod_exp, defn.run(value, env))
    except _NoRoute as exc:
        return result.skipped(check_id, value, mod_exp, str(exc))
    except IndexOutOfTable as exc:
        return result.skipped(check_id, value, mod_exp, f"exact oracle cap: {exc}")
    except Exception as exc:  # noqa: BLE001 - must not kill a whole suite run
        return result.error_fail(check_id, value, mod_exp, exc)
