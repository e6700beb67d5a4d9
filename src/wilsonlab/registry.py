"""The suite registry: every named check, engine dispatch, and gating.

A check runs at one prime (or one index, for the index-domain checks) and
returns exactly one result row. Hypothesis gates produce skipped rows so
reports show what was not claimed rather than silently omitting it; a plain
"p >= N" gate is declared as the check's p_min and applied by execute_check.

Engines are chosen in this module alone: _engines names the engines that
run at p and _table the table each one reads, while every value comes from
modular.beta_route, the one place where the engines differ. _per_engine runs
a value function on each engine. The dual-path checks (the Wilson and
power-sum tiers, glaisher_beeger, lehmer, lehmer_diff, bundle_kummer_chain)
go through _dual_path on top of it: with engine 'both' any disagreement
between the exact oracle and the modular engine is a loud failure, and where
only one path is admissible that path alone is used. The CLI's wilson and
qsum values by the Bernoulli route come through it as well (cross_checked).
prop36, prop37 and reduction_chain check each engine's own bundles, and each
gen_kummer_r* instance runs on the first engine with a route. cor35_tiers
and folklore compare modular functions with the oracle whatever the
selection. Every oracle residue, theirs and those of the exact-only checks
(kummer, carlitz, prop22) included, is read from beta_route's exact side,
which keeps one reduced residue per (p, m) in the table's memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Optional

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
    carlitz_check,
    central_binom_dichotomy,
    q_tier_lhs,
    q_tier_rhs,
    qsum_beta_identity_check,
    reduction_chain_check,
    remainder_term_check,
    wilson_via_bernoulli,
)
from .modular import (
    InadmissibleCase,
    adjusted_bernoulli_mod,
    beta_route,
    bundle,
    folklore_bernoulli_mod,
    generalized_kummer_check,
    kummer_check,
)
from .padic import NotDivisible, NotPIntegral, ord_p
from .quotients import q_sum, wilson_quotient, wilson_via_psi
from .result import FAIL, CongruenceCheckResult

CARLITZ_INDEX_CAP = 1200
CARLITZ_PAIRS = ((1, 0), (2, 0), (3, 0), (4, 0), (1, 1), (2, 1), (1, 2))
REMAINDER_P_CAP = 31
# A run given no table builds one to this index on first exact use; it
# covers folklore to index 400 and four bar values for p <= 113.
AUTO_ORACLE_CAP = 450


@dataclass(frozen=True)
class RunEnv:
    engine: str = "both"  # exact | modular | both
    table: Optional[BernoulliTable] = None
    mod_exp: Optional[int] = None

    @cached_property
    def oracle(self) -> BernoulliTable:
        """The given table, else one built to AUTO_ORACLE_CAP, once per env."""
        if self.table is not None:
            return self.table
        return BernoulliTable.build(AUTO_ORACLE_CAP)


@dataclass(frozen=True)
class CheckDef:
    check_id: str
    domain: str  # "prime" | "index"
    mod_exp: int
    run: Callable[[int, RunEnv], CongruenceCheckResult]
    index_step: int = 1  # for index-domain checks
    index_min: int = 1
    p_min: int = 0  # smaller primes are a "p >= p_min" skip row
    reads_mod_exp: bool = False  # the run's mod_exp sets its precision


class _NoRoute(Exception):
    """A value cannot be computed; the message is the skip reason. Within
    the dual-path runner it rules out one engine; escaping a check, it makes
    the check's row a skip."""


def _engines(p: int, env: RunEnv) -> tuple[str, ...]:
    """The engines that run at p. Below p = 5 the exact table is the only
    route whatever the selection says; those are the suite's only sub-5
    values."""
    if p < 5:
        return ("exact",)
    return ("exact", "modular") if env.engine == "both" else (env.engine,)


def _per_engine(p: int, env: RunEnv, value):
    """value(engine) for every engine that runs at p, and the joined reasons
    of those that raised _NoRoute. A reason that every engine gives, once
    each engine's own "eng: " prefix is dropped, is said once."""
    values = []
    reasons = []
    for eng in _engines(p, env):
        try:
            values.append(value(eng))
        except _NoRoute as exc:
            reasons.append((eng, str(exc)))
    shared = {why.removeprefix(f"{eng}: ") for eng, why in reasons}
    if len(reasons) > 1 and len(shared) == 1:
        return values, shared.pop()
    return values, "; ".join(why for _, why in reasons)


def _dual_path(check_id, p, r, env, rhs, lhs=None, sub="") -> CongruenceCheckResult:
    """Compare lhs() against rhs(engine), a residue at the row's precision,
    from every engine. No engine is a skip; engines that disagree are a
    failure in their own right. Without lhs the engines' values are compared
    with each other."""
    values, why = _per_engine(p, env, rhs)
    if not values:
        return result.skipped(check_id, p, r, why)
    first, last = values[0], values[-1]
    if first.residue != last.residue:
        return CongruenceCheckResult(
            check_id, p, r, first.residue, last.residue, FAIL,
            "cross-path mismatch (exact vs modular)" + (f" at {sub}" if sub else ""),
        )
    return result.from_residues(check_id, p, r, lhs() if lhs else last, first, sub)


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
    that runs at p, as _dual_path's row: a pass carries the value, a fail
    says that the engines disagree, and a skip says why no engine has a
    route. A division that the congruence guarantees but the bundle's
    value does not allow is a fail as well. The exact side reads a table
    built to tier*(p-1), the top index of the bundle, when that is at most
    AUTO_ORACLE_CAP; beyond it the run is modular only and builds no
    table. A tier that bundle refuses on every engine is a skip that builds
    no table and names no engine, whichever engines would have run."""
    if not 1 <= tier <= 4:
        return result.skipped(label, p, r, "bundle supports 1 <= r <= 4")
    top = tier * (p - 1)
    if top <= AUTO_ORACLE_CAP:
        env = RunEnv(table=BernoulliTable.build(max(top, 0)))
    else:
        env = RunEnv(engine="modular")
    try:
        return _dual_path(label, p, r, env, lambda eng: value(_bundle(p, tier, eng, env)))
    except NotDivisible as exc:
        return result.error_fail(label, p, r, exc)


def _aggregate(check_id, p, mod_exp, rows) -> CongruenceCheckResult:
    """Collapse sub-case results: first failure wins, else last row; an
    empty list is a skip."""
    last = None
    for row in rows:
        if row.status == FAIL:
            return row
        if row.status == result.PASS:
            last = row
    if last is None:
        return result.skipped(check_id, p, mod_exp, "no admissible sub-case")
    return last


# -- classical mod-p congruences -------------------------------------------


def run_lerch(p: int, env: RunEnv) -> CongruenceCheckResult:
    if p == 2:
        return result.skipped("lerch", p, 1, "odd primes only")
    return result.from_residues(
        "lerch", p, 1, wilson_quotient(p, 1), q_sum(p, 1, 1)
    )


def _bhat(eng: str, mult: int, p: int, env: RunEnv):
    """Adjusted Bernoulli value at m = mult*(p-1) mod p by one engine: the
    divided value times m, a unit mod p since p > mult."""
    m = mult * (p - 1)
    return beta_route(eng, p, _table(eng, env, m, "exact oracle cap"))(m, 1).scale(m)


def run_glaisher_beeger(p: int, env: RunEnv) -> CongruenceCheckResult:
    return _dual_path(
        "glaisher_beeger", p, 1, env,
        lambda eng: _bhat(eng, 1, p, env), lambda: wilson_quotient(p, 1),
    )


def run_lehmer(p: int, env: RunEnv) -> CongruenceCheckResult:
    w1 = wilson_quotient(p, 1)
    rows = [
        _dual_path(
            "lehmer", p, 1, env,
            lambda eng: _bhat(eng, mult, p, env), lambda: w1.scale(mult),
            f"mult={mult}",
        )
        for mult in (2, 3)
    ]
    return _aggregate("lehmer", p, 1, rows)


def run_lehmer_diff(p: int, env: RunEnv) -> CongruenceCheckResult:
    return _dual_path(
        "lehmer_diff", p, 1, env,
        lambda eng: _bhat(eng, 2, p, env) - _bhat(eng, 1, p, env),
        lambda: wilson_quotient(p, 1),
    )


def run_carlitz(p: int, env: RunEnv) -> CongruenceCheckResult:
    check_id = "carlitz"
    table = env.oracle
    rows = []
    for mult, k in CARLITZ_PAIRS:
        index = mult * p ** k * (p - 1)
        if index > min(table.max_index, CARLITZ_INDEX_CAP):
            continue
        rows.append(carlitz_check(p, mult, k, table))
    return _aggregate(check_id, p, 1, rows)


# -- Wilson quotient and power-sum tiers ------------------------------------


def _tier(check_id: str, lhs, rhs, args: tuple, p: int, env: RunEnv) -> CongruenceCheckResult:
    """lhs(p, *args) by the direct oracle against rhs(p, *args, bnd) on each
    engine's bundle of the tier r = args[-1]."""
    r = args[-1]
    want = lhs(p, *args)
    return _dual_path(
        check_id, p, r, env, lambda eng: rhs(p, *args, _bundle(p, r, eng, env)), lambda: want
    )


def _psi_tier(r: int, check_id: str, p: int, env: RunEnv) -> CongruenceCheckResult:
    if p <= r or p == 2:
        return result.skipped(check_id, p, r, f"needs odd p > {r}")
    return result.from_residues(
        check_id, p, r, wilson_quotient(p, r), wilson_via_psi(p, r)
    )


def run_reduction_chain(p: int, env: RunEnv) -> CongruenceCheckResult:
    """The tier chain on each engine's own bundles; a short exact table or
    an inadmissible modular tier drops that engine."""
    top = 4 if p >= 7 else 3
    rows, _ = _per_engine(p, env, lambda eng: reduction_chain_check(
        p, [_bundle(p, t, eng, env) for t in range(1, top + 1)]
    ))
    return _aggregate("reduction_chain", p, 4, rows)


# -- Kummer families ---------------------------------------------------------


def run_kummer(p: int, env: RunEnv) -> CongruenceCheckResult:
    check_id = "kummer"
    table = env.oracle
    rows = []
    for n in range(2, min(p - 3, 12) + 1, 2):
        m = n + (p - 1)
        if n % (p - 1) == 0 or m > table.max_index:
            continue
        rows.append(kummer_check(n, m, p, table))
    return _aggregate(check_id, p, 1, rows)


def _gen_kummer(r: int, check_id: str, p: int, env: RunEnv) -> CongruenceCheckResult:
    instances = []
    n = r + 1 + ((r + 1) % 2)  # smallest even n > r
    while len(instances) < 3:
        if n % (p - 1) != 0:
            instances.append(n)
        n += 2
    for d in (1, 2):
        if p > r + d:
            instances.append(d * (p - 1))
    rows = []
    for n in instances:
        # exact when the table reaches the top index, else modular
        for eng in _engines(p, env):
            try:
                table = _table(eng, env, n + r * (p - 1))
                rows.append(generalized_kummer_check(n, p, r, table, eng))
            except (_NoRoute, InadmissibleCase):
                continue
            break
    return _aggregate(check_id, p, r, rows)


def run_bundle_kummer_chain(p: int, env: RunEnv) -> CongruenceCheckResult:
    """bars[0] mod p by each engine. Building a bundle already asserts its
    Kummer chains (every bar congruent mod p, likewise every bar2)."""
    r = 4 if p >= 7 else 3
    return _dual_path(
        "bundle_kummer_chain", p, 1, env,
        lambda eng: _bundle(p, r, eng, env).bars[0].truncate(1),
    )


# -- oracle-agreement checks --------------------------------------------------


def run_cor35_tiers(p: int, env: RunEnv) -> CongruenceCheckResult:
    check_id = "cor35_tiers"
    table = env.oracle
    oracle = beta_route("exact", p, table)
    rows = []
    for d in (1, 2, 3, 4):
        n = d * (p - 1)
        if n > table.max_index:
            continue
        want = oracle(n, 6).scale(n)  # the adjusted B_n, read at r <= 6
        for r in (1, 2, 3, 4, 5, 6):
            try:
                got = adjusted_bernoulli_mod(d, p, r, table)
            except InadmissibleCase:
                continue
            rows.append(result.from_residues(
                check_id, p, r, got, want, f"d={d}, r={r}"
            ))
    return _aggregate(check_id, p, 4, rows)


_FOLKLORE_SAMPLE_EXTRA = (118, 242, 398)


def run_folklore(p: int, env: RunEnv) -> CongruenceCheckResult:
    check_id = "folklore"
    table = env.oracle
    cap = min(table.max_index, 400)
    sample = [m for m in range(4, 41, 2) if m <= cap]
    sample += [m for m in _FOLKLORE_SAMPLE_EXTRA if m <= cap]
    oracle = beta_route("exact", p, table)
    rows = []
    for m in sample:
        want = oracle(m, 2).scale(m)  # B_m, read at K <= 2
        for K in (1, 2):
            try:
                got = folklore_bernoulli_mod(m, p, K)
            except InadmissibleCase:
                continue
            rows.append(result.from_residues(check_id, p, K, got, want, f"m={m}, K={K}"))
    return _aggregate(check_id, p, 2, rows)


def run_prop22(p: int, env: RunEnv) -> CongruenceCheckResult:
    check_id = "prop22"
    table = env.oracle
    cap = min(3 * (p - 1), 240, table.max_index)
    value = beta_route("exact", p, table)
    wq = wilson_quotient(p, 1)
    rows = []
    for n in range(2, cap + 1, 2):
        try:
            lhs = -value(n, 1)
        except NotPIntegral:
            # B_n adjusted has lower p-order than n
            o_b, o_n = ord_p(adjusted_bernoulli(n, p, table), p), ord_p(n, p)
            rows.append(result.from_values(
                check_id, p, 0, o_b, o_n, f"ord at n={n}: {o_b} < {o_n}"
            ))
            continue
        np_ = n % (p - 1)
        rhs = wq if np_ == 0 else -value(np_, 1)
        rows.append(result.from_residues(check_id, p, 1, lhs, rhs, f"branch at n={n}"))
    return _aggregate(check_id, p, 1, rows)


def run_prop34_remainder(p: int, env: RunEnv) -> CongruenceCheckResult:
    check_id = "prop34_remainder"
    if p > REMAINDER_P_CAP:
        return result.skipped(check_id, p, 0, f"desk-scale gate p <= {REMAINDER_P_CAP}")
    table = _table("exact", env, 3 * (p - 1), "needs exact table to 3(p-1)")
    rows = [remainder_term_check(p, d, table) for d in (1, 2, 3)]
    return _aggregate(check_id, p, 0, rows)


def run_lemma33(p: int, env: RunEnv) -> CongruenceCheckResult:
    check_id = "lemma33_binom"
    bad = [d for d in range(1, 3 * p + 1) if not central_binom_dichotomy(d, p)]
    if bad:
        return result.from_values(check_id, p, 0, bad[0], None, f"dichotomy fails at d={bad[0]}")
    return result.from_values(check_id, p, 0, 0, 0)


def _prop_identity(depth: int, check_id: str, p: int, env: RunEnv) -> CongruenceCheckResult:
    bundles, why = _per_engine(p, env, lambda eng: _bundle(p, depth, eng, env))
    if not bundles:
        return result.skipped(check_id, p, depth, why)
    rows = [
        qsum_beta_identity_check(p, n, depth, b)
        for n in range(1, depth + 1)
        for b in bundles
    ]
    return _aggregate(check_id, p, depth, rows)


def run_lemma26_qdiff(p: int, env: RunEnv) -> CongruenceCheckResult:
    check_id = "lemma26_qdiff"
    if p == 2:
        return result.skipped(check_id, p, 0, "odd primes only")
    r = 4 if env.mod_exp is None else env.mod_exp
    rows = []
    # n = 4 first: its power sums are asked at the highest precision, r + 4,
    # so the smaller n reduce them instead of computing them again
    for n in (4, 3, 2, 1):
        direct = q_sum(p, n, r, "direct")
        diff = q_sum(p, n, r, "difference")
        rows.append(result.from_residues(check_id, p, r, direct, diff, f"n={n}"))
    return _aggregate(check_id, p, r, rows[::-1])


# -- index-domain checks ------------------------------------------------------


def run_denominators_dn(n: int, env: RunEnv) -> CongruenceCheckResult:
    check_id = "denominators_dn"
    shifted, power = polynomial_denominators(n, _table("exact", env, n + 1))
    r1 = result.from_values(
        check_id, n, 0, shifted, dn_product(n), f"denom at n={n}"
    )
    if not r1.passed:
        return r1
    return result.from_values(
        check_id, n, 0, power, (n + 1) * dn_product(n + 1),
        f"power-sum denom at n={n}",
    )


def run_vsc(n: int, env: RunEnv) -> CongruenceCheckResult:
    table = _table("exact", env, n)
    return result.from_values(
        "vsc", n, 0, table.bernoulli(n).denominator, vsc_denominator(n)
    )


# -- registry -----------------------------------------------------------------

_WQ_TIER_IDS = {1: "thm_main_p1", 2: "thm_main_p2", 3: "thm_main_p3", 4: "thm_main2_p4"}

_CHECKS = [
    CheckDef("lerch", "prime", 1, run_lerch),
    CheckDef("glaisher_beeger", "prime", 1, run_glaisher_beeger, p_min=5),
    CheckDef("lehmer", "prime", 1, run_lehmer, p_min=5),
    CheckDef("lehmer_diff", "prime", 1, run_lehmer_diff, p_min=5),
    CheckDef("carlitz", "prime", 1, run_carlitz, p_min=5),
    *(CheckDef(cid, "prime", r, partial(_tier, cid, wilson_quotient, wilson_via_bernoulli, (r,)),
               p_min=WQ_TIER_PMIN[r])
      for r, cid in _WQ_TIER_IDS.items()),
    *(CheckDef(f"thm_main3_q{n}_r{r}", "prime", r,
               partial(_tier, f"thm_main3_q{n}_r{r}", q_tier_lhs, q_tier_rhs, (n, r)),
               p_min=Q_TIER_PMIN[(n, r)])
      for n, r in Q_TIER_PMIN),
    *(CheckDef(f"thm_kel_psi_r{r}", "prime", r, partial(_psi_tier, r, f"thm_kel_psi_r{r}"))
      for r in (1, 2, 3, 4)),
    CheckDef("reduction_chain", "prime", 4, run_reduction_chain, p_min=5),
    CheckDef("kummer", "prime", 1, run_kummer, p_min=5),
    *(CheckDef(f"gen_kummer_r{r}", "prime", r, partial(_gen_kummer, r, f"gen_kummer_r{r}"),
               p_min=5)
      for r in (1, 2, 3, 4)),
    CheckDef("cor35_tiers", "prime", 4, run_cor35_tiers, p_min=5),
    CheckDef("prop36", "prime", 3, partial(_prop_identity, 3, "prop36"), p_min=5),
    CheckDef("prop37", "prime", 4, partial(_prop_identity, 4, "prop37"), p_min=7),
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


def execute_check(check_id: str, value: int, env: RunEnv) -> CongruenceCheckResult:
    """Run one (check, prime-or-index) task. A prime below the check's
    p_min, an exact table too short for the check and an oracle-cap
    overrun are skips; unexpected errors become fail rows carrying the
    error."""
    defn = REGISTRY[check_id]
    if value < defn.p_min:
        return result.skipped(check_id, value, defn.mod_exp, f"p >= {defn.p_min}")
    try:
        return defn.run(value, env)
    except _NoRoute as exc:
        return result.skipped(check_id, value, defn.mod_exp, str(exc))
    except IndexOutOfTable as exc:
        return result.skipped(check_id, value, defn.mod_exp, f"exact oracle cap: {exc}")
    except Exception as exc:  # noqa: BLE001 - must not kill a whole suite run
        return result.error_fail(check_id, value, defn.mod_exp, exc)
