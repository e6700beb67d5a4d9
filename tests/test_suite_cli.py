import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wilsonlab.bernoulli import BernoulliTable
from wilsonlab.cli import main
from wilsonlab.modular import DividedBernoulliBundle
from wilsonlab.padic import is_prime, primes_up_to
from wilsonlab.quotients import wilson_quotient
from wilsonlab.registry import ALL_CHECK_IDS, AUTO_ORACLE_CAP
from wilsonlab.result import CongruenceCheckResult
from wilsonlab.suite import (
    SuiteSpec,
    UnknownCheck,
    UnknownRange,
    make_spec,
    report_to_csv,
    report_to_json,
    report_to_text,
    run_suite,
    scan_primes,
    _slices,
)


def test_spec_validation():
    with pytest.raises(UnknownRange):
        make_spec("lerch", 50, 10)
    with pytest.raises(UnknownCheck):
        make_spec("no_such_check", 2, 10)
    with pytest.raises(UnknownCheck):
        SuiteSpec("x", ("lerch",), 2, 10, engine="quantum")
    spec = make_spec("lerch,kummer", 2, 30)
    assert spec.check_ids == ("lerch", "kummer")
    with pytest.raises(UnknownCheck):
        make_spec("lerch,kummer,lerch", 2, 30)  # a check named twice
    # a range is rejected only when no selected check has a value in it
    with pytest.raises(UnknownRange):
        make_spec("vsc,lerch", 0, 1)
    assert make_spec("vsc,lerch", 24, 28).check_ids == ("vsc", "lerch")
    # only lemma26_qdiff reads mod_exp; a spec without it rejects one
    with pytest.raises(UnknownRange):
        make_spec("lerch,thm_main_p2", 2, 11, mod_exp=99)
    assert make_spec("lerch,lemma26_qdiff", 2, 11, mod_exp=5).mod_exp == 5


def test_single_check_run():
    rep = run_suite(make_spec("lerch", 3, 3))
    assert len(rep.results) == 1
    r = rep.results[0]
    assert r.passed and r.lhs == r.rhs == 1  # W_3 = 1 = Q_3(1) mod 3
    assert rep.ok


def test_report_sorted_and_deterministic_across_jobs():
    strip = lambda s: re.sub(r'"wall_time": [0-9.]+', '"wall_time": 0', s)
    # one spec with an index-domain check, and one with a single task
    for spec in (make_spec("lerch,thm_main_p1,vsc,kummer", 2, 60), make_spec("lerch", 3, 3)):
        rep1 = run_suite(spec, jobs=1)
        j1 = strip(report_to_json(rep1))
        for jobs in (2, 3, 8):
            assert strip(report_to_json(run_suite(spec, jobs=jobs))) == j1, jobs
        keys = [(r.check_id, r.p) for r in rep1.results]
        assert keys == sorted(keys)


def test_slices_are_contiguous_nonempty_and_balanced():
    tasks = [("a", v) for v in (0, 1, 2, 3, 5, 7, 11, 13, 97, 101, 103)]
    for n in range(1, len(tasks) + 1):
        parts = _slices(tasks, n)
        assert len(parts) == n and all(parts)
        assert [t for part in parts for t in part] == tasks
    weights = [sum(max(v, 1) for _, v in part) for part in _slices(tasks, 3)]
    assert weights == [140, 101, 103]
    assert [len(part) for part in _slices(tasks, 2)] == [9, 2]
    assert _slices([("a", 1103)] * 36, 2) == [[("a", 1103)] * 18] * 2


@contextmanager
def _deadline(seconds=60):
    """Raise TimeoutError in the calling process if the block outlives the
    deadline, so a worker that never exits fails the test, not the run."""

    def hung(signum, frame):
        raise TimeoutError("run_suite did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_worker_that_dies_without_sending_is_an_error(monkeypatch):
    import wilsonlab.suite as suite

    monkeypatch.setattr(suite, "_child", lambda tasks, env, fd: os._exit(3))
    with _deadline(), pytest.raises(RuntimeError, match="exited with code 3"):
        run_suite(make_spec("lerch", 2, 60), jobs=3)


def _raise_in(monkeypatch, where):
    """Make the slice of the calling process ('parent') or of every forked
    worker ('worker') raise. With the parent's slice raising, the workers
    sleep past the deadline instead, so that only SIGTERM ends them in time."""
    import time
    import wilsonlab.suite as suite

    parent, real = os.getpid(), suite._run_tasks

    def run_tasks(tasks, env):
        in_parent = os.getpid() == parent
        if in_parent == (where == "parent"):
            raise ZeroDivisionError(f"slice raised in the {where}")
        if not in_parent:
            time.sleep(120)
        return real(tasks, env)

    monkeypatch.setattr(suite, "_run_tasks", run_tasks)


def test_a_worker_whose_slice_raises_is_an_error(monkeypatch, capfd):
    _raise_in(monkeypatch, "worker")
    with _deadline(), pytest.raises(RuntimeError, match="exited with code 1 "):
        run_suite(make_spec("lerch", 2, 60), jobs=3)
    # the worker printed its traceback and left without running pytest's code
    assert "ZeroDivisionError: slice raised in the worker" in capfd.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_error_in_the_callers_slice_leaves_no_worker_behind(monkeypatch):
    _raise_in(monkeypatch, "parent")
    with _deadline(), pytest.raises(ZeroDivisionError, match="in the parent"):
        run_suite(make_spec("lerch", 2, 60), jobs=3)
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_text_buffered_before_the_fork_is_written_once():
    """Standard output to a pipe is block-buffered: a worker forked with
    the text still in the buffer would write it again when it flushes."""
    script = (
        "import sys\n"
        "from wilsonlab.suite import make_spec, run_suite\n"
        "sys.stdout.write('before the fork\\n')\n"
        "run_suite(make_spec('lerch', 2, 60), jobs=3)\n"
    )
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    env.pop("PYTHONUNBUFFERED", None)  # it would write the text at once
    out = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                         capture_output=True, text=True, check=True).stdout
    assert out == "before the fork\n"


def test_the_package_imports_only_the_standard_library(tmp_path):
    """Every module that importing the CLI and a small dual-path verify add
    to a bare interpreter is wilsonlab's own or the standard library's:
    the package has no runtime dependency, numpy included."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import wilsonlab.cli\n"
        "code = wilsonlab.cli.main(['verify', '--suite', 'all', '--p-max', '13',\n"
        "                           '--engine', 'both', '--format', 'json',\n"
        "                           '--out', sys.argv[1]])\n"
        "print(code, *sorted(set(sys.modules) - before))\n"
    )
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "report.json")],
                         env=env, timeout=60, capture_output=True, text=True,
                         check=True).stdout.split()
    code, added = out[0], out[1:]
    assert code == "0"
    assert "wilsonlab.cli" in added and "wilsonlab.padic" in added
    foreign = [name for name in added
               if name.partition(".")[0] not in sys.stdlib_module_names | {"wilsonlab"}]
    assert foreign == []


def test_summary_counts_match_rows():
    rep = run_suite(make_spec("all", 2, 13))
    s = rep.summary
    assert s["pass"] + s["fail"] + s["skipped"] == len(rep.results)
    assert s["fail"] == 0


def test_json_shape():
    rep = run_suite(make_spec("thm_main_p2", 5, 20))
    doc = json.loads(report_to_json(rep))
    assert set(doc) == {"suite", "params", "results", "summary", "wall_time"}
    assert doc["params"]["engine"] == "both"
    row = doc["results"][0]
    assert set(row) == {"check", "p", "mod_exp", "lhs", "rhs", "status"}
    assert isinstance(row["lhs"], str)  # residues as decimal strings


def test_csv_and_text_shape():
    rep = run_suite(make_spec("glaisher_beeger", 5, 20))
    csv_text = report_to_csv(rep)
    assert csv_text.splitlines()[0] == "check,p,mod_exp,lhs,rhs,status"
    assert len(csv_text.splitlines()) == 1 + len(rep.results)
    text = report_to_text(rep)
    assert "pass" in text and "skipped" in text.splitlines()[-1]


def test_failure_rows_have_error_names(monkeypatch):
    import wilsonlab.registry as registry

    def boom(p, env):
        raise RuntimeError("synthetic")

    defn = registry.REGISTRY["lerch"]
    monkeypatch.setitem(
        registry.REGISTRY,
        "lerch",
        type(defn)(defn.check_id, defn.domain, defn.mod_exp, boom),
    )
    rep = run_suite(make_spec("lerch", 3, 7))
    assert not rep.ok
    assert all(
        r.status == "fail" and r.reason == "RuntimeError: synthetic" for r in rep.results
    )


def _skew_modular_engine(monkeypatch):
    """Make the modular divided value at every index d(p-1) wrong while the
    exact oracle and the left-hand sides stay right. One patch of
    modular.beta_mod, the modular side of beta_route, reaches every
    dual-path check. The value moves by 1 + p*d^3: by the same amount mod
    p, so the Kummer chains still hold, and by a cubic in d, so the forward
    differences of the power-sum tiers move as well. The adjusted value at
    m = d(p-1) moves by m = -d mod p, so lehmer_diff's difference moves."""
    import wilsonlab.modular as modular

    real_beta_mod = modular.beta_mod

    def skewed_beta_mod(m, p, K):
        v = real_beta_mod(m, p, K)
        d, rest = divmod(m, p - 1)
        if rest:
            return v
        return v.ctx.from_int(v.residue + 1 + p * d ** 3, v.prec)

    monkeypatch.setattr(modular, "beta_mod", skewed_beta_mod)


DUAL_PATH_CHECKS = [
    cid for cid in ALL_CHECK_IDS if cid.startswith("thm_main")
] + ["glaisher_beeger", "lehmer", "lehmer_diff", "bundle_kummer_chain"]


@pytest.mark.parametrize("check_id", DUAL_PATH_CHECKS)
def test_cross_path_mismatch_is_a_fail_row(monkeypatch, check_id):
    _skew_modular_engine(monkeypatch)
    rep = run_suite(make_spec(check_id, 11, 23))
    assert [r.p for r in rep.results] == [11, 13, 17, 19, 23]
    sub = " at mult=2" if check_id == "lehmer" else ""
    for r in rep.results:
        assert r.status == "fail", r
        assert r.reason == "cross-path mismatch (exact vs modular)" + sub, r
    assert run_suite(make_spec(check_id, 11, 23, engine="exact")).ok


def test_a_warm_exact_memo_keeps_every_cross_path_mismatch(monkeypatch):
    """The dual-path checks of one run read one table, so from the first
    check on the exact side answers from the table's memo; every row of the
    skewed modular engine still fails."""
    _skew_modular_engine(monkeypatch)
    table = BernoulliTable.build(AUTO_ORACLE_CAP)
    rep = run_suite(make_spec(",".join(DUAL_PATH_CHECKS), 11, 23), table=table)
    assert len(rep.results) == 5 * len(DUAL_PATH_CHECKS) == 90
    for r in rep.results:
        assert r.status == "fail", r
        assert r.reason.startswith("cross-path mismatch (exact vs modular)"), r
    assert table.reduced


def test_reduction_chain_fails_per_engine(monkeypatch):
    """A modular p^4 tier that no longer truncates to the p^3 one fails the
    chain under 'modular' and under 'both', whose exact side still passes."""
    import wilsonlab.registry as registry

    real_bundle = registry.bundle

    def skewed_bundle(p, r=4, engine="modular", table=None):
        b = real_bundle(p, r, engine, table)
        if engine != "modular" or r != 4:
            return b
        bars = tuple(v.ctx.from_int(v.residue + p ** 2, v.prec) for v in b.bars)
        return DividedBernoulliBundle(p, r, bars, b.bars2)

    monkeypatch.setattr(registry, "bundle", skewed_bundle)
    for engine in ("modular", "both"):
        rep = run_suite(make_spec("reduction_chain", 11, 23, engine=engine))
        assert [r.p for r in rep.results] == [11, 13, 17, 19, 23]
        for r in rep.results:
            assert r.status == "fail", (engine, r)
            assert r.reason == "truncation to p^3 broke", (engine, r)
    assert run_suite(make_spec("reduction_chain", 11, 23, engine="exact")).ok


# sha256 of the sorted-key JSON report without wall_time, first 16 hex digits
REPORT_DIGESTS = {
    (2, 97, "both"): "989070afd6fc586b",
    (2, 97, "exact"): "30860697288a366a",
    (2, 97, "modular"): "ea889bb8f7c12b03",
    (100, 160, "both"): "188586b4c6178343",
    (100, 160, "exact"): "1ce376a9f4621a0f",
    (100, 160, "modular"): "0bea455b3678bd60",
}


@pytest.mark.parametrize("lo,hi,engine", sorted(REPORT_DIGESTS))
def test_full_suite_report_is_pinned(lo, hi, engine):
    doc = json.loads(report_to_json(run_suite(make_spec("all", lo, hi, engine=engine))))
    del doc["wall_time"]
    blob = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == REPORT_DIGESTS[(lo, hi, engine)]


def _count_table_builds(monkeypatch) -> list[int]:
    """Record the index of every BernoulliTable.build call from now on."""
    sizes = []
    real = BernoulliTable.build.__func__

    def counted(cls, n_max):
        sizes.append(n_max)
        return real(cls, n_max)

    monkeypatch.setattr(BernoulliTable, "build", classmethod(counted))
    return sizes


def test_engine_modular_runs_without_table(monkeypatch):
    builds = _count_table_builds(monkeypatch)
    rep = run_suite(make_spec("thm_main_p2,thm_main_p3", 5, 60, engine="modular"))
    assert rep.ok
    assert rep.summary["pass"] > 0
    assert builds == []


def test_each_run_builds_its_own_table_once(monkeypatch):
    builds = _count_table_builds(monkeypatch)
    spec = make_spec("thm_main_p1,glaisher_beeger,folklore", 2, 31, engine="both")
    assert run_suite(spec).ok
    assert builds == [AUTO_ORACLE_CAP] == [450]
    assert run_suite(spec).ok
    assert builds == [450, 450]
    # a table passed in is the only one the run reads
    assert run_suite(spec, table=BernoulliTable.build(60)).ok
    assert builds == [450, 450, 60]


def test_index_domain_checks():
    rep = run_suite(make_spec("vsc,denominators_dn", 2, 40))
    assert rep.ok
    vsc_rows = [r for r in rep.results if r.check_id == "vsc"]
    assert all(r.p % 2 == 0 for r in vsc_rows)


def test_scan_primes_classes():
    assert scan_primes("wilson", 600) == [5, 13, 563]
    assert scan_primes("wilson", 4) == []
    assert scan_primes("irregular", 100) == [37, 59, 67]
    with pytest.raises(ValueError):
        scan_primes("friendly", 10)


@pytest.mark.parametrize("limit", list(range(15)) + [562, 563])
def test_wilson_scan_at_its_boundaries(limit):
    oracle = [
        p for p in primes_up_to(limit) if p > 2 and wilson_quotient(p, 1).residue == 0
    ]
    assert scan_primes("wilson", limit) == oracle == [p for p in (5, 13, 563) if p <= limit]


def test_wilson_scan_to_30000():
    assert scan_primes("wilson", 30000) == [5, 13, 563]


def test_checks_never_read_the_remainder_tree(monkeypatch):
    """The tree is a scan kernel only: the factorial oracle of the checks
    must not route through it."""
    import wilsonlab

    def boom(primes, K):
        raise AssertionError("factorials_mod called")

    for mod in vars(wilsonlab).values():
        if hasattr(mod, "factorials_mod"):
            monkeypatch.setattr(mod, "factorials_mod", boom)
    rep = run_suite(make_spec("lerch,thm_kel_psi_r1,thm_main_p1", 2, 60))
    assert rep.ok and rep.summary["pass"] > 0
    with pytest.raises(AssertionError):
        scan_primes("wilson", 10)


def test_oracles_never_read_the_power_sum_memo(monkeypatch):
    """factorial_mod, fermat_quotient and q_sum(..., "direct") are the
    left-hand-side oracles: with the memo emptied and its sieve and step
    patched to raise, they and the checks built on them alone still run,
    and a memo holding a wrong t: a -> a^(p-1) does not move them."""
    from wilsonlab import modular, quotients
    from wilsonlab.quotients import factorial_mod, fermat_quotient, q_sum

    def boom(*args):
        raise AssertionError("power-sum kernel called")

    monkeypatch.setattr(modular, "_sieve_powers", boom)
    monkeypatch.setattr(modular, "_step_powers", boom)
    monkeypatch.setattr(modular, "_memo", modular._PowerSumMemo(0))
    for p in (5, 7, 101, 1103):
        assert (factorial_mod(p, 3).residue + 1) % p == 0
        assert wilson_quotient(p, 2).residue % p == q_sum(p, 1, 1, "direct").residue
        assert fermat_quotient(2, p, 2).prec == 2
    rep = run_suite(make_spec("lerch,thm_kel_psi_r1,thm_kel_psi_r4", 2, 60))
    assert rep.ok and rep.summary["pass"] > 0
    with pytest.raises(AssertionError):
        q_sum(7, 1, 1, "difference")

    def wrong_t(n, m, spf):  # 2^(p-1) + p in t, the list of n = p - 1: q_p(2) + 1
        pw = [pow(a, n, m) for a in range(len(spf))]
        if n == len(spf) - 1:
            pw[2] = (pw[2] + len(spf)) % m
        return pw

    monkeypatch.setattr(modular, "_sieve_powers", wrong_t)
    monkeypatch.setattr(quotients, "_memo", quotients._QuotientMemo(0))
    p = 101
    modular.power_sum_mod(p - 1, p, 8)  # the memo now holds t mod p^8
    assert modular._memo.p == p
    for n in (1, 2, 3):
        qs = [(pow(a, p - 1, p ** 4) - 1) // p for a in range(1, p)]
        assert q_sum(p, n, 3, "direct").residue == sum(q ** n for q in qs) % p ** 3


TIER_CHECK_IDS = (
    "thm_main_p3,thm_main2_p4,thm_main3_q1_r4,thm_main3_q2_r4,thm_main3_q3_r4,"
    "thm_main3_q4_r4,prop37,reduction_chain,gen_kummer_r4,lemma26_qdiff,"
    "thm_kel_psi_r4,bundle_kummer_chain"
)


def test_tier_checks_compute_each_power_sum_once_past_the_first_prime(power_sum_runs):
    """The twelve tier checks at 1103..1117 ask 36 distinct power sums. The
    first prime raises some of them from K = 4 up to 8 and from 2 to 3; the
    next two compute each at the precision the first one reached (81 kernel
    runs when every rise recomputed). All but 9 are steps, one product per
    a from the list p - 1 below (46 sieve passes without the step rule)."""
    rep = run_suite(make_spec(TIER_CHECK_IDS, 1103, 1117, engine="modular"))
    assert rep.summary == {"pass": 36, "fail": 0, "skipped": 0}
    assert len({(n, p) for _, n, p, _ in power_sum_runs}) == 36
    kinds = [kind for kind, *_ in power_sum_runs]
    assert (kinds.count("sieve"), kinds.count("step")) == (9, 37)


def test_power_sum_side_never_reads_the_quotient_memo(monkeypatch):
    """The difference method, bundle and the power-sum checks are the
    right-hand sides: with the Fermat-quotient memo emptied and its kernel
    patched to raise, they still run, and q_sum(..., "direct") does not."""
    from wilsonlab import quotients
    from wilsonlab.modular import bundle

    def boom(p, R):
        raise AssertionError("Fermat-quotient kernel called")

    monkeypatch.setattr(quotients, "_fermat_quotients", boom)
    monkeypatch.setattr(quotients, "_memo", quotients._QuotientMemo(0))
    assert quotients.q_sum(1103, 2, 3, "difference").prec == 3
    assert bundle(1103, 4, "modular").r == 4
    rep = run_suite(make_spec("thm_main_p3,thm_main2_p4,gen_kummer_r4", 5, 60, engine="modular"))
    assert rep.ok and rep.summary["pass"] > 0
    with pytest.raises(AssertionError):
        quotients.q_sum(1103, 2, 3, "direct")


def test_a_skewed_power_sum_fails_lemma26(monkeypatch, power_sum_runs):
    """lemma26_qdiff compares the direct q_sum with the difference method,
    which reads the memo: one wrong sum, S_{2(p-1)}, must fail it, whether
    the memo sieves or steps it."""
    from wilsonlab import modular

    spec = make_spec("lemma26_qdiff", 5, 13)
    assert run_suite(spec).ok
    sieve, step = modular._sieve_powers, modular._step_powers

    def skew(n, p, pw):
        # entry 0 (0^n = 0) is no term of the sum, and a step multiplies it
        # by t[0] = 0, so the skew reaches S_{2(p-1)} alone
        if n == 2 * (p - 1):
            pw[0] = 1
        return pw

    monkeypatch.setattr(modular, "_sieve_powers",
                        lambda n, m, spf: skew(n, len(spf), sieve(n, m, spf)))
    monkeypatch.setattr(modular, "_step_powers",
                        lambda n, below, t, m: skew(n, len(t), step(n, below, t, m)))
    power_sum_runs.clear()
    monkeypatch.setattr(modular, "_memo", modular._PowerSumMemo(0))
    assert [r.status for r in run_suite(spec).results] == ["fail"] * 4
    assert {kind for kind, n, p, _ in power_sum_runs if n == 2 * (p - 1)} == {"step"}


def test_a_skewed_fermat_quotient_fails_the_direct_checks(monkeypatch):
    """The direct q_sum feeds these verdicts through the quotient memo (prop37
    through its left-hand side p^(n-1) Q_p(n) / n): one wrong Fermat
    quotient, q_p(2) + 1, must fail every row of each."""
    from wilsonlab import quotients

    real = quotients._fermat_quotients

    def skewed(p, R):
        qs = real(p, R)
        qs[1] += 1
        return qs

    spec = make_spec("lemma26_qdiff,prop37,thm_main3_q1_r4,thm_kel_psi_r4", 11, 23)
    monkeypatch.setattr(quotients, "_memo", quotients._QuotientMemo(0))
    rep = run_suite(spec)
    assert len(rep.results) == 20 and rep.summary["pass"] == 20
    monkeypatch.setattr(quotients, "_fermat_quotients", skewed)
    monkeypatch.setattr(quotients, "_memo", quotients._QuotientMemo(0))
    assert [r.status for r in run_suite(spec).results] == ["fail"] * 20


# -- CLI ---------------------------------------------------------------------


def test_cli_verify_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "verify", "--suite", "lerch", "--p-min", "3", "--p-max", "30",
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["fail"] == 0
    assert doc["suite"] == "lerch"


def test_cli_verify_usage_errors(capsys):
    assert main(["verify", "--suite", "bogus"]) == 2
    assert main(["verify", "--p-min", "50", "--p-max", "10"]) == 2


def test_cli_verify_exit_one_on_fail(monkeypatch, capsys):
    import wilsonlab.registry as registry

    def boom(p, env):
        raise RuntimeError("synthetic")

    defn = registry.REGISTRY["lerch"]
    monkeypatch.setitem(
        registry.REGISTRY,
        "lerch",
        type(defn)(defn.check_id, defn.domain, defn.mod_exp, boom),
    )
    assert main(["verify", "--suite", "lerch", "--p-max", "10"]) == 1


def test_cli_wilson_methods(capsys):
    for method in ("direct", "psi", "bernoulli"):
        assert main(["wilson", "--p", "7", "--mod-exp", "4", "--method", method]) == 0
        assert "W_7 = 103 (mod 7^4)" in capsys.readouterr().out
    assert main(["wilson", "--p", "3", "--mod-exp", "4", "--method", "psi"]) == 2


def test_cli_qsum_methods(capsys):
    for method in ("direct", "difference"):
        assert main(["qsum", "--p", "5", "--n", "1", "--mod-exp", "3",
                     "--method", method]) == 0
        assert "Q_5(1) = 70 (mod 5^3)" in capsys.readouterr().out
    assert main(["qsum", "--p", "11", "--n", "2", "--mod-exp", "2",
                 "--method", "bernoulli"]) == 0
    out = capsys.readouterr().out
    assert main(["qsum", "--p", "11", "--n", "2", "--mod-exp", "2"]) == 0
    assert out == capsys.readouterr().out  # divided-Bernoulli route agrees


def test_cli_bernoulli_route_is_cross_checked(monkeypatch, capsys):
    """wilson and qsum --method bernoulli run both engines wherever both
    have a route, as the dual-path checks do: under a skewed modular engine
    they exit 1 with the cross-path failure instead of printing its value.
    At p = 563 the default table has no exact route, so the modular value
    stands alone."""
    cases = [
        (["wilson", "--p", "11", "--mod-exp", "4", "--method", "bernoulli"],
         "W_11 = 7789 (mod 11^4)\n"),
        (["qsum", "--p", "11", "--n", "2", "--mod-exp", "2", "--method", "bernoulli"],
         "Q_11(2) = 66 (mod 11^2)\n"),
    ]
    for argv, out in cases:
        assert main(argv) == 0
        assert capsys.readouterr().out == out
    assert main(["wilson", "--p", "563", "--mod-exp", "2", "--method", "bernoulli"]) == 0
    assert capsys.readouterr().out == "W_563 = 163270 (mod 563^2)\n"
    _skew_modular_engine(monkeypatch)
    for argv, _ in cases:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "cross-path mismatch (exact vs modular)" in captured.err


def test_cli_bernoulli_route_builds_only_the_table_it_reads(monkeypatch, capsys):
    """The exact side of a Bernoulli-route value reads B_0..B_{tier(p-1)}:
    a table to that index is built when it is at most AUTO_ORACLE_CAP, and
    none beyond it, where the modular value stands alone."""
    builds = _count_table_builds(monkeypatch)
    assert main(["wilson", "--p", "10007", "--mod-exp", "4", "--method", "bernoulli"]) == 0
    assert capsys.readouterr().out == "W_10007 = 8314285110207079 (mod 10007^4)\n"
    assert builds == []
    assert main(["wilson", "--p", "11", "--mod-exp", "4", "--method", "bernoulli"]) == 0
    assert capsys.readouterr().out == "W_11 = 7789 (mod 11^4)\n"
    assert len(builds) == 1 and builds[0] <= 40


def test_a_reason_every_engine_gives_is_said_once(capsys):
    assert main(["wilson", "--p", "7", "--mod-exp", "5", "--method", "bernoulli"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bundle supports 1 <= r <= 4\n"
    # different reasons still each name their engine
    rep = run_suite(make_spec("thm_main3_q2_r4", 5, 5), table=BernoulliTable.build(10))
    [row] = rep.results
    assert row.status == "skipped"
    assert row.reason.startswith("exact: ")
    assert "; modular: modular r = 4 needs p >= 7" in row.reason


@pytest.mark.parametrize("argv", [
    ["wilson", "--p", "7", "--mod-exp", "5", "--method", "bernoulli"],
    ["wilson", "--p", "10007", "--mod-exp", "5", "--method", "bernoulli"],
    ["qsum", "--p", "3", "--n", "300", "--method", "bernoulli"],
])
def test_a_tier_no_bundle_supports_builds_no_table(monkeypatch, capsys, argv):
    """Below p = 5 only the exact engine runs, and past the table cap only
    the modular one; either way the refusal names no engine, and no table
    is built for a value that no bundle can give."""
    builds = _count_table_builds(monkeypatch)
    assert _outcome(capsys, argv) == (2, "", "error: bundle supports 1 <= r <= 4\n")
    assert builds == []


# primes to 240 lie on both sides of the auto-built table's reach at tiers
# 2 to 4, 563 and 10007 past it at every tier; the integers add bad input
_CLI_P = st.one_of(st.sampled_from(primes_up_to(240) + [563, 10007]), st.integers(-3, 240))


@st.composite
def _value_command(draw):
    """A wilson or qsum command line, with its tier: the bundle depth that
    its Bernoulli route reads."""
    p, r = draw(_CLI_P), draw(st.integers(-1, 6))
    if draw(st.booleans()):
        method = draw(st.sampled_from(["direct", "psi", "bernoulli"]))
        return ["wilson", "--p", str(p), "--mod-exp", str(r), "--method", method], r
    n = draw(st.integers(-1, 5))
    method = draw(st.sampled_from(["direct", "difference", "bernoulli"]))
    argv = ["qsum", "--p", str(p), "--n", str(n), "--mod-exp", str(r), "--method", method]
    return argv, r + n - 1


def _outcome(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _both_paths_run(argv, tier) -> bool:
    """Both engines have a route: a prime p >= 5 (p >= 7 at tier 4, the
    modular engine's gate) whose bundle reaches no index past the auto-built
    table's."""
    p = int(argv[2])
    return (argv[-1] == "bernoulli" and p >= 5 and is_prime(p)
            and 1 <= tier <= 4 and tier * (p - 1) <= AUTO_ORACLE_CAP
            and (tier < 4 or p >= 7))


_CLI_SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@given(_value_command())
@_CLI_SETTINGS
def test_cli_value_commands_keep_the_exit_code_contract(capsys, command):
    """Exit 0 prints one value line; exit 2 prints one error line and
    nothing else; no input raises (a traceback) or exits 1."""
    argv, _ = command
    code, out, err = _outcome(capsys, argv)
    assert code in (0, 2), (argv, code, err)
    if code == 0:
        assert re.fullmatch(r"(W_\d+|Q_\d+\(\d+\)) = \d+ \(mod \d+\^\d+\)\n", out), out
        assert err == ""
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


@given(_value_command())
@settings(_CLI_SETTINGS, max_examples=400)
def test_cli_skewed_modular_engine_fails_where_both_paths_run(capsys, command):
    """Under a skewed modular engine, a command whose two paths both run
    exits 1 with one fail line, unless the skew leaves its value unchanged
    (qsum --p 7 --n 2 --mod-exp 1 is the one such input among the primes
    to 457); it never prints a wrong value. No command raises."""
    argv, tier = command
    plain = _outcome(capsys, argv)
    with pytest.MonkeyPatch.context() as mp:
        _skew_modular_engine(mp)
        code, out, err = _outcome(capsys, argv)
    if argv[-1] != "bernoulli":
        assert (code, out, err) == plain
    elif _both_paths_run(argv, tier) and plain[0] == 0:
        if (code, out, err) != plain:
            assert code == 1, (argv, code, out, err)
            assert out == ""
            assert err.startswith("fail: ") and err.count("\n") == 1, err
    else:
        assert code in (0, 1, 2), (argv, code)


def test_cli_scan_and_dn(capsys):
    assert main(["scan", "--class", "wilson", "--limit", "600"]) == 0
    assert capsys.readouterr().out.split() == ["5", "13", "563"]
    assert main(["scan", "--class", "irregular", "--limit", "100"]) == 0
    assert capsys.readouterr().out.split() == ["37", "59", "67"]
    assert main(["dn", "--n", "6"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_bernoulli_table(capsys):
    assert main(["bernoulli", "--max-index", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    assert lines[4] == "4\t-1/30"
    assert lines[6] == "6\t1/42"


@pytest.mark.parametrize(
    "argv",
    [
        ["bernoulli", "--max-index", "-1"],
        ["bernoulli", "--max-index", "2401"],
        ["dn", "--n", "-3"],
        ["wilson", "--p", "4"],
        ["wilson", "--p", "1", "--method", "bernoulli"],
        ["wilson", "--p", "4", "--method", "bernoulli"],
        ["wilson", "--p", "7", "--mod-exp", "5", "--method", "bernoulli"],
        ["qsum", "--p", "7", "--n", "2", "--mod-exp", "4", "--method", "bernoulli"],
        ["qsum", "--p", "4", "--n", "1"],
        ["wilson", "--p", "7", "--mod-exp", "0"],
        ["scan", "--class", "wilson", "--limit", "-5"],
        ["verify", "--jobs", "0"],
        ["verify", "--p-min", "-5"],
        ["verify", "--mod-exp", "-3"],
        ["verify", "--mod-exp", "0"],
        ["verify", "--suite", ","],
        ["verify", "--suite", "lerch,lerch", "--p-max", "7"],
        ["verify", "--suite", "lerch,thm_main_p2", "--p-max", "11", "--mod-exp", "99"],
        ["verify", "--suite", "lerch", "--p-min", "24", "--p-max", "28"],
        ["verify", "--suite", "vsc", "--p-min", "0", "--p-max", "1"],
        ["verify", "--out", "{tmp}"],
        ["verify", "--out", "{tmp}/missing/report.json"],
        ["verify", "--p-max", str(10**23)],
        ["scan", "--class", "wilson", "--limit", str(10**23)],
        ["dn", "--n", str(10**23)],
        ["wilson", "--p", "7", "--mod-exp", "0", "--method", "psi"],
        ["wilson", "--p", "7", "--mod-exp", "0", "--method", "bernoulli"],
        ["qsum", "--p", "7", "--n", "2", "--mod-exp", "0", "--method", "bernoulli"],
        ["qsum", "--p", "7", "--n", "0", "--mod-exp", "2", "--method", "bernoulli"],
        ["qsum", "--p", "7", "--n", "-1", "--mod-exp", "2", "--method", "bernoulli"],
    ],
)
def test_cli_bad_bernoulli_input_is_usage_error(capsys, monkeypatch, tmp_path, argv):
    import wilsonlab.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("a usage error must be found before any check runs")

    monkeypatch.setattr(cli, "run_suite", no_run)
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


_METHODS = {"wilson": ("direct", "psi", "bernoulli"),
            "qsum": ("direct", "difference", "bernoulli")}
_BAD_N_OR_R = {"wilson": "error: r must be >= 1\n",
               "qsum": "error: need n >= 1 and r >= 1\n"}


@pytest.mark.parametrize(
    "argv",
    [
        ["wilson", "--p", "7", "--mod-exp", "0"],
        ["wilson", "--p", "7", "--mod-exp", "-3"],
        ["qsum", "--p", "7", "--n", "2", "--mod-exp", "0"],
        ["qsum", "--p", "7", "--n", "0", "--mod-exp", "2"],
        ["qsum", "--p", "7", "--n", "-1", "--mod-exp", "2"],
    ],
)
def test_cli_bad_n_or_r_gives_one_line_whatever_the_method(capsys, argv):
    for method in _METHODS[argv[0]]:
        assert main(argv + ["--method", method]) == 2, method
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", _BAD_N_OR_R[argv[0]]), method


def test_cli_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--engine", "psychic"])
    assert exc.value.code == 2
