import hashlib
import json
import os
import pickle
import re
import signal
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wilsonlab.bernoulli import DESK_CAP, BernoulliTable, RationalPolynomial, beta_value
from wilsonlab.cli import main
from wilsonlab.congruences import classify_prime, irregular_primes
from wilsonlab.padic import PrimePowerContext, is_prime, primes_up_to, reduce_rational
from wilsonlab.quotients import wilson_quotient
from wilsonlab.registry import (
    ALL_CHECK_IDS, AUTO_ORACLE_CAP, REGISTRY, CheckDef, RunEnv, _dual_path, _NoRoute,
    execute_check, run_lerch,
)
from wilsonlab.result import CongruenceCheckResult
from wilsonlab.suite import (
    SuiteReport,
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


def test_records_compare_hash_pickle_and_stay_frozen_as_dataclasses_did():
    """The package's records, plain classes in place of dataclasses: equal
    and hashed by their fields, pickled whole (forked workers send every
    row through pickle), and read-only where they were frozen."""
    table = BernoulliTable.build(4)
    row = CongruenceCheckResult("lerch", 7, 1, Fraction(5, 6), Fraction(5, 6), "pass")
    spec = make_spec("lerch,kummer", 2, 30, engine="exact")
    pairs = [
        (row, CongruenceCheckResult("lerch", 7, 1, Fraction(5, 6), Fraction(5, 6), "pass", "")),
        (PrimePowerContext(7), PrimePowerContext(7)),
        (spec, SuiteSpec("lerch,kummer", ("lerch", "kummer"), 2, 30, None, "exact")),
        (RationalPolynomial.make([1, 2, 0]), RationalPolynomial((Fraction(1), Fraction(2)))),
        (RunEnv(table=table), RunEnv("both", table, None)),
        (classify_prime(37, BernoulliTable.build(34)), classify_prime(37, BernoulliTable.build(34))),
        (REGISTRY["lerch"], CheckDef("lerch", "prime", 1, run_lerch)),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and a is not b
    assert row != CongruenceCheckResult("lerch", 7, 1, 5, 5, "pass")
    assert PrimePowerContext(7) != PrimePowerContext(11)
    assert spec != make_spec("lerch,kummer", 2, 31, engine="exact")
    assert RunEnv(engine="modular") != RunEnv()
    assert REGISTRY["carlitz"].p_min == 5 and REGISTRY["lerch"].reads_mod_exp is False
    report = SuiteReport(spec, [row], wall_time=0.5)
    assert report == SuiteReport(spec, [row], {"pass": 1, "fail": 0, "skipped": 0}, 0.5)
    assert report != SuiteReport(spec, [row])

    for value in (row, spec):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and type(back) is type(value)
    assert pickle.loads(pickle.dumps(row)).lhs == Fraction(5, 6)

    for value, field in ((row, "status"), (PrimePowerContext(7), "p"), (spec, "p_max"),
                         (RationalPolynomial.make([1]), "coeffs"), (RunEnv(), "engine"),
                         (classify_prime(3), "irregular"),
                         (REGISTRY["lerch"], "mod_exp")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    # a cached oracle is not a field: the env keeps it, still read-only
    env = RunEnv(table=table)
    assert env.oracle is table and env.oracle is env.oracle

    for args, kwargs, message in [
        (("x", (), 2, 10), {}, "suite 'x' names no check"),
        (("x", ("lerch",), -1, 10), {}, "p_min must be >= 0, got -1"),
        (("x", ("lerch",), 11, 10), {}, "p_min 11 > p_max 10"),
        (("x", ("lerch",), 2, 10), {"mod_exp": 0}, "mod_exp must be >= 1, got 0"),
        (("x", ("lerch",), 2, 10), {"engine": "quantum"}, "unknown engine 'quantum'"),
        (("x", ("nope",), 2, 10), {}, "unknown check id 'nope'"),
        (("x", ("lerch", "lerch"), 2, 10), {}, "check id 'lerch' named twice"),
        (("x", ("lerch",), 0, 1), {}, "no selected check has a value in [0, 1]"),
        (("x", ("lerch",), 2, 10), {"mod_exp": 3},
         "mod_exp 3 is read by none of the selected checks"),
    ]:
        with pytest.raises((UnknownCheck, UnknownRange)) as info:
            SuiteSpec(*args, **kwargs)
        assert str(info.value) == message


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


def test_slices_never_split_a_value():
    """A cut falls only between values, so a prime's tasks run in one
    process, and a run with fewer values than slices asked gets fewer."""
    tasks = [(cid, v) for v in (5, 7, 11, 13, 1103) for cid in "abc"]
    for n in range(1, 8):
        parts = _slices(tasks, n)
        assert len(parts) == min(n, 5) and all(parts)
        assert [t for part in parts for t in part] == tasks
        assert all(a[-1][1] != b[0][1] for a, b in zip(parts, parts[1:]))
    assert _slices(tasks, 2) == [tasks[:12], tasks[12:]]
    assert _slices([("a", 1103)] * 36, 2) == [[("a", 1103)] * 36]


def test_a_value_runs_its_tasks_from_the_highest_exponent_down(monkeypatch):
    """Within one value execute_check gets the tasks from the highest
    effective exponent down, a tie led by lemma26_qdiff, the one check that
    reads the run's mod_exp, then in the spec's order; the run's mod_exp
    moves lemma26_qdiff."""
    import wilsonlab.suite as suite
    from wilsonlab.registry import effective_mod_exp

    seen = []
    real = suite.execute_check

    def recording(check_id, value, env):
        seen.append((check_id, value))
        return real(check_id, value, env)

    monkeypatch.setattr(suite, "execute_check", recording)
    ids = "bundle_kummer_chain,thm_main_p3,lerch,thm_main2_p4,lemma26_qdiff,prop34_remainder"
    for mod_exp, order in [
        (None, "lemma26_qdiff,thm_main2_p4,thm_main_p3,bundle_kummer_chain,lerch,prop34_remainder"),
        (6, "lemma26_qdiff,thm_main2_p4,thm_main_p3,bundle_kummer_chain,lerch,prop34_remainder"),
        (2, "thm_main2_p4,thm_main_p3,lemma26_qdiff,bundle_kummer_chain,lerch,prop34_remainder"),
    ]:
        seen.clear()
        rep = run_suite(make_spec(ids, 11, 13, mod_exp=mod_exp))
        assert rep.ok
        assert seen == [(cid, p) for p in (11, 13) for cid in order.split(",")]
        assert {r.mod_exp for r in rep.results if r.check_id == "lemma26_qdiff"} == {
            effective_mod_exp("lemma26_qdiff", mod_exp)}
    assert [effective_mod_exp(cid, 6) for cid in ("lemma26_qdiff", "lerch", "vsc")] == [6, 1, 0]
    assert effective_mod_exp("lemma26_qdiff", None) == 4


def test_a_run_with_fewer_values_than_jobs_forks_fewer_workers(monkeypatch):
    """A one-value run at jobs=2 runs in the calling process alone, and a
    two-value run at jobs=3 forks one worker, which runs the second value."""
    import wilsonlab.suite as suite

    forked = []
    real = suite._fork_worker

    def counted(tasks, env):
        forked.append(sorted({v for _, v in tasks}))
        return real(tasks, env)

    monkeypatch.setattr(suite, "_fork_worker", counted)
    one = run_suite(make_spec("lerch,thm_main_p1,thm_kel_psi_r1", 13, 13), jobs=2)
    assert forked == [] and one.summary["pass"] == 3
    with _deadline():
        two = run_suite(make_spec("lerch,thm_main_p1", 11, 13), jobs=3)
    assert forked == [[13]] and two.summary["pass"] == 4


def test_a_run_makes_one_context_per_prime(monkeypatch):
    """Every residue of a run's prime shares the context of padic.work's
    slot: a run from an empty slot makes one per prime."""
    from wilsonlab import padic

    made = []
    check = PrimePowerContext.__post_init__

    def counted(ctx):
        made.append(ctx.p)
        check(ctx)

    padic.work.cache_clear()
    monkeypatch.setattr(PrimePowerContext, "__post_init__", counted)
    assert run_suite(make_spec("all", 2, 23)).ok
    assert made == [2, 3, 5, 7, 11, 13, 17, 19, 23]


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

    # Start-up, in an interpreter without site: the error-path and
    # output-format modules (and dataclasses, typing) load on use only,
    # while every module that a suite run or a benchmark pass uses loads
    # with the CLI, so that no run pays its import inside its own time.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import wilsonlab.cli\n"
        "wilsonlab.cli.build_parser()\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    added = set(subprocess.run([sys.executable, "-S", "-c", script], env=env, timeout=60,
                               capture_output=True, text=True, check=True).stdout.split())
    deferred = {"dataclasses", "inspect", "typing", "traceback", "csv", "signal"}
    assert added & deferred == set()
    package = Path(__file__).parents[1] / "src" / "wilsonlab"
    eager = {f"wilsonlab.{f.stem}" for f in package.glob("*.py") if f.stem != "__init__"}
    assert eager | {"json", "pickle", "fractions"} <= added



_HUGE_P = 100000000003  # a prime whose O(p) lists take hundreds of GB


@pytest.mark.parametrize("argv, message", [
    (["verify", "--p-min", str(_HUGE_P), "--p-max", str(_HUGE_P)],
     f"p_max {_HUGE_P} is too large"),
    (["wilson", "--p", str(_HUGE_P), "--method", "bernoulli"],
     f"sieve below {_HUGE_P} is too large"),
    (["qsum", "--p", str(_HUGE_P), "--n", "1", "--method", "difference"],
     f"sieve below {_HUGE_P} is too large"),
    (["scan", "--class", "wilson", "--limit", str(_HUGE_P - 3)],
     f"sieve limit {_HUGE_P - 3} is too large"),
])
def test_a_list_too_large_to_allocate_is_a_usage_error(argv, message):
    """Under a 1 GB address-space limit, a prime or limit whose sieve cannot
    be allocated exits 2 with one line on stderr, not a MemoryError."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from wilsonlab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-c", script, *argv], env=env, timeout=60,
                         capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", f"error: {message}\n")


def test_a_refusal_after_the_first_allocation_is_a_usage_error(monkeypatch, capsys):
    """A MemoryError past the first list, in a sieve's marking passes or in
    scan's remainder tree, exits 2 with one line on stderr."""
    from wilsonlab import modular, padic, suite

    class Refusing(bytearray):  # the sieve array is granted, its marks are not
        def __setitem__(self, key, value):
            raise MemoryError

    def refuse(*args):
        raise MemoryError

    monkeypatch.setattr(padic, "bytearray", Refusing, raising=False)
    with pytest.raises(ValueError, match="sieve limit 50 is too large"):
        padic.primes_up_to(50)
    assert main(["scan", "--class", "wilson", "--limit", "50"]) == 2
    monkeypatch.undo()
    monkeypatch.setattr(modular, "isqrt", refuse)
    with pytest.raises(ValueError, match="sieve below 101 is too large"):
        modular._smallest_prime_factors(101)
    monkeypatch.setattr(suite, "factorials_mod", refuse)
    assert main(["scan", "--class", "wilson", "--limit", "50"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: sieve limit 50 is too large\n"
                   "error: scan limit 50 is too large\n")


@pytest.mark.parametrize("argv", [
    ["wilson", "--p", "1009", "--mod-exp", "4", "--method", "bernoulli"],
    ["qsum", "--p", "1009", "--n", "3", "--mod-exp", "1", "--method", "difference"],
    ["qsum", "--p", "1009", "--n", "2", "--mod-exp", "2", "--method", "bernoulli"],
])
def test_a_refused_power_list_is_a_usage_error(monkeypatch, capsys, argv):
    """A MemoryError in a power-list step, past the sieve, as under
    `ulimit -v 200000` at p = 1000003, exits 2 with one line on stderr."""
    from wilsonlab import modular, padic

    def refuse(*args):
        raise MemoryError

    padic.work.cache_clear()
    monkeypatch.setattr(modular, "_step_powers", refuse)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: p 1009 is too large\n")


def test_a_refused_list_of_values_is_a_usage_error(monkeypatch, capsys):
    """A MemoryError while listing a run's index values, as under
    `ulimit -v 1000000` at p_max = 10^9, exits 2 with one line on stderr."""
    from wilsonlab import suite

    def refuse(*args):
        raise MemoryError

    monkeypatch.setattr(suite, "list", refuse, raising=False)
    with pytest.raises(UnknownRange, match=r"^p_max 100000 is too large$"):
        make_spec("denominators_dn", 0, 100000)
    assert main(["verify", "--suite", "denominators_dn", "--p-max", "100000"]) == 2
    assert capsys.readouterr().err == "error: p_max 100000 is too large\n"


def test_summary_counts_match_rows():
    rep = run_suite(make_spec("all", 2, 13))
    s = rep.summary
    assert s["pass"] + s["fail"] + s["skipped"] == len(rep.results)
    assert s["fail"] == 0


def _json_doc(report):
    """The report's document as json.dumps would be given it."""
    return {
        "suite": report.spec.suite_id,
        "params": {"p_min": report.spec.p_min, "p_max": report.spec.p_max,
                   "mod_exp": report.spec.mod_exp, "engine": report.spec.engine},
        "results": [{"check": r.check_id, "p": r.p, "mod_exp": r.mod_exp,
                     "lhs": "" if r.lhs is None else str(r.lhs),
                     "rhs": "" if r.rhs is None else str(r.rhs),
                     "status": r.status_text()} for r in report.results],
        "summary": dict(report.summary),
        "wall_time": round(report.wall_time, 3),
    }


def test_json_report_bytes_are_those_of_json_dumps():
    desk = run_suite(make_spec("all", 2, 97))
    odd = CongruenceCheckResult("lerch", 5, None, None, 7, "skipped",
                                'caf\u00e9 \u2603 "quoted" back\\slash\n\ttab')
    reports = [
        desk,
        SuiteReport(make_spec("lerch,kummer", 2, 7), [odd, *desk.results[:2]], wall_time=0.5),
        SuiteReport(make_spec("lerch", 2, 7), []),
    ]
    for report in reports:
        assert report_to_json(report) == json.dumps(_json_doc(report), indent=1)
    assert '"mod_exp": null' in report_to_json(reports[1])


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


def _probe(monkeypatch, mod_exp, run):
    """run registered as the check "probe" at modulus p^mod_exp, run at 7."""
    monkeypatch.setitem(REGISTRY, "probe", CheckDef("probe", "prime", mod_exp, run))
    return execute_check("probe", 7, RunEnv(engine="modular"))


def _row(mod_exp, lhs, rhs, status, reason=""):
    return CongruenceCheckResult("probe", 7, mod_exp, lhs, rhs, status, reason)


_CTX7 = PrimePowerContext(7)


def test_a_multi_case_row_is_its_first_failure(monkeypatch):
    """The first failing sub-case is the row; the sub-cases after it are
    never made, so one that would raise cannot turn the failure into an
    error row. Engines that disagree are the dual-path runner's first
    sub-case, exact value as lhs and modular as rhs, and its lhs() is then
    never called."""
    def run(p, env):
        yield 1, _CTX7.from_int(3, 1), _CTX7.from_int(10, 1), "first"
        yield 2, _CTX7.from_int(1, 2), _CTX7.from_int(8, 2), "second"
        raise RuntimeError("made after the failure")

    assert _probe(monkeypatch, 3, run) == _row(2, 1, 8, "fail", "second")

    def mismatch(p, env):
        def lhs():
            raise RuntimeError("lhs after a mismatch")

        yield from _dual_path(p, 1, RunEnv(), lambda eng: _CTX7.from_int(
            4 if eng == "exact" else 5, 1), lhs, "mult=2")
        yield 1, _CTX7.from_int(3, 1), _CTX7.from_int(3, 1), "later"

    assert _probe(monkeypatch, 3, mismatch) == _row(
        1, 4, 5, "fail", "cross-path mismatch (exact vs modular) at mult=2"
    )

    def raises(p, env):
        yield 1, _CTX7.from_int(3, 1), _CTX7.from_int(3, 1), "first"
        raise RuntimeError("in a sub-case")

    assert _probe(monkeypatch, 3, raises) == _row(3, None, None, "fail",
                                                  "RuntimeError: in a sub-case")


def test_a_multi_case_row_that_passes_is_its_last_sub_case(monkeypatch):
    """With no failure the last passing sub-case is the row; a skipped one,
    a yielded _NoRoute, is passed over."""
    def run(p, env):
        yield 1, _CTX7.from_int(3, 1), _CTX7.from_int(3, 1), "a"
        yield 2, _CTX7.from_int(5, 2), _CTX7.from_int(54, 3), "b"
        yield _NoRoute("no route")

    assert _probe(monkeypatch, 3, run) == _row(2, 5, 5, "pass")


def test_a_multi_case_check_with_no_sub_case_is_a_skip(monkeypatch):
    """No sub-case, or skipped ones only: a skip at the registered mod_exp,
    which gives the skipped sub-cases' reason."""
    want = _row(3, None, None, "skipped", "no admissible sub-case")
    assert _probe(monkeypatch, 3, lambda p, env: iter(())) == want
    assert _probe(monkeypatch, 3, lambda p, env: [_NoRoute("x")]) == _row(
        3, None, None, "skipped", "x"
    )


def test_a_multi_case_skip_gives_the_distinct_reasons_of_its_sub_cases(monkeypatch):
    """Skipped sub-cases only: their distinct reasons in order, at the
    registered mod_exp. lehmer at 227 on the exact engine skips both of its
    sub-cases at the oracle cap."""
    def run(p, env):
        for why in ("x", "y", "x"):
            yield _NoRoute(why)

    assert _probe(monkeypatch, 3, run) == _row(3, None, None, "skipped", "x; y")
    row = execute_check("lehmer", 227, RunEnv(engine="exact"))
    assert row == CongruenceCheckResult("lehmer", 227, 1, None, None, "skipped",
                                        "exact oracle cap")


@pytest.mark.parametrize("check_id,p", [("cor35_tiers", 11), ("folklore", 13), ("kummer", 17),
                                        ("prop22", 7), ("carlitz", 13), ("lemma26_qdiff", 5),
                                        ("lehmer", 13), ("glaisher_beeger", 13),
                                        ("thm_main_p2", 11), ("bundle_kummer_chain", 11)])
def test_a_multi_case_check_makes_one_row(monkeypatch, check_id, p):
    """Its sub-cases are compared, not made into rows: execute_check builds
    the row it returns and no other, here a pass over many sub-cases. The
    dual-path checks (lehmer's two included) make one row on both engines."""
    env = RunEnv()
    want = execute_check(check_id, p, env)
    made = []
    init = CongruenceCheckResult.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(CongruenceCheckResult, "__init__", counted)
    assert execute_check(check_id, p, env) == want
    assert want.passed and len(made) == 1


def test_sub_cases_compare_residues_mod_p_r_and_other_values_exactly(monkeypatch):
    """3 and 10 agree mod 7 but not mod 49 as residues, and not at all as
    plain values (prop22's orders, prop34's remainders)."""
    def residues(r):
        return lambda p, env: [(r, _CTX7.from_int(3, 2), _CTX7.from_int(10, 2), "at r")]

    assert _probe(monkeypatch, 2, residues(1)) == _row(1, 3, 3, "pass")
    assert _probe(monkeypatch, 2, residues(2)) == _row(2, 3, 10, "fail", "at r")
    for lhs, rhs, status in ((3, 10, "fail"), (-1, 1, "fail"), (2, 2, "pass"),
                             (Fraction(7 ** 5, 2), Fraction(7 ** 5, 2), "pass")):
        row = _probe(monkeypatch, 0, lambda p, env: [(1, lhs, rhs, "plain")])
        assert row == _row(1, lhs, rhs, status, "plain" if status == "fail" else "")


def test_an_error_row_carries_the_runs_exponent(monkeypatch):
    """lemma26_qdiff reads the run's mod_exp: its error rows carry it, as its
    pass rows and its p = 2 skip do."""
    import wilsonlab.registry as registry

    env = RunEnv(mod_exp=3)
    assert execute_check("lemma26_qdiff", 5, env).mod_exp == 3
    assert execute_check("lemma26_qdiff", 2, env).mod_exp == 3

    def boom(*args):
        raise RuntimeError("synthetic")

    monkeypatch.setattr(registry, "q_sum", boom)
    assert execute_check("lemma26_qdiff", 5, env) == CongruenceCheckResult(
        "lemma26_qdiff", 5, 3, None, None, "fail", "RuntimeError: synthetic"
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


EXACT_ONLY_REASONS = {
    "kummer": "indices 4, 14",
    "carlitz": "mult=1, k=0",
    "cor35_tiers": "d=1, r=1",
    "folklore": "m=4, K=1",
    "prop22": "branch at n=10",
}


def test_one_exact_route_feeds_every_exact_only_check():
    """kummer, carlitz and prop22, and the oracle side of cor35_tiers and
    folklore, read their residues from the exact route's memo on the run's
    table: one skewed entry at (11, 4) and one at (11, 10) fail all five.
    The tables are this test's own, since the memo lives on its table."""

    def rows(table):
        env = RunEnv(table=table)
        return {cid: execute_check(cid, 11, env) for cid in EXACT_ONLY_REASONS}

    assert all(r.passed for r in rows(BernoulliTable.build(AUTO_ORACLE_CAP)).values())
    table = BernoulliTable.build(AUTO_ORACLE_CAP)
    ctx = PrimePowerContext(11)
    for m in (4, 10):
        true = reduce_rational(beta_value(m, 11, table), ctx, 6)
        table.reduced[11, m] = ctx.from_int(true.residue + 1, 6)
    got = {cid: (r.status, r.reason) for cid, r in rows(table).items()}
    assert got == {cid: ("fail", why) for cid, why in EXACT_ONLY_REASONS.items()}


def test_prop22_reports_a_short_order_as_its_ord_row():
    """A table whose B_14 is 1/7 (the true value is 7/6): B_14/14 has no
    residue mod 7, and prop22's row says which order falls short."""
    values = [BernoulliTable.build(60).bernoulli(n) for n in range(61)]
    values[14] = Fraction(1, 7)
    row = execute_check("prop22", 7, RunEnv(table=BernoulliTable(values)))
    assert (row.status, row.reason) == ("fail", "ord at n=14: -1 < 1")
    assert (row.mod_exp, row.lhs, row.rhs) == (0, -1, 1)


def test_the_readme_library_example_runs():
    """The python block under the README's "Library use" heading runs as
    written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "bundle(p, 4" in code
    exec(compile(code, "README.md", "exec"), {})


def test_reduction_chain_fails_per_engine(monkeypatch):
    """A modular p^4 tier that no longer truncates to the p^3 one fails the
    chain under 'modular' and under 'both', whose exact side still passes."""
    import wilsonlab.registry as registry

    real_bundle = registry.bundle

    def skewed_bundle(p, r=4, engine="modular", table=None):
        b = real_bundle(p, r, engine, table)
        if engine != "modular" or r != 4:
            return b
        return {
            key: v.ctx.from_int(v.residue + p ** 2, v.prec) if key[0] == 0 else v
            for key, v in b.items()
        }

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
    (2, 97, "both"): "91da1e421550b30b",
    (2, 97, "exact"): "ec7f87da78ee67ff",
    (2, 97, "modular"): "985e57e21747aabe",
    (100, 160, "both"): "188586b4c6178343",
    (100, 160, "exact"): "1ce376a9f4621a0f",
    (100, 160, "modular"): "0bea455b3678bd60",
    # past the exact table: every tier value is the modular engine's
    (1103, 1117, "modular"): "abb333b0fc90508d",
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


def test_irregular_scan_matches_the_per_prime_reference(wieferich_table):
    """One kernel call through 1093, the base-2 Wieferich prime, against a
    classify_prime loop over the exact table: a prime's verdict does not
    depend on the other primes given. Then scans at every limit to 60 and
    at the limits around a few primes, against the same verdicts."""
    primes = [p for p in primes_up_to(1093) if p >= 5]
    irregular = [p for p in primes if classify_prime(p, wieferich_table).irregular]
    assert irregular_primes(primes) == irregular
    # OEIS A000928: 47 irregular primes below 700, the last 691
    below_700 = [p for p in irregular if p < 700]
    assert len(below_700) == 47 and below_700[-1] == 691
    limits = list(range(61)) + [n + d for n in (67, 101, 691, 1093) for d in (-1, 0, 1)]
    for limit in limits:
        assert scan_primes("irregular", limit) == [p for p in irregular if p <= limit], limit


def test_irregular_scan_builds_no_table(monkeypatch):
    builds = _count_table_builds(monkeypatch)
    assert scan_primes("irregular", 10) == []
    assert scan_primes("irregular", 700)[-1] == 691
    assert builds == []


@pytest.mark.parametrize("limit", [2404, 2410])
def test_irregular_scan_below_the_cap_needs_only_its_largest_prime(monkeypatch, limit):
    """2399, the largest prime <= 2410, needs B up to 2396 <= DESK_CAP: the
    scan runs rather than refusing limit - 3 > DESK_CAP, and builds no table."""
    builds = _count_table_builds(monkeypatch)
    out = scan_primes("irregular", limit)
    assert len(out) == 143 and out[-1] == 2389 and 2399 - 3 <= DESK_CAP
    assert builds == []


@pytest.mark.parametrize("limit,q", [(2411, 2411), (2416, 2411), (10**23, 10**23 - 23)])
def test_irregular_scan_past_the_cap_names_its_own_bound(monkeypatch, capsys, limit, q):
    builds = _count_table_builds(monkeypatch)
    assert is_prime(q) and not any(is_prime(n) for n in range(q + 1, limit + 1))
    assert _outcome(capsys, ["scan", "--class", "irregular", "--limit", str(limit)]) == (
        2, "", f"error: irregular scan to {limit} needs B up to {q - 3}, "
        f"past the exact table's cap at index {DESK_CAP}\n")
    assert builds == []


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
    left-hand-side oracles: with the memo emptied and its sieve, its
    smallest-prime-factor list and its step patched to raise, they and the
    checks built on them alone still run, and a memo holding a wrong
    t: a -> a^(p-1) does not move them."""
    from wilsonlab import modular, padic
    from wilsonlab.quotients import factorial_mod, fermat_quotient, q_sum

    def boom(*args):
        raise AssertionError("power-sum kernel called")

    spf = modular._smallest_prime_factors
    monkeypatch.setattr(modular, "_sieve_powers", boom)
    monkeypatch.setattr(modular, "_smallest_prime_factors", boom)
    monkeypatch.setattr(modular, "_step_powers", boom)
    padic.work.cache_clear()
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
    monkeypatch.setattr(modular, "_smallest_prime_factors", spf)
    p = 101
    modular.power_sum_mod(p - 1, p, 8)  # the memo now holds t mod p^8
    padic.work(p).quotients = None
    assert padic.work(p).power_sums.t[0] == 8
    for n in (1, 2, 3):
        qs = [(pow(a, p - 1, p ** 4) - 1) // p for a in range(1, p)]
        assert q_sum(p, n, 3, "direct").residue == sum(q ** n for q in qs) % p ** 3


TIER_CHECK_IDS = (
    "thm_main_p3,thm_main2_p4,thm_main3_q1_r4,thm_main3_q2_r4,thm_main3_q3_r4,"
    "thm_main3_q4_r4,prop37,reduction_chain,gen_kummer_r4,lemma26_qdiff,"
    "thm_kel_psi_r4,bundle_kummer_chain"
)


def test_tier_checks_compute_each_power_sum_once_at_every_prime(power_sum_runs):
    """The twelve tier checks at 1103..1117 ask 36 distinct power sums. Each
    prime runs its p^4 checks before thm_main_p3 and bundle_kummer_chain,
    and lemma26_qdiff first among them, so it asks each sum at its final
    precision first, its difference side's S_{d(p-1)} at p^8 included:
    12 power lists a prime, 16 when thm_main2_p4 asked them at p^5 first
    and 22 when thm_main_p3 ran first. All but 6, two sieve passes a prime
    (its t and the first list of column -2), are steps, one product per a
    from the list p - 1 below (46 sieve passes without the step rule)."""
    rep = run_suite(make_spec(TIER_CHECK_IDS, 1103, 1117, engine="modular"))
    assert rep.summary == {"pass": 36, "fail": 0, "skipped": 0}
    assert len({(n, p) for _, n, p, _ in power_sum_runs}) == 36
    kinds = [kind for kind, *_ in power_sum_runs]
    assert (kinds.count("sieve"), kinds.count("step")) == (6, 30)
    for p in (1103, 1109, 1117):
        assert [q for _, _, q, _ in power_sum_runs].count(p) == 12


@pytest.mark.parametrize("lo,hi,engine,lists", [(2, 97, "both", 650), (100, 160, "modular", 502)])
def test_each_power_list_is_made_once_per_prime(power_sum_runs, lo, hi, engine, lists):
    """Every check of a prime asks its power sums at their top precision
    first: the run order puts the highest exponents first, and folklore and
    cor35_tiers ask K = 2 and r = 6 before the lower ones. So a run makes
    each (n, p) once. At 100..160 folklore's m = 118 and 242 pass p - 1."""
    run_suite(make_spec("all", lo, hi, engine=engine))
    made = [(n, p) for _, n, p, _ in power_sum_runs]
    assert len(made) == lists
    assert len(set(made)) == len(made)


def test_a_runs_kernel_work_does_not_depend_on_earlier_calls(power_sum_runs):
    """No power-sum state crosses primes: a run makes the same power lists,
    (kind, n, p, modulus) in order, and the same rows from an empty memo as
    after other sums at another prime, the state that a forked worker
    inherits from its parent."""
    from wilsonlab import modular

    spec = make_spec("folklore,cor35_tiers,lemma26_qdiff", 5, 31, engine="modular")
    cold = run_suite(spec).results
    cold_runs = list(power_sum_runs)
    for n in range(2, 60, 2):
        modular.power_sum_mod(n, 3, 9)
    power_sum_runs.clear()
    assert run_suite(spec).results == cold and power_sum_runs == cold_runs
    assert len(cold_runs) == 217


def test_power_sum_side_never_reads_the_quotient_memo(monkeypatch):
    """The difference method, bundle and the power-sum checks are the
    right-hand sides: with the Fermat-quotient memo emptied and its kernel
    patched to raise, they still run, and q_sum(..., "direct") does not."""
    from wilsonlab import padic, quotients
    from wilsonlab.modular import bundle

    def boom(p, R):
        raise AssertionError("Fermat-quotient kernel called")

    monkeypatch.setattr(quotients, "_fermat_quotients", boom)
    padic.work.cache_clear()
    assert quotients.q_sum(1103, 2, 3, "difference").prec == 3
    assert len(bundle(1103, 4, "modular")) == 6
    rep = run_suite(make_spec("thm_main_p3,thm_main2_p4,gen_kummer_r4", 5, 60, engine="modular"))
    assert rep.ok and rep.summary["pass"] > 0
    with pytest.raises(AssertionError):
        quotients.q_sum(1103, 2, 3, "direct")


def test_a_skewed_power_sum_fails_lemma26(monkeypatch, power_sum_runs):
    """lemma26_qdiff compares the direct q_sum with the difference method,
    which reads the memo: one wrong sum, S_{2(p-1)}, must fail it, whether
    the memo sieves or steps it."""
    from wilsonlab import modular, padic

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
                        lambda n, below, t, m, reduce:
                        skew(n, len(t), step(n, below, t, m, reduce)))
    power_sum_runs.clear()
    padic.work.cache_clear()
    assert [r.status for r in run_suite(spec).results] == ["fail"] * 4
    assert {kind for kind, n, p, _ in power_sum_runs if n == 2 * (p - 1)} == {"step"}


def test_a_skewed_fermat_quotient_fails_the_direct_checks(monkeypatch):
    """The direct q_sum feeds these verdicts through the quotient memo (prop37
    through its left-hand side p^(n-1) Q_p(n) / n): one wrong Fermat
    quotient, q_p(2) + 1, must fail every row of each."""
    from wilsonlab import padic, quotients

    real = quotients._fermat_quotients

    def skewed(p, R):
        qs = real(p, R)
        qs[1] += 1
        return qs

    spec = make_spec("lemma26_qdiff,prop37,thm_main3_q1_r4,thm_kel_psi_r4", 11, 23)
    padic.work.cache_clear()
    rep = run_suite(spec)
    assert len(rep.results) == 20 and rep.summary["pass"] == 20
    monkeypatch.setattr(quotients, "_fermat_quotients", skewed)
    padic.work.cache_clear()
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


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_cli_verify_calls_the_formatter_bound_in_its_module(monkeypatch, capsys, fmt):
    """--format is looked up in the cli module's bindings when called, so a
    wrapper bound there (a tracer's) sees the report being written."""
    import wilsonlab.cli as cli

    real = getattr(cli, f"report_to_{fmt}")
    seen = []

    def wrapped(report):
        seen.append(report.spec.suite_id)
        return real(report)

    monkeypatch.setattr(cli, f"report_to_{fmt}", wrapped)
    assert main(["verify", "--suite", "lerch", "--p-min", "3", "--p-max", "7",
                 "--format", fmt]) == 0
    assert seen == ["lerch"]
    assert "lerch" in capsys.readouterr().out


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
    is built for a value that no bundle can give. The qsum value reads a
    tier other than its r, which the refusal names."""
    builds = _count_table_builds(monkeypatch)
    tier = "Q_3(300) mod 3^1 needs tier r = 300; " if argv[0] == "qsum" else ""
    assert _outcome(capsys, argv) == (2, "", f"error: {tier}bundle supports 1 <= r <= 4\n")
    assert builds == []


def test_a_qsum_refusal_names_the_tier_it_needs(capsys):
    """qsum --n n --mod-exp r reads the tier r + n - 1; a refusal names it,
    whether no bundle has that tier or no engine has it at p."""
    for args, err in (
        (("101", "3", "3"), "Q_101(3) mod 101^3 needs tier r = 5; bundle supports 1 <= r <= 4"),
        (("3", "2", "2"), "Q_3(2) mod 3^2 needs tier r = 3; exact: r = 3 not defined at p = 3"),
    ):
        p, n, r = args
        argv = ["qsum", "--p", p, "--n", n, "--mod-exp", r, "--method", "bernoulli"]
        assert _outcome(capsys, argv) == (2, "", f"error: {err}\n")


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


def test_cli_bernoulli_past_the_cap_names_only_the_cap(capsys):
    """The bernoulli command has no engine to switch to: the refusal names
    the cap and nothing else."""
    assert _outcome(capsys, ["bernoulli", "--max-index", str(DESK_CAP + 1)]) == (
        2, "", f"error: exact table capped at index {DESK_CAP}\n")


def test_cli_bernoulli_prints_the_whole_table_at_the_cap(capsys):
    """From B_2064 on a numerator has more than CPython's default 4300
    digits; the command prints them all and leaves the caller's limit as it
    was. The digest is that of the full table to DESK_CAP, so it also pins
    the build there."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert main(["bernoulli", "--max-index", str(DESK_CAP)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count("\n") == DESK_CAP + 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cefe70627dee504b6079993b64f0d3fc953c704b63421c8c9b0fb47f6a6f3179")
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


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
