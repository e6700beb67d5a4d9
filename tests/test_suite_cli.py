import hashlib
import json
import os
import re
import signal

import pytest

from wilsonlab.bernoulli import BernoulliTable
from wilsonlab.cli import main
from wilsonlab.modular import DividedBernoulliBundle
from wilsonlab.padic import primes_up_to
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


def test_a_worker_that_dies_without_sending_is_an_error(monkeypatch):
    import wilsonlab.suite as suite

    def hung(signum, frame):
        raise TimeoutError("run_suite did not return")

    monkeypatch.setattr(suite, "_child", lambda tasks, env, conn: os._exit(3))
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match="exited with code 3"):
            run_suite(make_spec("lerch", 2, 60), jobs=3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
    """Make every modular right-hand side wrong while the exact oracle and
    the left-hand sides stay right. The bar at d moves by 1 + p*d^3: by the
    same amount mod p, so the Kummer chains still hold, and by a cubic in d,
    so the forward differences of the power-sum tiers move as well. The
    adjusted value at d(p-1) moves by d, so lehmer_diff's difference moves."""
    import wilsonlab.registry as registry

    real_bundle, real_bhat = registry.bundle, registry.adjusted_bernoulli_mod

    def skewed_bundle(p, r=4, engine="modular", table=None):
        b = real_bundle(p, r, engine, table)
        if engine != "modular":
            return b
        bars = tuple(
            v.ctx.from_int(v.residue + 1 + p * d ** 3, v.prec)
            for d, v in enumerate(b.bars, 1)
        )
        return DividedBernoulliBundle(p, r, bars, b.bars2)

    def skewed_bhat(d, p, r, table=None):
        v = real_bhat(d, p, r, table)
        return v.ctx.from_int(v.residue + d, v.prec)

    monkeypatch.setattr(registry, "bundle", skewed_bundle)
    monkeypatch.setattr(registry, "adjusted_bernoulli_mod", skewed_bhat)


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
    left-hand-side oracles: with the memo emptied and its kernel patched to
    raise, they and the checks built on them alone still run."""
    from wilsonlab import modular
    from wilsonlab.quotients import factorial_mod, fermat_quotient, q_sum

    def boom(n, m, spf):
        raise AssertionError("power-sum kernel called")

    monkeypatch.setattr(modular, "_sieve_power_sum", boom)
    monkeypatch.setattr(modular, "_memo", modular._PowerSumMemo(0))
    for p in (5, 7, 101, 1103):
        assert (factorial_mod(p, 3).residue + 1) % p == 0
        assert wilson_quotient(p, 2).residue % p == q_sum(p, 1, 1, "direct").residue
        assert fermat_quotient(2, p, 2).prec == 2
    rep = run_suite(make_spec("lerch,thm_kel_psi_r1,thm_kel_psi_r4", 2, 60))
    assert rep.ok and rep.summary["pass"] > 0
    with pytest.raises(AssertionError):
        q_sum(7, 1, 1, "difference")


def test_a_skewed_power_sum_fails_lemma26(monkeypatch):
    """lemma26_qdiff compares the direct q_sum with the difference method,
    which reads the memo: one wrong sum, S_{2(p-1)}, must fail it."""
    from wilsonlab import modular

    real = modular._sieve_power_sum

    def skewed(n, m, spf):
        v = real(n, m, spf)
        return (v + 1) % m if n == 2 * (len(spf) - 1) else v

    spec = make_spec("lemma26_qdiff", 5, 13)
    monkeypatch.setattr(modular, "_memo", modular._PowerSumMemo(0))
    assert run_suite(spec).ok
    monkeypatch.setattr(modular, "_sieve_power_sum", skewed)
    monkeypatch.setattr(modular, "_memo", modular._PowerSumMemo(0))
    assert [r.status for r in run_suite(spec).results] == ["fail"] * 4


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
        ["qsum", "--p", "4", "--n", "1"],
        ["wilson", "--p", "7", "--mod-exp", "0"],
        ["scan", "--class", "wilson", "--limit", "-5"],
        ["verify", "--jobs", "0"],
        ["verify", "--p-min", "-5"],
        ["verify", "--mod-exp", "-3"],
        ["verify", "--mod-exp", "0"],
        ["verify", "--suite", ","],
        ["verify", "--suite", "lerch,thm_main_p2", "--p-max", "11", "--mod-exp", "99"],
    ],
)
def test_cli_bad_bernoulli_input_is_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_cli_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--engine", "psychic"])
    assert exc.value.code == 2
