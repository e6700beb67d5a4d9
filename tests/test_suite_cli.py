import json
import re

import pytest

from wilsonlab.cli import main
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


def test_single_check_run():
    rep = run_suite(make_spec("lerch", 3, 3))
    assert len(rep.results) == 1
    r = rep.results[0]
    assert r.passed and r.lhs == r.rhs == 1  # W_3 = 1 = Q_3(1) mod 3
    assert rep.ok


def test_report_sorted_and_deterministic_across_jobs():
    spec = make_spec("lerch,thm_main_p1,vsc,kummer", 2, 60)
    rep1 = run_suite(spec, jobs=1)
    rep2 = run_suite(spec, jobs=2)
    j1, j2 = report_to_json(rep1), report_to_json(rep2)
    strip = lambda s: re.sub(r'"wall_time": [0-9.]+', '"wall_time": 0', s)
    assert strip(j1) == strip(j2)
    keys = [(r.check_id, r.p) for r in rep1.results]
    assert keys == sorted(keys)


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
    assert all(r.status == "fail" and r.reason == "RuntimeError" for r in rep.results)


def test_engine_modular_runs_without_table():
    rep = run_suite(make_spec("thm_main_p2,thm_main_p3", 5, 60, engine="modular"))
    assert rep.ok
    assert rep.summary["pass"] > 0


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
