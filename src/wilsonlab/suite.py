"""Suite runner: prime-range scans with parallel fan-out and reports.

The unit of parallelism is one (check, prime) pair. Workers share nothing:
a pool worker builds its own exact table the first time one of its tasks
needs it, and the report is sorted after collection so the output is
byte-identical for any worker count (apart from the wall_time field).
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import time
from dataclasses import dataclass, field

from .bernoulli import BernoulliTable
from .congruences import classify_prime
from .padic import primes_up_to
from .quotients import factorials_mod
from .registry import ALL_CHECK_IDS, REGISTRY, RunEnv, execute_check
from .result import FAIL, PASS, SKIPPED, CongruenceCheckResult


class UnknownCheck(Exception):
    pass


class UnknownRange(Exception):
    pass


@dataclass(frozen=True)
class SuiteSpec:
    suite_id: str
    check_ids: tuple[str, ...]
    p_min: int
    p_max: int
    mod_exp: int | None = None
    engine: str = "both"

    def __post_init__(self):
        if not self.check_ids:
            raise UnknownCheck(f"suite {self.suite_id!r} names no check")
        if self.p_min < 0:
            raise UnknownRange(f"p_min must be >= 0, got {self.p_min}")
        if self.p_min > self.p_max:
            raise UnknownRange(f"p_min {self.p_min} > p_max {self.p_max}")
        if self.mod_exp is not None and self.mod_exp < 1:
            raise UnknownRange(f"mod_exp must be >= 1, got {self.mod_exp}")
        if self.engine not in ("exact", "modular", "both"):
            raise UnknownCheck(f"unknown engine {self.engine!r}")
        for cid in self.check_ids:
            if cid not in REGISTRY:
                raise UnknownCheck(f"unknown check id {cid!r}")


def make_spec(
    suite: str,
    p_min: int,
    p_max: int,
    mod_exp: int | None = None,
    engine: str = "both",
) -> SuiteSpec:
    """Resolve a suite argument: 'all', one check id, or a comma list."""
    if suite == "all":
        ids = ALL_CHECK_IDS
    else:
        ids = tuple(s.strip() for s in suite.split(",") if s.strip())
    return SuiteSpec(suite, ids, p_min, p_max, mod_exp, engine)


@dataclass
class SuiteReport:
    spec: SuiteSpec
    results: list[CongruenceCheckResult]
    summary: dict[str, int] = field(default_factory=dict)
    wall_time: float = 0.0

    def __post_init__(self):
        if not self.summary:
            self.summary = {
                PASS: sum(r.status == PASS for r in self.results),
                FAIL: sum(r.status == FAIL for r in self.results),
                SKIPPED: sum(r.status == SKIPPED for r in self.results),
            }

    @property
    def ok(self) -> bool:
        return self.summary[FAIL] == 0


def _task_values(defn, p_min: int, p_max: int) -> list[int]:
    if defn.domain == "prime":
        return [p for p in primes_up_to(p_max) if p >= p_min]
    start = max(p_min, defn.index_min)
    if defn.index_step > 1:
        start += (-start) % defn.index_step
    return list(range(start, p_max + 1, defn.index_step))


_WORKER_ENV: RunEnv | None = None


def _run_task(task: tuple[str, int]) -> CongruenceCheckResult:
    return execute_check(task[0], task[1], _WORKER_ENV)


def run_suite(
    spec: SuiteSpec,
    jobs: int = 1,
    table: BernoulliTable | None = None,
) -> SuiteReport:
    """Run every (check, prime) pair of the spec and aggregate a report.

    The exact side reads the given table. Without one, the run builds a
    table to registry.AUTO_ORACLE_CAP the first time a check needs it, once
    per process, and never when no check does; exact comparisons past the
    table appear as skipped rows. Results are sorted by (check, p), so
    reports do not depend on the worker count.
    """
    global _WORKER_ENV
    t0 = time.monotonic()
    env = RunEnv(engine=spec.engine, table=table, mod_exp=spec.mod_exp)

    tasks = [
        (cid, v)
        for cid in spec.check_ids
        for v in _task_values(REGISTRY[cid], spec.p_min, spec.p_max)
    ]
    _WORKER_ENV = env
    try:
        if jobs <= 1 or len(tasks) < 2:
            results = [_run_task(t) for t in tasks]
        else:
            ctx = multiprocessing.get_context("fork")
            chunk = max(1, len(tasks) // (jobs * 8))
            with ctx.Pool(processes=jobs) as pool:
                results = pool.map(_run_task, tasks, chunksize=chunk)
    finally:
        _WORKER_ENV = None
    results.sort(key=lambda r: (r.check_id, r.p))
    return SuiteReport(spec, results, wall_time=time.monotonic() - t0)


def scan_primes(klass: str, limit: int) -> list[int]:
    """Primes up to the limit in one of the classes 'wilson' or 'irregular'.

    'wilson' keeps the odd p with (p-1)! = -1 mod p^2, reading every
    (p-1)! mod p^2 off one accumulating remainder tree
    (quotients.factorials_mod), quasi-linear in the limit. 'irregular'
    classifies each p >= 5 against one exact table to index limit - 3.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if klass == "wilson":
        primes = primes_up_to(limit)
        f = factorials_mod(primes, 2)
        return [p for p in primes if p > 2 and (f[p] + 1) % (p * p) == 0]
    if klass == "irregular":
        table = BernoulliTable.build(max(0, limit - 3))
        return [
            p for p in primes_up_to(limit)
            if p >= 5 and classify_prime(p, table).irregular
        ]
    raise ValueError(f"unknown class {klass!r}")


# -- serialization ------------------------------------------------------------


def _row(r: CongruenceCheckResult) -> dict:
    return {
        "check": r.check_id,
        "p": r.p,
        "mod_exp": r.mod_exp,
        "lhs": "" if r.lhs is None else str(r.lhs),
        "rhs": "" if r.rhs is None else str(r.rhs),
        "status": r.status_text(),
    }


def report_to_json(report: SuiteReport) -> str:
    doc = {
        "suite": report.spec.suite_id,
        "params": {
            "p_min": report.spec.p_min,
            "p_max": report.spec.p_max,
            "mod_exp": report.spec.mod_exp,
            "engine": report.spec.engine,
        },
        "results": [_row(r) for r in report.results],
        "summary": dict(report.summary),
        "wall_time": round(report.wall_time, 3),
    }
    return json.dumps(doc, indent=1)


def report_to_csv(report: SuiteReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=["check", "p", "mod_exp", "lhs", "rhs", "status"]
    )
    writer.writeheader()
    for r in report.results:
        writer.writerow(_row(r))
    return buf.getvalue()


def report_to_text(report: SuiteReport) -> str:
    lines = []
    for r in report.results:
        row = _row(r)
        lines.append(
            f"{row['check']:<20} p={row['p']:<7} mod p^{row['mod_exp']} "
            f"lhs={row['lhs']} rhs={row['rhs']} {row['status']}"
        )
    s = report.summary
    lines.append(
        f"-- {s[PASS]} pass, {s[FAIL]} fail, {s[SKIPPED]} skipped "
        f"in {report.wall_time:.2f}s"
    )
    return "\n".join(lines) + "\n"
