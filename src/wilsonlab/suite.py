"""Suite runner: prime-range scans with parallel fan-out and reports.

The tasks of a run are its (check, prime-or-index) pairs, ordered by value
and, within one value, in the spec's check order, so that each process
works through one prime at a time and power_sum_mod's per-prime memo stays
warm. With jobs > 1 the ordered list is cut into contiguous slices of about
equal weight (a task weighs its value); the calling process runs the first
slice and one forked process runs each other slice. Processes share
nothing: each builds its own exact table the first time one of its tasks
needs it, and the report is sorted after collection so the output is
byte-identical for any worker count (apart from the wall_time field).
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

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
        for i, cid in enumerate(self.check_ids):
            if cid not in REGISTRY:
                raise UnknownCheck(f"unknown check id {cid!r}")
            if cid in self.check_ids[:i]:
                raise UnknownCheck(f"check id {cid!r} named twice")
        try:
            has_values = any(_task_values(REGISTRY[c], self.p_min, self.p_max)
                             for c in self.check_ids)
        except (OverflowError, ValueError) as exc:  # a range too large to list
            raise UnknownRange(f"p_max {self.p_max} is too large") from exc
        if not has_values:
            raise UnknownRange(
                f"no selected check has a value in [{self.p_min}, {self.p_max}]"
            )
        if self.mod_exp is not None and not any(
            REGISTRY[cid].reads_mod_exp for cid in self.check_ids
        ):
            raise UnknownRange(
                f"mod_exp {self.mod_exp} is read by none of the selected checks"
            )


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


def _slices(tasks: list, n: int) -> list[list]:
    """Cut tasks into n contiguous non-empty slices of about equal weight,
    a task weighing max(value, 1). Needs 1 <= n <= max(1, len(tasks))."""
    prefix = [0, *accumulate(max(v, 1) for _, v in tasks)]
    cuts = [0]
    for k in range(1, n):
        # the cut whose running weight is nearest to k/n of the total
        target = prefix[-1] * k / n
        j = bisect_left(prefix, target)
        if target - prefix[j - 1] < prefix[j] - target:
            j -= 1
        cuts.append(min(max(j, cuts[-1] + 1), len(tasks) - (n - k)))
    cuts.append(len(tasks))
    return [tasks[a:b] for a, b in zip(cuts, cuts[1:])]


def _run_tasks(tasks, env: RunEnv) -> list[CongruenceCheckResult]:
    return [execute_check(cid, v, env) for cid, v in tasks]


def _child(tasks, env: RunEnv, conn) -> None:
    """Body of a forked worker: run one slice and send its rows back."""
    conn.send(_run_tasks(tasks, env))
    conn.close()


def run_suite(
    spec: SuiteSpec,
    jobs: int = 1,
    table: BernoulliTable | None = None,
) -> SuiteReport:
    """Run every (check, prime) pair of the spec and aggregate a report.

    The exact side reads the given table. Without one, the run builds a
    table to registry.AUTO_ORACLE_CAP the first time a check needs it, once
    per process, and never when no check does; exact comparisons past the
    table appear as skipped rows. With jobs > 1 the calling process runs
    one slice of the tasks and min(jobs, tasks) - 1 forked processes run
    the others; a worker that dies without sending its rows is a
    RuntimeError. Results are sorted by (check, p), so reports do not
    depend on the worker count.
    """
    t0 = time.monotonic()
    env = RunEnv(engine=spec.engine, table=table, mod_exp=spec.mod_exp)
    tasks = sorted(
        ((cid, v)
         for cid in spec.check_ids
         for v in _task_values(REGISTRY[cid], spec.p_min, spec.p_max)),
        key=lambda t: t[1],
    )
    first, *rest = _slices(tasks, max(1, min(jobs, len(tasks))))
    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for part in rest:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child, args=(part, env, send))
            proc.start()
            send.close()  # so that recv sees EOF if the worker dies
            workers.append((proc, recv))
        results = _run_tasks(first, env)
        for proc, recv in workers:
            try:
                results += recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"suite worker exited with code {proc.exitcode} "
                    "without sending its rows"
                ) from None
    except BaseException:
        for proc, _ in workers:
            proc.terminate()
        raise
    finally:
        for proc, recv in workers:
            recv.close()
            proc.join()
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
