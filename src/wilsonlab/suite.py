"""Suite runner: prime-range scans with parallel fan-out and reports.

The tasks of a run are its (check, prime-or-index) pairs, ordered by value
and, within one value, from the highest effective exponent down
(registry.effective_mod_exp), so that each process works through one prime
at a time, the prime's work in padic.work's one slot stays warm until the
next prime drops it, and a prime's first tasks ask its power sums,
quotients and factorial at the highest precision the prime needs, which
the later tasks reduce. A tie runs a check that reads the
run's mod_exp first, then the spec's check order. That check is lemma 2.6
(lemma26_qdiff): its difference side asks S_{k(p-1)} at p^(r+n), n up to
4, above the p^(r+1) that every tier at the same r asks. The checks that
ask one sum at several precisions, folklore and cor35_tiers, ask the top
one first themselves, so every prime makes each power list once, at its
final precision, whatever ran before it. With jobs > 1 the ordered list is
cut between values into contiguous slices of about equal weight (a task
weighs its value), so no prime is split across processes and a run with
fewer values than jobs forks fewer workers; the calling process runs the
first slice and one process made by os.fork runs each other slice, sending
its rows back pickled over an os.pipe (no process-pool library: its lazy
imports made a pool pass's first fork cost several times a later one).
Processes share nothing: each builds its own exact table the first time
one of its tasks needs it, and the report is sorted after collection so
the output is byte-identical for any worker count (apart from the
wall_time field).

The modules a run uses load with the package; traceback, signal and csv,
read only on an error path or for csv output, are imported where they are
used.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import sys
import time
from bisect import bisect_left
from itertools import accumulate

from .bernoulli import DESK_CAP, BernoulliTable, IndexOutOfTable
from .congruences import irregular_primes
from .padic import Frozen, is_prime, primes_up_to
from .quotients import factorials_mod
from .registry import ALL_CHECK_IDS, REGISTRY, RunEnv, effective_mod_exp, execute_check
from .result import FAIL, PASS, SKIPPED, CongruenceCheckResult


class UnknownCheck(Exception):
    pass


class UnknownRange(Exception):
    pass


class SuiteSpec(Frozen):
    __slots__ = _fields = ("suite_id", "check_ids", "p_min", "p_max", "mod_exp", "engine")

    def __init__(self, suite_id: str, check_ids: tuple[str, ...], p_min: int,
                 p_max: int, mod_exp: int | None = None, engine: str = "both"):
        self._init(suite_id, check_ids, p_min, p_max, mod_exp, engine)
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
            has_values = any(_task_values(self).values())
        except (OverflowError, ValueError, MemoryError) as exc:  # a range too large to list
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


class SuiteReport:
    """A run's rows, its pass/fail/skipped counts (counted from the rows
    unless given) and its wall time."""

    def __init__(self, spec: SuiteSpec, results: list[CongruenceCheckResult],
                 summary: dict[str, int] | None = None, wall_time: float = 0.0):
        self.spec = spec
        self.results = results
        self.summary = summary or {
            PASS: sum(r.status == PASS for r in results),
            FAIL: sum(r.status == FAIL for r in results),
            SKIPPED: sum(r.status == SKIPPED for r in results),
        }
        self.wall_time = wall_time

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def ok(self) -> bool:
        return self.summary[FAIL] == 0


def _task_values(spec: SuiteSpec) -> dict[str, list[int]]:
    """Each check's values in the spec's range: its indices, or the primes
    of the range, listed once for every check that runs at primes."""
    values: dict[str, list[int]] = {}
    primes = None
    for cid in spec.check_ids:
        defn = REGISTRY[cid]
        if defn.domain == "prime":
            if primes is None:
                primes = [p for p in primes_up_to(spec.p_max) if p >= spec.p_min]
            values[cid] = primes
            continue
        start = max(spec.p_min, defn.index_min)
        if defn.index_step > 1:
            start += (-start) % defn.index_step
        values[cid] = list(range(start, spec.p_max + 1, defn.index_step))
    return values


def _slices(tasks: list, n: int) -> list[list]:
    """Cut tasks, ordered by value, into min(n, number of values) contiguous
    non-empty slices of about equal weight, a task weighing max(value, 1),
    cutting only between values, so that no value is split. Needs n >= 1."""
    starts = [i for i, (_, v) in enumerate(tasks) if not i or v != tasks[i - 1][1]]
    bounds = [*starts, len(tasks)]
    n = min(n, len(starts))
    prefix = [0, *accumulate((b - a) * max(tasks[a][1], 1) for a, b in zip(bounds, bounds[1:]))]
    cuts = [0]
    for k in range(1, n):
        # the value boundary whose running weight is nearest to k/n of the total
        target = prefix[-1] * k / n
        j = bisect_left(prefix, target)
        if target - prefix[j - 1] < prefix[j] - target:
            j -= 1
        cuts.append(min(max(j, cuts[-1] + 1), len(starts) - (n - k)))
    cuts.append(len(starts))
    return [tasks[bounds[a]:bounds[b]] for a, b in zip(cuts, cuts[1:])]


def _run_tasks(tasks, env: RunEnv) -> list[CongruenceCheckResult]:
    return [execute_check(cid, v, env) for cid, v in tasks]


def _child(tasks, env: RunEnv, fd: int) -> None:
    """Body of a forked worker: run one slice and write its pickled rows to
    the pipe's write end fd."""
    with os.fdopen(fd, "wb") as out:
        out.write(pickle.dumps(_run_tasks(tasks, env)))


def _fork_worker(tasks, env: RunEnv) -> tuple[int, io.BufferedReader]:
    """Fork a worker that runs _child on one slice; return its pid and the
    read end of its pipe. The worker leaves by os._exit: code 0 once its
    rows are written, 1 (after printing the traceback) on any exception, so
    it never returns into the caller's code."""
    sys.stdout.flush()  # or the worker would write the buffered text again
    sys.stderr.flush()
    recv, send = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(recv)
        os.close(send)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(recv)
            _child(tasks, env, send)
            code = 0
        except BaseException:
            import traceback

            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(send)  # so that recv sees EOF when the worker exits
    return pid, os.fdopen(recv, "rb")


def run_suite(
    spec: SuiteSpec,
    jobs: int = 1,
    table: BernoulliTable | None = None,
) -> SuiteReport:
    """Run every (check, prime) pair of the spec and aggregate a report.

    The exact side reads the given table. Without one, the run builds a
    table to registry.AUTO_ORACLE_CAP the first time a check needs it, once
    per process, and never when no check does; exact comparisons past the
    table appear as skipped rows. The tasks of one value run from the
    highest effective exponent down, a tie led by a check that reads the
    run's mod_exp, since it asks its power sums the highest (see the module
    docstring). With jobs > 1 the tasks are cut
    between values into min(jobs, values) slices, so a prime's tasks all
    run in one process: the calling process runs the first slice, and one
    worker made by os.fork runs each other slice and sends its rows back
    pickled over an os.pipe; a one-value run forks none. The caller reads
    each pipe to EOF; a worker that exits without sending its rows is a
    RuntimeError naming its exit code. On any error the live workers get
    SIGTERM, and every worker is reaped before run_suite returns or raises.
    Results are sorted by (check, p), so reports do not depend on the
    worker count.
    """
    t0 = time.monotonic()
    env = RunEnv(engine=spec.engine, table=table, mod_exp=spec.mod_exp)
    rank = {cid: (-effective_mod_exp(cid, spec.mod_exp), not REGISTRY[cid].reads_mod_exp)
            for cid in spec.check_ids}
    tasks = sorted(
        ((cid, v) for cid, values in _task_values(spec).items() for v in values),
        key=lambda t: (t[1], rank[t[0]]),
    )
    first, *rest = _slices(tasks, max(1, jobs))
    workers = {}  # pid -> read end, for every worker not yet reaped
    try:
        for part in rest:
            pid, recv = _fork_worker(part, env)
            workers[pid] = recv
        results = _run_tasks(first, env)
        for pid, recv in list(workers.items()):
            data = recv.read()
            if not data:
                recv.close()
                del workers[pid]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise RuntimeError(
                    f"suite worker exited with code {code} "
                    "without sending its rows"
                )
            results += pickle.loads(data)
    except BaseException:
        from signal import SIGTERM

        for pid in workers:
            os.kill(pid, SIGTERM)
        raise
    finally:
        for pid, recv in workers.items():
            recv.close()
            os.waitpid(pid, 0)
    results.sort(key=lambda r: (r.check_id, r.p))
    return SuiteReport(spec, results, wall_time=time.monotonic() - t0)


def scan_primes(klass: str, limit: int) -> list[int]:
    """Primes up to the limit in one of the classes 'wilson' or 'irregular'.

    'wilson' keeps the odd p with (p-1)! = -1 mod p^2, reading every
    (p-1)! mod p^2 off one accumulating remainder tree
    (quotients.factorials_mod), quasi-linear in the limit. 'irregular'
    keeps the p >= 5 that divide a numerator of B_2..B_{p-3}: it classifies
    every p in one pass of the tangent recurrence mod a shrinking product of
    prime powers, with no exact table (congruences.irregular_primes). A
    q - 3 past bernoulli.DESK_CAP, q the largest prime <= limit, is still
    refused with IndexOutOfTable before the sieve runs, so that every scan
    accepted can be checked against the exact table.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if klass == "wilson":
        primes = primes_up_to(limit)
        f = factorials_mod(primes, 2)
        return [p for p in primes if p > 2 and (f[p] + 1) % (p * p) == 0]
    if klass == "irregular":
        q = next((n for n in range(limit, 4, -1) if is_prime(n)), None)
        if q is None:
            return []
        if q - 3 > DESK_CAP:
            raise IndexOutOfTable(
                f"irregular scan to {limit} needs B up to {q - 3}, "
                f"past the exact table's cap at index {DESK_CAP}"
            )
        primes = [p for p in primes_up_to(q) if p >= 5]
        return irregular_primes(primes)
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


_json_str = json.encoder.encode_basestring_ascii


def report_to_json(report: SuiteReport) -> str:
    """The report as json.dumps(doc, indent=1) writes it, byte for byte,
    doc being the suite id, the params, the rows as _row gives them, the
    summary and the wall time; its ints are plain ints and its exponents
    ints or None. The shape is fixed, so each row is written by one
    f-string, each string through the C encoder; json.dumps with an indent
    runs the pure-Python encoder, which holds every chunk of the document
    until its one join."""
    spec = report.spec
    rows = ",\n  ".join(
        f'{{\n   "check": {_json_str(r.check_id)},\n   "p": {r.p},\n'
        f'   "mod_exp": {"null" if r.mod_exp is None else r.mod_exp},\n'
        f'   "lhs": {_json_str("" if r.lhs is None else str(r.lhs))},\n'
        f'   "rhs": {_json_str("" if r.rhs is None else str(r.rhs))},\n'
        f'   "status": {_json_str(r.status_text())}\n  }}'
        for r in report.results
    )
    counts = ",\n  ".join(f"{_json_str(k)}: {v}" for k, v in report.summary.items())
    results = f"[\n  {rows}\n ]" if rows else "[]"
    summary = f"{{\n  {counts}\n }}" if counts else "{}"
    return (
        f'{{\n "suite": {_json_str(spec.suite_id)},\n "params": {{\n'
        f'  "p_min": {spec.p_min},\n  "p_max": {spec.p_max},\n'
        f'  "mod_exp": {"null" if spec.mod_exp is None else spec.mod_exp},\n'
        f'  "engine": {_json_str(spec.engine)}\n }},\n'
        f' "results": {results},\n "summary": {summary},\n'
        f' "wall_time": {json.dumps(round(report.wall_time, 3))}\n}}'
    )


def report_to_csv(report: SuiteReport) -> str:
    import csv

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
