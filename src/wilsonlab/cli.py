"""Command-line harness.

Subcommands: verify (suite runs over a prime range), wilson and qsum
(single values by any method), bernoulli (exact table),
scan (prime classes), dn (polynomial denominator product). Exit codes:
0 success, 1 at least one check failed or the two paths of a Bernoulli-route
value disagreed, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .bernoulli import BernoulliTable, IndexOutOfTable, dn_product
from .congruences import q_sum_via_bernoulli, wilson_via_bernoulli
from .modular import HypothesisViolated, InadmissibleCase
from .padic import NotPrime
from .quotients import q_sum, wilson_quotient, wilson_via_psi
from .registry import ALL_CHECK_IDS, cross_checked
from .result import SKIPPED
from .suite import (
    UnknownCheck,
    UnknownRange,
    make_spec,
    report_to_csv,
    report_to_json,
    report_to_text,
    run_suite,
    scan_primes,
)

USAGE_ERROR = 2
# what a single-value command raises on bad arguments
_BAD_VALUE = (HypothesisViolated, InadmissibleCase, NotPrime, ValueError)


def _usage_error(msg) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return USAGE_ERROR


def cmd_verify(args) -> int:
    if args.jobs < 1:
        return _usage_error(f"--jobs must be >= 1, got {args.jobs}")
    try:
        spec = make_spec(args.suite, args.p_min, args.p_max, args.mod_exp, args.engine)
        # opened before any check runs, so an unwritable path costs no run
        sink = open(args.out, "w") if args.out else None
    except (UnknownCheck, UnknownRange, OSError) as exc:
        return _usage_error(exc)
    with sink or nullcontext():
        report = run_suite(spec, jobs=args.jobs)
        # looked up when called, so that a wrapper bound to the name (a tracer's) runs
        out = globals()[f"report_to_{args.format}"](report)
        if sink:
            sink.write(out)
        else:
            sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0 if report.ok else 1


def _no_value(row) -> int:
    """Exit code of a Bernoulli-route row that carries no value: a skip (no
    engine has a route) is a usage error, a fail (the engines disagree, or
    a guaranteed division failed) exits 1."""
    if row.status == SKIPPED:
        return _usage_error(row.reason)
    values = "" if row.lhs is None else f": {row.lhs} vs {row.rhs}"
    print(f"fail: {row.check_id} mod {row.p}^{row.mod_exp}: {row.reason}{values}",
          file=sys.stderr)
    return 1


def cmd_wilson(args) -> int:
    p, r = args.p, args.mod_exp
    if r < 1:  # checked before the method, so that every method gives this line
        return _usage_error("r must be >= 1")
    try:
        if args.method == "direct":
            value = wilson_quotient(p, r).residue
        elif args.method == "psi":
            value = wilson_via_psi(p, r).residue
        else:
            row = cross_checked(f"W_{p}", p, r, r, lambda b: wilson_via_bernoulli(p, r, b))
            if not row.passed:
                return _no_value(row)
            value = row.rhs
    except _BAD_VALUE as exc:
        return _usage_error(exc)
    except MemoryError:  # past the sieve: a power list or the quotients
        return _usage_error(f"p {p} is too large")
    print(f"W_{p} = {value} (mod {p}^{r})")
    return 0


def cmd_qsum(args) -> int:
    p, n, r = args.p, args.n, args.mod_exp
    if n < 1 or r < 1:
        return _usage_error("need n >= 1 and r >= 1")
    try:
        if args.method in ("direct", "difference"):
            value = q_sum(p, n, r, args.method).residue
        else:
            tier = r + n - 1
            row = cross_checked(f"Q_{p}({n})", p, r, tier,
                                lambda b: q_sum_via_bernoulli(p, n, tier, b))
            if not row.passed:
                return _no_value(row)
            value = row.rhs
    except _BAD_VALUE as exc:
        return _usage_error(exc)
    except MemoryError:  # past the sieve: a power list or the quotients
        return _usage_error(f"p {p} is too large")
    print(f"Q_{p}({n}) = {value} (mod {p}^{r})")
    return 0


def cmd_bernoulli(args) -> int:
    try:
        table = BernoulliTable.build(args.max_index)
    except (ValueError, IndexOutOfTable) as exc:
        return _usage_error(exc)
    # From B_2064 on, a numerator has more digits than CPython's default
    # int-to-str limit (4300, from 3.10.7); lift it only while printing.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        for i in range(args.max_index + 1):
            b = table.bernoulli(i)
            print(f"{i}\t{b.numerator}/{b.denominator}")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def cmd_scan(args) -> int:
    try:
        primes = scan_primes(args.klass, args.limit)
    except (ValueError, IndexOutOfTable) as exc:
        return _usage_error(exc)
    except MemoryError:  # past the sieve: the remainder tree or the table
        return _usage_error(f"scan limit {args.limit} is too large")
    for p in primes:
        print(p)
    return 0


def cmd_dn(args) -> int:
    try:
        value = dn_product(args.n)
    except ValueError as exc:
        return _usage_error(exc)
    print(value)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wilsonlab",
        description="verify Wilson/Fermat-quotient and Bernoulli congruences "
        "modulo prime powers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a check suite over a prime range")
    v.add_argument("--suite", default="all",
                   help="check id, comma list, or 'all' (ids: %s)" % ", ".join(ALL_CHECK_IDS))
    v.add_argument("--p-min", type=int, default=2)
    v.add_argument("--p-max", type=int, default=97)
    v.add_argument("--mod-exp", type=int, default=None)
    v.add_argument("--engine", choices=["exact", "modular", "both"], default="both")
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--format", choices=["json", "csv", "text"], default="text")
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verify)

    w = sub.add_parser("wilson", help="Wilson quotient modulo p^r")
    w.add_argument("--p", type=int, required=True)
    w.add_argument("--mod-exp", type=int, default=1)
    w.add_argument("--method", choices=["direct", "psi", "bernoulli"], default="direct")
    w.set_defaults(fn=cmd_wilson)

    q = sub.add_parser("qsum", help="power sum of Fermat quotients modulo p^r")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--mod-exp", type=int, default=1)
    q.add_argument("--method", choices=["direct", "difference", "bernoulli"],
                   default="direct")
    q.set_defaults(fn=cmd_qsum)

    b = sub.add_parser("bernoulli", help="exact Bernoulli numbers up to an index")
    b.add_argument("--max-index", type=int, required=True)
    b.set_defaults(fn=cmd_bernoulli)

    s = sub.add_parser("scan", help="scan for a prime class")
    s.add_argument("--class", dest="klass", choices=["wilson", "irregular"],
                   required=True)
    s.add_argument("--limit", type=int, required=True)
    s.set_defaults(fn=cmd_scan)

    d = sub.add_parser("dn", help="denominator product of the shifted Bernoulli polynomial")
    d.add_argument("--n", type=int, required=True)
    d.set_defaults(fn=cmd_dn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
