"""Outside-in span tracing of wilsonlab, and the per-layer metrics derived
from the spans.

`install` wraps the public functions of each module from outside the
package. Modules import each other's functions by name (registry imports
`bundle`, suite imports `execute_check`, quotients imports
`power_sum_mod`), so a wrapper replaces every binding of the original in
every wilsonlab module, not only the one in its home module.

A span is [name, start, end, parent index, key]; the key holds the call
arguments that the work counts are taken from. The hottest padic calls are
only counted, not timed, to keep the overhead of a traced pass low.

Run as a script to print the self-time summary of a spans file:

    python3 perfbench/tracing.py perfbench/out/spans-desk_both.jsonl
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("padic", "bernoulli", "modular", "quotients", "congruences",
           "registry", "suite", "cli")


def _call_key(fn):
    """Turn a signature-shaped lambda into a key taking (args, kwargs)."""
    return lambda args, kwargs: fn(*args, **kwargs)


# (module, attribute, span name, key of the call arguments); a dotted
# attribute is a method. Functions of one layer share the span name.
SPANNED = (
    ("bernoulli", "BernoulliTable.build", "bernoulli.build",
     _call_key(lambda cls, n_max: n_max)),
    ("bernoulli", "bernoulli_polynomial", "bernoulli.poly", None),
    ("bernoulli", "power_sum_polynomial", "bernoulli.poly", None),
    ("modular", "power_sum_mod", "modular.power_sum",
     _call_key(lambda n, p, K: (n, p, K))),
    ("modular", "bundle", "modular.bundle",
     _call_key(lambda p, r=4, engine="modular", table=None: (p, r, engine))),
    ("quotients", "factorial_mod", "quotients.factorial",
     _call_key(lambda p, K: p)),
    ("quotients", "q_sum", "quotients.q_sum", None),
    ("quotients", "wilson_via_psi", "quotients.psi", None),
    ("congruences", "evaluate_terms", "congruences.evaluate_terms", None),
    ("congruences", "classify_prime", "congruences.classify_prime", None),
    ("registry", "execute_check", "registry.execute_check",
     _call_key(lambda check_id, value, env: check_id)),
    ("suite", "run_suite", "suite.run_suite", None),
    ("suite", "scan_primes", "suite.scan_primes", None),
    ("suite", "report_to_json", "suite.report_to_json", None),
    ("cli", "main", "cli.main", None),
)

COUNTED = (
    ("padic", "PrimePowerContext.__post_init__", "padic.context_inits"),
    ("padic", "PrimePowerContext.from_int", "padic.from_int_calls"),
    ("padic", "reduce_rational", "padic.reduce_rational_calls"),
)


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name, fn, key):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   key(args, kwargs) if key else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def _rebind(mods, owner, attr, make):
    """Replace owner.attr, and every module binding of the same object, by
    make(original function). Returns the undo list."""
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(make(raw.__func__)))
        else:
            setattr(cls, meth, make(raw))
        return [(cls, meth, raw)]
    orig = getattr(owner, attr)
    new = make(orig)
    undo = []
    for mod in mods:
        for name, value in list(vars(mod).items()):
            if value is orig:
                undo.append((mod, name, orig))
                setattr(mod, name, new)
    return undo


def install(tracer: Tracer):
    """Wrap every traced function; returns a callable that restores them."""
    mods = [importlib.import_module("wilsonlab")]
    mods += [importlib.import_module(f"wilsonlab.{m}") for m in MODULES]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
    undo = []
    for mod, attr, name, key in SPANNED:
        undo += _rebind(mods, by_name[mod], attr,
                        lambda fn, n=name, k=key: tracer.span(n, fn, k))
    for mod, attr, name in COUNTED:
        undo += _rebind(mods, by_name[mod], attr,
                        lambda fn, n=name: tracer.counter(n, fn))

    def uninstall():
        for target, name, value in reversed(undo):
            setattr(target, name, value)
    return uninstall


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s") or ".check_s." in metric:
        return "s"
    if metric.endswith(("_ratio", "_per_prime")):
        return "ratio"
    if metric.endswith("_index"):
        return "index"
    return "count"


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _ratio(num, den):
    return num / den if den else 0.0


def _quantile_ms(durations, q):
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1000 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans, counts, check_ids) -> dict[str, float]:
    """Per-layer metrics of one traced pass. No traced function calls
    itself, so summing the durations of one name never counts time twice."""
    own = self_times(spans)
    total = defaultdict(float)
    self_s = defaultdict(float)
    keys = defaultdict(list)
    durations = defaultdict(list)
    for (name, start, end, _, key), s in zip(spans, own):
        total[name] += end - start
        self_s[name] += s
        keys[name].append(key)
        durations[name].append(end - start)
    check_self = defaultdict(float)
    for (name, _, _, _, key), s in zip(spans, own):
        if name == "registry.execute_check":
            check_self[key] += s

    sums = keys["modular.power_sum"]
    bundles = keys["modular.bundle"]
    pow_ops = sum(p - 1 for n, p, _ in sums if n > 0)
    m = {
        "padic.from_int_calls": counts["padic.from_int_calls"],
        "padic.context_inits": counts["padic.context_inits"],
        "padic.reduce_rational_calls": counts["padic.reduce_rational_calls"],
        "bernoulli.build_s": total["bernoulli.build"],
        "bernoulli.build_max_index": max(keys["bernoulli.build"], default=0),
        "bernoulli.poly_s": total["bernoulli.poly"],
        "bernoulli.poly_calls": len(keys["bernoulli.poly"]),
        "modular.power_sum_s": total["modular.power_sum"],
        "modular.power_sum_calls": len(sums),
        "modular.pow_ops": pow_ops,
        "modular.pow_ops_per_s": _ratio(pow_ops, total["modular.power_sum"]),
        "modular.power_sum_distinct_ratio": _ratio(len(set(sums)), len(sums)),
        "modular.bundle_self_s": self_s["modular.bundle"],
        "modular.bundle_calls": len(bundles),
        "modular.bundles_per_prime": _ratio(len(bundles), len({b[0] for b in bundles})),
        "modular.bundle_distinct_ratio": _ratio(len(set(bundles)), len(bundles)),
        "quotients.factorial_s": total["quotients.factorial"],
        "quotients.factorial_mults": sum(max(p - 2, 0) for p in keys["quotients.factorial"]),
        "quotients.q_sum_s": total["quotients.q_sum"],
        "quotients.q_sum_calls": len(keys["quotients.q_sum"]),
        "quotients.psi_s": total["quotients.psi"],
        "congruences.evaluate_terms_s": total["congruences.evaluate_terms"],
        "congruences.evaluate_terms_calls": len(keys["congruences.evaluate_terms"]),
        "congruences.classify_prime_s": total["congruences.classify_prime"],
        "registry.tasks": len(keys["registry.execute_check"]),
        "registry.task_p50_ms": _quantile_ms(durations["registry.execute_check"], 0.5),
        "registry.task_p99_ms": _quantile_ms(durations["registry.execute_check"], 0.99),
        "suite.run_suite_self_s": self_s["suite.run_suite"],
        "suite.report_s": total["suite.report_to_json"],
        "cli.main_self_s": self_s["cli.main"],
    }
    for cid in check_ids:
        m[f"registry.check_s.{cid}"] = check_self[cid]
    return m


def layer_self_times(spans) -> dict[str, float]:
    """Self time per layer, the layer being the span name's module part."""
    out = defaultdict(float)
    for (name, *_), s in zip(spans, self_times(spans)):
        out[name.split(".", 1)[0]] += s
    return dict(out)


def format_summary(layers: dict[str, float], wall_s: float) -> str:
    lines = [f"{'layer':<12} {'self_s':>9} {'share':>7}"]
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<12} {s:9.4f} {_ratio(s, wall_s):7.1%}")
    rest = wall_s - sum(layers.values())
    lines.append(f"{'(untraced)':<12} {rest:9.4f} {_ratio(rest, wall_s):7.1%}")
    return "\n".join(lines)


def write_spans(path, spans, pass_id, t0):
    """Append one JSON line per span: name, start and end in seconds from
    the pass start t0, the parent's index within the pass (-1 for a root)
    and the pass id."""
    with open(path, "a") as fh:
        for name, start, end, parent, _ in spans:
            fh.write(json.dumps({"name": name, "start": round(start - t0, 7),
                                 "end": round(end - t0, 7), "parent": parent,
                                 "pass": pass_id}) + "\n")


def read_spans(path) -> dict[int, list[list]]:
    passes = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            s = json.loads(line)
            passes[s["pass"]].append([s["name"], s["start"], s["end"], s["parent"], None])
    return dict(passes)


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: tracing.py SPANS_FILE", file=sys.stderr)
        return 2
    for pass_id, spans in sorted(read_spans(argv[0]).items()):
        roots = [end - start for _, start, end, parent, _ in spans if parent < 0]
        wall = max(e for _, _, e, _, _ in spans) - min(s for _, s, _, _, _ in spans)
        print(f"pass {pass_id}: {len(spans)} spans, {len(roots)} roots, {wall:.4f} s")
        print(format_summary(layer_self_times(spans), wall))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
