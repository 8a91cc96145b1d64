"""Spans and counts at the seams of ``mnseries``, recorded from outside it.

:func:`install` replaces the public functions of each layer, in every
``mnseries`` module that holds a reference to them, with wrappers that
record one span per call: name, start, end, parent span and op id.  Spans
are kept in flat arrays until the run ends.  Domain methods are too fine for
spans and only count calls.

Work counts (pairs, trace entries, cosets, hull sizes, digits) are derived
after the run from the inputs and outputs each wrapper kept for the count
pass, never from ``CarryTrace``: reading its entries would force exactly
the work that a lazy trace avoids.
"""

from __future__ import annotations

import bisect
import importlib
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from workloads import SUITES

# (name, unit, the end-to-end metric it should move).  "_self_s" is self
# time; any other "_s" is inclusive time of the outermost span of that
# layer.  Times are seconds per op over the traced phase; counts cover the
# count pass (the first cycle of ops) and repeat exactly for a seed.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("cli.main_self_s", "s/op", "op_p50_ms on carry-mul and profile-chain"),
    ("grammar.parse_s", "s/op", "op_p50_ms on carry-mul"),
    ("grammar.parse_calls", "count", "op_p50_ms on carry-mul"),
    ("grammar.parse_chars", "count", "op_p50_ms on carry-mul"),
    ("grammar.format_s", "s/op", "op_p50_ms on carry-mul"),
    ("series.mul_self_s", "s/op", "ops_per_s, op_p90_ms on carry-mul; ops_per_s on verify-suites"),
    ("series.mul_calls", "count", "ops_per_s on carry-mul and verify-suites"),
    ("series.conv_pairs", "count", "ops_per_s on carry-mul"),
    ("series.trace_entries", "count", "ops_per_s, op_p90_ms on carry-mul"),
    ("series.canonicalize_s", "s/op", "ops_per_s on carry-mul and verify-suites"),
    ("series.cosets_carried", "count", "ops_per_s on carry-mul"),
    ("series.max_carry_offset", "count", "none (distance to the N = 32 modulus)"),
    ("series.make_s", "s/op", "ops_per_s on verify-suites; op_p50_ms on profile-chain"),
    ("series.make_calls", "count", "ops_per_s on verify-suites"),
    ("series.make_terms_in", "count", "ops_per_s on verify-suites"),
    ("series.make_terms_out", "count", "ops_per_s on verify-suites"),
    ("series.add_s", "s/op", "ops_per_s on verify-suites"),
    ("series.gauss_s", "s/op", "ops_per_s on verify-suites"),
    ("series.gauss_calls", "count", "ops_per_s on verify-suites"),
    ("series.inexact_verdicts", "count", "none (exactness flags raised)"),
    ("series.witness_s", "s/op", "ops_per_s on verify-suites"),
    ("domains.validate_calls", "count", "op_p50_ms on profile-chain and verify-suites"),
    ("domains.coeff_valuation_calls", "count", "op_p50_ms on profile-chain and verify-suites"),
    ("domains.base_valuation_calls", "count", "op_p50_ms on verify-suites"),
    ("domains.poly_calls", "count", "op_p50_ms on profile-chain and verify-suites"),
    ("domains.mul_calls", "count", "op_p50_ms on carry-mul and verify-suites"),
    ("polygon.newton_self_s", "s/op", "op_p50_ms, op_p90_ms on profile-chain"),
    ("polygon.hull_s", "s/op", "op_p50_ms, op_p90_ms on profile-chain"),
    ("polygon.hull_points_in", "count", "op_p50_ms on profile-chain"),
    ("polygon.hull_nodes_out", "count", "op_p50_ms on profile-chain"),
    ("polygon.legendre_s", "s/op", "op_p50_ms, op_p90_ms on profile-chain"),
    ("polygon.legendre_calls", "count", "op_p50_ms on profile-chain"),
    ("polygon.legendre_nodes_scanned", "count", "op_p50_ms on profile-chain"),
    ("polygon.npf_self_s", "s/op", "op_p90_ms on verify-suites"),
    ("profiles.digit_exponent_s", "s/op", "op_p50_ms, op_p90_ms on profile-chain"),
    ("profiles.digits", "count", "op_p50_ms on profile-chain"),
    ("profiles.materialize_self_s", "s/op", "op_p50_ms, op_p90_ms on profile-chain"),
    ("profiles.chain_report_self_s", "s/op", "op_p50_ms on profile-chain"),
    ("profiles.inverse_constant_s", "s", "setup_s on profile-chain (warm-up op only)"),
    ("export.chain_json_s", "s/op", "op_p50_ms on profile-chain"),
) + tuple(
    (f"verify.suite_s.{suite}", "s/call", "op_p90_ms on verify-suites") for suite in SUITES
) + (
    ("trace.ops_per_s", "1/s", "tracing overhead: traced ops_per_s"),
    ("trace.untraced_ops_per_s", "1/s", "tracing overhead: untraced ops_per_s, same ops"),
    ("trace.slowdown", "ratio", "tracing overhead: untraced over traced ops_per_s"),
)

# (span name, defining module, attribute).  Methods are given as "Class.attr".
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.main", "cli", "main"),
    ("grammar.parse", "grammar", "parse_series"),
    ("grammar.format", "grammar", "format_series"),
    ("series.mul", "series", "mul"),
    ("series.canonicalize", "series", "canonicalize"),
    ("series.make", "series", "Series.make"),
    ("series.add", "series", "add"),
    ("series.gauss", "series", "gauss_valuation"),
    ("series.witness", "series", "box_witness"),
    ("series.witness", "series", "bar_witness"),
    ("series.witness", "series", "localize"),
    ("polygon.newton", "polygon", "newton_polygon"),
    ("polygon.hull", "polygon", "lower_hull"),
    ("polygon.legendre", "polygon", "legendre_eval"),
    ("polygon.npf", "polygon", "verify_npf"),
    ("profiles.digit_exponent", "profiles", "ProfileElement.digit_exponent"),
    ("profiles.materialize", "profiles", "materialize"),
    ("profiles.chain_report", "profiles", "chain_report"),
    ("profiles.inverse_constant", "profiles", "inverse_legendre_power"),
    ("export.chain_json", "export", "chain_report_json"),
)

# counted domain methods: counter name -> method name
DOMAIN_COUNTERS = {
    "domains.validate_calls": "validate",
    "domains.coeff_valuation_calls": "coeff_valuation",
    "domains.base_valuation_calls": "base_valuation_at",
    "domains.poly_calls": "poly",
    "domains.mul_calls": "mul",
}
DOMAIN_CLASSES = ("PerfectPoly", "PadicDigits", "MixedPoly")
WARMUP_OP = -1


class Tracer:
    """Span store: parallel arrays indexed by span id, in start order."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        # 1 when no enclosing span has the same name: its time counts as inclusive
        self.outer = array("b")
        self.active: List[int] = []
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_id = WARMUP_OP
        # while True, wrappers keep call inputs/outputs for the work counts
        self.counting = False
        self.kept: List[Tuple[str, tuple, object]] = []
        self.calls: Dict[str, int] = {name: 0 for name in DOMAIN_COUNTERS}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, keep: bool = False,
             name_of: Optional[Callable[[tuple], str]] = None) -> Callable:
        nid = self.name_id(name)
        names, parents, ops, outer = self.name, self.parent, self.op, self.outer
        starts, ends, active = self.start, self.end, self.active

        def wrapper(*args, **kwargs):
            if keep and self.counting and name == "series.make":
                args = _listed_terms(args)
            sid = self.name_id(name_of(args)) if name_of else nid
            idx = len(starts)
            names.append(sid)
            parents.append(self.current)
            ops.append(self.op_id)
            outer.append(active[sid] == 0)
            ends.append(0.0)
            active[sid] += 1
            self.current = idx
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                self.current = parents[idx]
                active[sid] -= 1
            if keep and self.counting:
                self.kept.append((name, args, result))
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            if self.counting:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _listed_terms(args: tuple) -> tuple:
    """Series.make(cls, domain, mode, terms, ...): make ``terms`` re-iterable."""
    if len(args) > 3 and iter(args[3]) is args[3]:
        return args[:3] + (list(args[3]),) + args[4:]
    return args


_KEEP = {"grammar.parse", "series.mul", "series.make", "series.gauss",
         "polygon.hull", "polygon.legendre", "profiles.materialize"}


def install(mn, tracer: Tracer) -> Callable[[], None]:
    """Wrap every seam of the ``mnseries`` package ``mn``; return an undo callable."""
    modules = [mn] + [importlib.import_module(f"{mn.__name__}.{m}")
                      for m in ("cli", "domains", "errors", "export", "grammar",
                                "polygon", "profiles", "series", "values", "verify")]
    undo: List[Tuple[object, str, object, bool]] = []

    def replace(owner, attr, new):
        had = attr in vars(owner)
        undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, new)

    def replace_everywhere(original, wrapped):
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    replace(holder, key, wrapped)

    for span, modname, attr in SPANS:
        mod = importlib.import_module(f"{mn.__name__}.{modname}")
        if "." not in attr:
            original = getattr(mod, attr)
            replace_everywhere(original, tracer.wrap(span, original, span in _KEEP))
            continue
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        raw = vars(cls)[meth]
        if isinstance(raw, classmethod):
            replace(cls, meth, classmethod(tracer.wrap(span, raw.__func__, span in _KEEP)))
        else:
            replace(cls, meth, tracer.wrap(span, raw, span in _KEEP))

    run_suite = importlib.import_module(f"{mn.__name__}.verify").run_suite
    replace_everywhere(run_suite, tracer.wrap(
        "verify.suite", run_suite, name_of=lambda args: f"verify.suite.{args[0]}"))

    domains = importlib.import_module(f"{mn.__name__}.domains")
    for cls_name in DOMAIN_CLASSES:
        cls = getattr(domains, cls_name)
        for counter, meth in DOMAIN_COUNTERS.items():
            if hasattr(cls, meth):  # PadicDigits has no poly()
                replace(cls, meth, tracer.counter(counter, getattr(cls, meth)))

    def restore():
        for owner, attr, old, had in reversed(undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics


def _times(tracer: Tracer) -> Dict[Tuple[str, bool], Tuple[float, float, int]]:
    """Per (span name, in the warm-up op): self time, inclusive time of
    outermost spans, and span count."""
    n = len(tracer.start)
    start, end, parent = tracer.start, tracer.end, tracer.parent
    child = array("d", bytes(8 * n))
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    acc: Dict[Tuple[str, bool], List] = {}
    for i in range(n):
        a = acc.setdefault((tracer.names[tracer.name[i]], tracer.op[i] == WARMUP_OP),
                           [0.0, 0.0, 0])
        dur = end[i] - start[i]
        a[0] += dur - child[i]
        if tracer.outer[i]:
            a[1] += dur
        a[2] += 1
    return {key: tuple(a) for key, a in acc.items()}


def _mul_counts(f, g, product, counts: Dict[str, int]) -> None:
    def order(h):
        return h.terms[0][0] if h.terms else h.prec

    prec = min(f.prec + order(g), g.prec + order(f))
    sums = [i + j for i, _ in f.terms for j, _ in g.terms if i + j < prec]
    counts["series.conv_pairs"] += len(sums)
    if f.mode.value == "formal":
        counts["series.trace_entries"] += len(sums)
        return
    by_coset: Dict[object, List] = {}
    for k, _ in product.terms:
        by_coset.setdefault(k - (k.numerator // k.denominator), []).append(k)
        counts["series.max_carry_offset"] = max(
            counts["series.max_carry_offset"], k.numerator // k.denominator)
    cosets = set()
    for lo in sums:
        gamma = lo - (lo.numerator // lo.denominator)
        cosets.add(gamma)
        ks = by_coset.get(gamma, ())
        counts["series.trace_entries"] += len(ks) - bisect.bisect_left(ks, lo)
    counts["series.cosets_carried"] += len(cosets)


def work_counts(tracer: Tracer) -> Dict[str, int]:
    counts = {name: 0 for name, unit, _ in PER_LAYER if unit == "count"}
    counts.update(tracer.calls)
    for name, args, result in tracer.kept:
        if name == "grammar.parse":
            counts["grammar.parse_calls"] += 1
            counts["grammar.parse_chars"] += len(args[0])
        elif name == "series.mul":
            counts["series.mul_calls"] += 1
            _mul_counts(args[0], args[1], result[0], counts)
        elif name == "series.make":
            counts["series.make_calls"] += 1
            counts["series.make_terms_in"] += len(args[3]) if len(args) > 3 else 0
            counts["series.make_terms_out"] += len(result.terms)
        elif name == "series.gauss":
            counts["series.gauss_calls"] += 1
            counts["series.inexact_verdicts"] += 0 if result[1] else 1
        elif name == "polygon.hull":
            counts["polygon.hull_points_in"] += len(args[0])
            counts["polygon.hull_nodes_out"] += len(result.nodes)
        elif name == "polygon.legendre":
            counts["polygon.legendre_calls"] += 1
            counts["polygon.legendre_nodes_scanned"] += len(args[0].nodes)
        elif name == "profiles.materialize":
            counts["profiles.digits"] += args[1]
    return counts


_TIME_SOURCES = {
    # metric: (span name, "self" | "incl")
    "cli.main_self_s": ("cli.main", "self"),
    "grammar.parse_s": ("grammar.parse", "incl"),
    "grammar.format_s": ("grammar.format", "incl"),
    "series.mul_self_s": ("series.mul", "self"),
    "series.canonicalize_s": ("series.canonicalize", "incl"),
    "series.make_s": ("series.make", "incl"),
    "series.add_s": ("series.add", "incl"),
    "series.gauss_s": ("series.gauss", "incl"),
    "series.witness_s": ("series.witness", "incl"),
    "polygon.newton_self_s": ("polygon.newton", "self"),
    "polygon.hull_s": ("polygon.hull", "incl"),
    "polygon.legendre_s": ("polygon.legendre", "incl"),
    "polygon.npf_self_s": ("polygon.npf", "self"),
    "profiles.digit_exponent_s": ("profiles.digit_exponent", "incl"),
    "profiles.materialize_self_s": ("profiles.materialize", "self"),
    "profiles.chain_report_self_s": ("profiles.chain_report", "self"),
    "export.chain_json_s": ("export.chain_json", "incl"),
}


def per_layer(tracer: Tracer, ops: int) -> Dict[str, float]:
    """Every PER_LAYER metric except the trace.* overhead figures."""
    times = _times(tracer)
    out: Dict[str, float] = {}
    for metric, (span, kind) in _TIME_SOURCES.items():
        self_s, incl_s, _ = times.get((span, False), (0.0, 0.0, 0))
        out[metric] = (self_s if kind == "self" else incl_s) / ops
    # the inverse-constant cache is filled by the warm-up op, so its cost is set-up
    out["profiles.inverse_constant_s"] = times.get(
        ("profiles.inverse_constant", True), (0.0, 0.0, 0))[1]
    for name, unit, _ in PER_LAYER:
        if name.startswith("verify.suite_s."):
            suite = name[len("verify.suite_s."):]
            _, incl_s, calls = times.get((f"verify.suite.{suite}", False), (0.0, 0.0, 0))
            out[name] = incl_s / calls if calls else 0.0
    out.update(work_counts(tracer))
    return out
