"""Span tracing of spincert's layers, installed from outside the package.

A ``Tracer`` wraps the public functions of each layer module and a few
hot methods, records one span per call (name, start, end, parent,
request and thread) in memory, and turns the spans of one pass into the
per-layer metrics the benchmark reports.  Nothing inside ``src/`` is
edited: ``install`` rebinds every reference the package holds to a
wrapped function (module globals such as ``cli``'s direct imports,
class attributes such as ``__rmul__ = __mul__``, and dict tables such
as ``cli._RUNNERS``), and ``uninstall`` puts the originals back.

Gaussian scalar multiplication and division are counted only; they get
no span and no self time, so their cost stays with the calling layer.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import statistics
import sys
import threading
import time

PACKAGE = "spincert"
LAYERS = (
    "cli",
    "hyperell",
    "oddmoduli",
    "instanton",
    "nrmoduli",
    "repsl2",
    "thetachar",
    "clifford",
    "exactalg.linalg",
    "exactalg.polys",
    "exactalg.ratfunc",
    "exactalg.scalars",
)
SPAN_LAYERS = LAYERS[:-1]
SUITES = ("clifford", "instanton", "nr", "odd", "parity", "repsl2", "theta")
PLACE_KINDS = ("branch", "inf", "split")

# Methods that get spans, by layer: (class name, method name, span name).
SPAN_METHODS = {
    "hyperell": (
        ("FieldElem", "valuation", "valuation"),
        ("FieldElem", "expand_at", "expand_at"),
        ("Place", "local_series", "local_series"),
        ("LSeries", "__mul__", "lseries_mul"),
    ),
    "exactalg.polys": (
        ("MultiPoly", "__mul__", "mul"),
        ("MultiPoly", "exact_div", "exact_div"),
    ),
    "exactalg.ratfunc": (
        ("RatFunc", "__add__", "add"),
        ("RatFunc", "__mul__", "mul"),
        ("RatFunc", "derivative", "derivative"),
    ),
}
COUNT_METHODS = {
    "exactalg.scalars": (
        ("Gaussian", "__mul__", "gaussian_mul"),
        ("Gaussian", "__truediv__", "gaussian_div"),
    ),
}

# Per-layer metrics with their units; every traced run reports all of
# them, so a layer a workload does not use reads 0.
METRIC_UNITS = {}
for _layer in SPAN_LAYERS:
    METRIC_UNITS[_layer + ".self_s"] = "s"
METRIC_UNITS["cli.report_s"] = "s"
for _suite in SUITES:
    METRIC_UNITS["cli.suite_s." + _suite] = "s"
    METRIC_UNITS["cli.suite_setup_s." + _suite] = "s"
METRIC_UNITS["cli.checks"] = "count"
METRIC_UNITS["cli.checks_failed"] = "count"
METRIC_UNITS["cli.check_overlap"] = "ratio"
for _prefix in ["hyperell.valuation"] + ["hyperell.valuation." + k for k in PLACE_KINDS]:
    METRIC_UNITS[_prefix + ".calls"] = "count"
    METRIC_UNITS[_prefix + ".total_s"] = "s"
for _fn in ("expand_at", "local_series"):
    METRIC_UNITS["hyperell.%s.calls" % _fn] = "count"
    METRIC_UNITS["hyperell.%s.total_s" % _fn] = "s"
    METRIC_UNITS["hyperell.%s.max_prec" % _fn] = "count"
METRIC_UNITS["hyperell.expand_per_valuation"] = "ratio"
for _fn in ("lseries_mul", "rr_space", "divisor_of"):
    METRIC_UNITS["hyperell.%s.calls" % _fn] = "count"
    METRIC_UNITS["hyperell.%s.total_s" % _fn] = "s"
METRIC_UNITS["oddmoduli.embed.total_s"] = "s"
for _fn in ("triple_plane_report", "plane_curve_divisor"):
    METRIC_UNITS["oddmoduli.%s.calls" % _fn] = "count"
    METRIC_UNITS["oddmoduli.%s.total_s" % _fn] = "s"
for _fn in ("curvature", "coupled_dirac"):
    METRIC_UNITS["instanton.%s.calls" % _fn] = "count"
    METRIC_UNITS["instanton.%s.total_s" % _fn] = "s"
for _fn in ("bianchi_residual", "yang_mills_residual", "verify_curvature_dirac_solutions"):
    METRIC_UNITS["instanton.%s.total_s" % _fn] = "s"
METRIC_UNITS["exactalg.polys.mul.calls"] = "count"
METRIC_UNITS["exactalg.polys.mul.total_s"] = "s"
METRIC_UNITS["exactalg.polys.mul.max_terms"] = "count"
METRIC_UNITS["exactalg.polys.exact_div.calls"] = "count"
METRIC_UNITS["exactalg.polys.exact_div.total_s"] = "s"
METRIC_UNITS["exactalg.polys.exact_div.hit_ratio"] = "ratio"
for _fn in ("add", "mul", "derivative"):
    METRIC_UNITS["exactalg.ratfunc.%s.calls" % _fn] = "count"
    METRIC_UNITS["exactalg.ratfunc.%s.total_s" % _fn] = "s"
METRIC_UNITS["exactalg.scalars.gaussian_mul.calls"] = "count"
METRIC_UNITS["exactalg.scalars.gaussian_div.calls"] = "count"
for _kind in ("qq", "poly"):
    METRIC_UNITS["exactalg.linalg.nullspace.%s.calls" % _kind] = "count"
    METRIC_UNITS["exactalg.linalg.nullspace.%s.total_s" % _kind] = "s"
METRIC_UNITS["exactalg.linalg.nullspace.max_rows"] = "count"
METRIC_UNITS["exactalg.linalg.nullspace.max_cols"] = "count"
METRIC_UNITS["exactalg.linalg.rank.calls"] = "count"
METRIC_UNITS["exactalg.linalg.rank.total_s"] = "s"
METRIC_UNITS["nrmoduli.kernel_at_branch.calls"] = "count"
METRIC_UNITS["nrmoduli.kernel_at_branch.total_s"] = "s"
METRIC_UNITS["nrmoduli.h_consistency.total_s"] = "s"
METRIC_UNITS["repsl2.invariance_check.total_s"] = "s"
METRIC_UNITS["repsl2.equivariance_check.total_s"] = "s"
METRIC_UNITS["thetachar.parity_counts.total_s"] = "s"
METRIC_UNITS["thetachar.arf_model_crosscheck.total_s"] = "s"
METRIC_UNITS["clifford.decomposition_defect.calls"] = "count"
METRIC_UNITS["clifford.decomposition_defect.total_s"] = "s"
METRIC_UNITS["clifford.identity_decomposition.total_s"] = "s"
METRIC_UNITS["trace.overhead_s"] = "s"


def _note(span_name, args, kwargs, result):
    """The per-call detail a metric needs beyond the call's duration;
    ``result`` is None when the call raised."""
    if span_name == "hyperell.valuation":
        return kwargs.get("place", args[-1]).kind
    if span_name in ("hyperell.expand_at", "hyperell.local_series"):
        return kwargs.get("prec", args[-1])
    if span_name == "exactalg.polys.mul":
        return len(result.terms) if hasattr(result, "terms") else 0
    if span_name == "exactalg.polys.exact_div":
        return result is not None
    if span_name == "exactalg.linalg.nullspace":
        rows = args[0]
        first = rows[0][0] if rows and rows[0] else None
        kind = "poly" if hasattr(first, "ring") else "qq"
        return (kind, len(rows), len(rows[0]) if rows else 0)
    if span_name.startswith("cli.run_") and result is not None:
        return result["elapsed_ms"] / 1000.0
    return None


class Tracer:
    """Wraps spincert's layers and holds the spans of every traced pass."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []
        self._counters = {}
        self.request = 0
        self.root = None
        self.spans = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, span_name, fn):
        tracer = self
        spans = self.spans
        is_root = span_name == "cli.run"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # a pool thread starts with an empty stack; its spans were
            # caused by the open cli.run span that submitted them
            parent = stack[-1] if stack else tracer.root
            span_id = next(tracer._ids)
            stack.append(span_id)
            if is_root:
                outer_root, tracer.root = tracer.root, span_id
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    tracer.root = outer_root
                spans.append(
                    (
                        span_id,
                        parent,
                        tracer.request,
                        threading.get_ident(),
                        span_name,
                        start,
                        end,
                        _note(span_name, args, kwargs, result),
                    )
                )

        return wrapper

    def _count_wrapper(self, counter_name, fn):
        counter = self._counters.setdefault(counter_name, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def counts(self):
        """Calls counted since ``install``; read once, before ``uninstall``."""
        return {name: next(c) for name, c in self._counters.items()}

    # -- installing ----------------------------------------------------------

    def _modules(self):
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _targets(self):
        """(original, wrapper) for every traced function and method."""
        targets = []
        for layer in LAYERS:
            mod = sys.modules["%s.%s" % (PACKAGE, layer)]
            if layer in SPAN_LAYERS:
                for attr, value in sorted(vars(mod).items()):
                    if (
                        callable(value)
                        and not isinstance(value, type)
                        and not attr.startswith("_")
                        and getattr(value, "__module__", None) == mod.__name__
                    ):
                        name = "%s.%s" % (layer, attr)
                        targets.append((value, self._span_wrapper(name, value)))
            for cls_name, meth, short in SPAN_METHODS.get(layer, ()):
                fn = vars(getattr(mod, cls_name))[meth]
                targets.append((fn, self._span_wrapper("%s.%s" % (layer, short), fn)))
            for cls_name, meth, short in COUNT_METHODS.get(layer, ()):
                fn = vars(getattr(mod, cls_name))[meth]
                targets.append((fn, self._count_wrapper("%s.%s" % (layer, short), fn)))
        return targets

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._counters = {}
        wrappers = {id(orig): (orig, wrap) for orig, wrap in self._targets()}

        def swap(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                wrap = swap(value)
                if wrap is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrap)
                elif isinstance(value, type) and value.__module__.startswith(PACKAGE):
                    for cattr, cvalue in list(vars(value).items()):
                        cwrap = swap(cvalue)
                        if cwrap is not None:
                            self._patches.append((value, cattr, cvalue))
                            setattr(value, cattr, cwrap)
                elif isinstance(value, dict):
                    for key, dvalue in list(value.items()):
                        dwrap = swap(dvalue)
                        if dwrap is not None:
                            self._patches.append((value, key, dvalue))
                            value[key] = dwrap
        missing = set(wrappers) - {id(orig) for _, _, orig in self._patches}
        if missing:
            names = sorted(wrappers[i][0].__qualname__ for i in missing)
            raise RuntimeError("traced functions left unbound: %s" % names)

    def uninstall(self):
        for holder, key, orig in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = orig
            else:
                setattr(holder, key, orig)
        self._patches = []

    # -- output ----------------------------------------------------------------

    def write(self, path, meta):
        """Write every span recorded so far as gzipped JSON."""
        names = sorted({s[4] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [s[0], s[1], s[2], s[3], index[s[4]], s[5], s[6], s[7]]
            for s in self.spans
        ]
        doc = {
            "meta": meta,
            "fields": ["id", "parent", "request", "thread", "name", "start", "end", "note"],
            "names": names,
            "spans": rows,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def pass_metrics(spans, counts):
    """Per-layer metrics of one traced pass from its span tuples and its
    counter values.  The ``cli.checks*`` metrics come from the reports
    and are filled in by the caller."""
    m = {name: 0 for name in METRIC_UNITS}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[5], s[6]))
    names = {s[0]: s[4] for s in spans}
    expand_under_valuation = 0
    exact_div_hits = 0
    for span_id, parent, _req, _tid, name, start, end, note in spans:
        dur = end - start
        layer = name.rsplit(".", 1)[0]
        m[layer + ".self_s"] += dur - _covered(children.get(span_id, ()))
        short = name[len(layer) + 1 :]
        calls_key = name + ".calls"
        total_key = name + ".total_s"
        if name == "exactalg.linalg.nullspace":
            kind, rows, cols = note
            calls_key = "%s.%s.calls" % (name, kind)
            total_key = "%s.%s.total_s" % (name, kind)
            m[name + ".max_rows"] = max(m[name + ".max_rows"], rows)
            m[name + ".max_cols"] = max(m[name + ".max_cols"], cols)
        elif name == "hyperell.valuation":
            m["%s.%s.calls" % (name, note)] += 1
            m["%s.%s.total_s" % (name, note)] += dur
        elif name in ("hyperell.expand_at", "hyperell.local_series"):
            m[name + ".max_prec"] = max(m[name + ".max_prec"], note)
            if name == "hyperell.expand_at" and names.get(parent) == "hyperell.valuation":
                expand_under_valuation += 1
        elif name == "exactalg.polys.mul":
            m[name + ".max_terms"] = max(m[name + ".max_terms"], note)
        elif name == "exactalg.polys.exact_div":
            exact_div_hits += bool(note)
        elif name == "cli.main":
            m["cli.report_s"] += dur
        elif name == "cli.run":
            m["cli.report_s"] -= dur
        elif layer == "cli" and short.startswith("run_") and short[4:] in SUITES:
            m["cli.suite_s." + short[4:]] += dur
            m["cli.suite_setup_s." + short[4:]] += dur - (note or 0.0)
        if calls_key in m:
            m[calls_key] += 1
        if total_key in m:
            m[total_key] += dur
    if m["hyperell.valuation.calls"]:
        m["hyperell.expand_per_valuation"] = (
            expand_under_valuation / m["hyperell.valuation.calls"]
        )
    if m["exactalg.polys.exact_div.calls"]:
        m["exactalg.polys.exact_div.hit_ratio"] = (
            exact_div_hits / m["exactalg.polys.exact_div.calls"]
        )
    for name, value in counts.items():
        m[name + ".calls"] = value
    return m


def median_metrics(per_pass):
    """One value per metric over several traced passes: the maximum for
    ``max_*`` shapes, the lower median for counts (which stay whole) and
    the median for everything else."""
    out = {}
    for name, unit in METRIC_UNITS.items():
        values = [p[name] for p in per_pass]
        if name.rsplit(".", 1)[-1].startswith("max_"):
            out[name] = max(values)
        elif unit == "count":
            out[name] = statistics.median_low(values)
        else:
            out[name] = statistics.median(values)
    return out
