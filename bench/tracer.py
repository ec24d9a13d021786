"""Per-layer tracing of runcube from outside the program.

`Tracer.install()` replaces each traced function or method with a wrapper
wherever runcube binds it: in its own module or class, and in every
runcube module that imported it by name (`from .graph import build`).
`uninstall()` puts every original back.  A name missing from the code
under test is reported in `absent` and its metrics read 0; nothing
crashes, so the benchmark keeps working when later code deletes or merges
functions.

Spans are kept in memory as parallel arrays (target, parent span, start,
end).  A span's self time is its duration minus the durations of its
child spans; a layer (a runcube module) gets the self time of all its
traced functions.  Untraced helpers count toward the nearest traced
caller.  Counters are computed after a span has ended, from its arguments
and result, so they add nothing to the span they describe.
"""

import sys
import time
from array import array

from checks import vertex_count


def _sum_pairs(a_coeffs, b_coeffs, order):
    """(coefficient multiplies, term products) of a truncated series product."""
    sizes_a = [len(c.terms) for c in a_coeffs[: order + 1]]
    sizes_b = [len(c.terms) for c in b_coeffs[: order + 1]]
    mults = products = 0
    for i, sa in enumerate(sizes_a):
        if not sa:
            continue
        for sb in sizes_b[: order + 1 - i]:
            if sb:
                mults += 1
                products += sa * sb
    return mults, products


def _terms_out(series):
    return sum(len(c.terms) for c in series.coeffs)


def _series_mul(args, kwargs, result):
    self, other = args
    if not hasattr(other, "coeffs"):
        return {"terms_out": _terms_out(result)}
    mults, products = _sum_pairs(self.coeffs, other.coeffs, result.order)
    return {"multiplies": mults, "term_products": products, "terms_out": _terms_out(result)}


def _recurrence_counts(coeffs, out, start):
    """Products of out[k] = c[k] -/+ sum_{j>=start} coeffs[j] * out[k-j]."""
    sizes_c = [len(c.terms) for c in coeffs]
    sizes_o = [len(c.terms) for c in out]
    mults = products = 0
    for k in range(len(sizes_o)):
        for j in range(start, k + 1):
            if sizes_c[j] and sizes_o[k - j]:
                mults += 1
                products += sizes_c[j] * sizes_o[k - j]
    return mults, products


def _divide_by(args, kwargs, result):
    den = args[1]
    mults, products = _recurrence_counts(den.coeffs, result.coeffs, 1)
    return {"multiplies": mults, "term_products": products, "terms_out": _terms_out(result)}


def _compose_geometric(args, kwargs, result):
    mults, products = _recurrence_counts(args[0].coeffs, result.coeffs, 1)
    return {"multiplies": mults, "term_products": products, "terms_out": _terms_out(result)}


def _poly_mul(args, kwargs, result):
    self, other = args
    if not hasattr(other, "terms"):
        return {}
    return {"multiplies": 1, "term_products": len(self.terms) * len(other.terms)}


def _degree_census(args, kwargs, result):
    n = result.n
    return {
        "vertices": result.vertex_total(),
        "probes": n * result.vertex_total(),
        "hits": 2 * result.edge_total(),
    }


def _maximal_vertices(args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    return {"probes": n * vertex_count(n)}


def _build(args, kwargs, result):
    return {"vertices": result.vertex_count, "edges": result.edge_count}


def _bfs(args, kwargs, result):
    graph = args[0] if args else kwargs["graph"]
    reached = int((result >= 0).sum())
    return {"vertices_reached": reached, "arcs_scanned": int(graph.indptr[-1])}


def _dilation(args, kwargs, result):
    return {"sources": 1 << result.n}


def _boolean_intervals(args, kwargs, result):
    return {"pairs": result["pairs_checked"]}


def _words(args, kwargs, result):
    return {"words": len(result)}


def _masks(args, kwargs, result):
    return {"masks": len(result)}


CHECK = ("s",)
TIMED = ("calls", "self_s")

# (module, qualified name, reported metrics, counter function)
TARGETS = [
    ("graph", "rc_masks", TIMED + ("masks",), _masks),
    ("graph", "degree_census", TIMED + ("vertices", "probes", "hit_ratio"), _degree_census),
    ("graph", "maximal_vertices", TIMED + ("probes",), _maximal_vertices),
    ("graph", "build", TIMED + ("vertices", "edges"), _build),
    ("graph", "bfs_distances", TIMED + ("vertices_reached", "arcs_scanned"), _bfs),
    ("graph", "count_induced_cubes", TIMED, None),
    ("polyseries", "TruncatedSeries.__mul__", TIMED + ("term_products", "terms_out"), _series_mul),
    ("polyseries", "TruncatedSeries.divide_by", TIMED + ("term_products", "terms_out"), _divide_by),
    ("polyseries", "TruncatedSeries.compose_geometric", TIMED + ("terms_out",), _compose_geometric),
    ("polyseries", "MultiPoly.__mul__", TIMED + ("term_products",), _poly_mul),
    ("polyseries", "MultiPoly.substitute", TIMED, None),
    ("polyseries", "MultiPoly.map_onto", TIMED, None),
    ("polyseries", "MultiPoly.json_terms", TIMED, None),
    ("enumerators", "census_check", CHECK, None),
    ("enumerators", "case_assembly_check", CHECK, None),
    ("enumerators", "word_sum_identity_check", CHECK, None),
    ("enumerators", "specialize_checks", CHECK, None),
    ("enumerators", "edge_gf_check", CHECK, None),
    ("enumerators", "degree_k_law_check", CHECK, None),
    ("enumerators", "pk_probe_check", CHECK, None),
    ("enumerators", "recurrence_check", CHECK, None),
    ("enumerators", "assemble_case_gfs", CHECK, None),
    ("enumerators", "case_census_polynomials", CHECK, None),
    ("poset", "interval_check", CHECK, None),
    ("poset", "mobius_check", CHECK, None),
    ("poset", "rank_check", CHECK, None),
    ("poset", "maximal_gf_check", CHECK, None),
    ("poset", "verify_boolean_intervals", TIMED + ("pairs",), _boolean_intervals),
    ("inversions", "q_polynomial", TIMED, None),
    ("inversions", "q_polynomial_recursive", ("calls",), None),
    ("inversions", "recurrence_check", CHECK, None),
    ("inversions", "functional_identity_check", CHECK, None),
    ("inversions", "q1_specialization_check", CHECK, None),
    ("embedding", "dilation", TIMED + ("sources",), _dilation),
    ("embedding", "cube_gf_check", CHECK, None),
    ("embedding", "host_check", CHECK, None),
    ("strings", "enumerate_rc", ("calls", "words"), _words),
    ("strings", "flip_degrees", TIMED, None),
    ("strings", "decompose", TIMED, None),
    ("cli", "main", TIMED, None),
]

LAYERS = ("graph", "polyseries", "enumerators", "poset", "inversions", "embedding", "strings", "cli")

# metrics measured by run.py rather than by spans
RUN_METRICS = {"process.cpu_s": "s", "trace.overhead_s": "s"}

RATIOS = {
    # name: (numerator counter, denominator counter, unit)
    "graph.degree_census.hit_ratio": ("graph.degree_census.hits", "graph.degree_census.probes", "ratio"),
    "polyseries.products_per_multiply": ("polyseries.term_products", "polyseries.multiplies", "products/mul"),
}


def _unit(metric):
    if metric in ("s", "self_s"):
        return "s"
    return "count"


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units["%s.self_s" % layer] = "s"
    for module, qualname, metrics, _ in TARGETS:
        for m in metrics:
            name = "%s.%s.%s" % (module, qualname, m)
            units[name] = RATIOS[name][2] if name in RATIOS else _unit(m)
    units["polyseries.products_per_multiply"] = RATIOS["polyseries.products_per_multiply"][2]
    units.update(RUN_METRICS)
    return units


class Tracer:
    """Wraps runcube's functions in place; spans and counters live in memory."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.span_target = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = [dict() for _ in targets]
        self.stack = [-1]
        self.patched = []
        self.absent = []

    def _wrap(self, tid, fn, counter):
        span_target, span_parent = self.span_target, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self.stack
        counts = self.counters[tid]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(span_start)
            span_target.append(tid)
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_start[sid] = start
                span_end[sid] = end
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def install(self):
        """Wrap every target wherever runcube binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "runcube" or name.startswith("runcube."))]
        for tid, (module, qualname, _, counter) in enumerate(self.targets):
            owner = sys.modules.get("runcube." + module)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append("%s.%s" % (module, qualname))
                continue
            wrapper = self._wrap(tid, original, counter)
            holders = [owner] if path else []
            holders += modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self.patched.append((holder, name, original))
                        setattr(holder, name, wrapper)
        return self

    def uninstall(self):
        for holder, name, original in reversed(self.patched):
            setattr(holder, name, original)
        self.patched = []

    def metrics(self):
        """Metric values from the recorded spans and counters, by name.

        Every target gets `.calls`, `.self_s`, `.s` and its counters; which
        of them are reported is chosen by `metric_units()`.
        """
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.span_parent[i] >= 0:
                child[self.span_parent[i]] += dur[i]
        k = len(self.targets)
        calls, total, own = [0] * k, [0.0] * k, [0.0] * k
        for i in range(n):
            t = self.span_target[i]
            calls[t] += 1
            total[t] += dur[i]
            own[t] += dur[i] - child[i]
        values = {"%s.self_s" % layer: 0.0 for layer in LAYERS}
        for tid, (module, qualname, _, _) in enumerate(self.targets):
            base = "%s.%s" % (module, qualname)
            values["%s.self_s" % module] = values.get("%s.self_s" % module, 0.0) + own[tid]
            values[base + ".calls"] = calls[tid]
            values[base + ".self_s"] = own[tid]
            values[base + ".s"] = total[tid]
            for key, value in self.counters[tid].items():
                values["%s.%s" % (base, key)] = value
                if key in ("multiplies", "term_products"):
                    pooled = "%s.%s" % (module, key)
                    values[pooled] = values.get(pooled, 0) + value
        for name, (num, den, _) in RATIOS.items():
            values[name] = values.get(num, 0) / values[den] if values.get(den) else 0.0
        return values
