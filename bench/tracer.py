"""Tracing of superharm from outside the package.

``Tracer.install`` wraps the public functions and class methods of each
package module and rebinds every package namespace that imported them, so no
change to ``src/`` is needed.  What a wrapper records depends on the layer:

* L0/L1 modules (``scalar``, ``grassmann``, ``superpoly``, ``radial``): calls
  and self time per function, aggregated only, because these run millions of
  times and a span each would cost more than the work;
* L2-L4 modules (``harmonics``, ``integrate``, ``zonal``, ``schrodinger``,
  ``cli``): a span per call to a public function (name, start, end, parent
  span, task id), kept in memory and written when the run ends.  Methods of
  classes in these modules are aggregated like L0/L1.

Self time is a call's duration minus the time of the wrapped calls inside it.
``fold`` sums self time per layer, which is the per-layer table.  Wrappers only
record while ``active`` is set, so set-up and correctness checks stay out of
the numbers.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from fractions import Fraction

LAYERS = (
    "scalar", "grassmann", "superpoly", "radial",
    "harmonics", "integrate", "zonal", "schrodinger", "cli",
)
AGGREGATE_ONLY = {"scalar", "grassmann", "superpoly", "radial"}
METHODS = {
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__pow__", "__eq__", "__call__",
}
# functions whose per-call durations are kept for a median
DISTRIBUTIONS = (
    "superpoly.laplacian",
    "harmonics.harmonic_basis",
    "harmonics.fischer_decompose",
    "integrate.pizzetti",
    "zonal.mehler_expansions_agree",
    "zonal.funk_hecke_alpha_numeric",
    "zonal.hankel",
    "schrodinger.solve_numeric",
)
# input-keyed caches, read through cache_info(): metric -> [(module, name)]
CACHES = {
    "scalar.bessel_cache_hit_ratio": [("scalar", "_bessel_j_cached"), ("scalar", "bessel_profile")],
    "zonal.jacobi_cache_hit_ratio": [("zonal", "_jacobi_rule"), ("zonal", "_legendre_table")],
}
# exact results of these spans are scanned for coefficient size
SIZED = {"harmonics", "integrate", "zonal"}


def _coeff_bits(obj) -> int:
    """Largest numerator/denominator bit length in an exact result."""
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    terms = getattr(obj, "terms", None)
    if isinstance(terms, dict):
        return max((_coeff_bits(c) for c in terms.values()), default=0)
    if isinstance(obj, (list, tuple)):
        return max((_coeff_bits(x) for x in obj), default=0)
    elements = getattr(obj, "elements", None)
    if isinstance(elements, list):
        return _coeff_bits(elements)
    return 0


class Tracer:
    def __init__(self):
        self.active = [False]
        self.task = [None]
        self.child = [0.0]        # stack of time spent in wrapped callees
        self.open_spans = []      # ids of the spans now running
        self.spans = []           # (id, name, start, end, parent, task)
        self.stats = {}           # "layer.function" -> [calls, self seconds]
        self.durations = {name: [] for name in DISTRIBUTIONS}
        self.gauges = {"superpoly.terms_max": 0, "scalar.coeff_bits_max": 0,
                       "harmonics.nullspace_cols_max": 0}
        self._caches = {}
        self._cache_start = {}

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every layer module of ``package`` (already imported)."""
        modules = {name: sys.modules[f"{package.__name__}.{name}"]
                   for name in LAYERS if f"{package.__name__}.{name}" in sys.modules}
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                elif callable(obj):
                    replaced[id(obj)] = (obj, self._wrap(layer, f"{layer}.{name}", obj,
                                                         span=layer not in AGGREGATE_ONLY))
        harmonics = modules.get("harmonics")
        if harmonics is not None:
            replaced[id(harmonics._rref_nullspace)] = (
                harmonics._rref_nullspace, self._observe_nullspace(harmonics._rref_nullspace))
        # rebind the name in every package namespace that imported it
        for mod in [m for n, m in sys.modules.items()
                    if n == package.__name__ or n.startswith(package.__name__ + ".")]:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        for metric, entries in CACHES.items():
            fns = [getattr(modules[m], "__dict__").get(n) for m, n in entries if m in modules]
            fns = [getattr(f, "__wrapped_cache__", f) for f in fns if f is not None]
            self._caches[metric] = [f for f in fns if hasattr(f, "cache_info")]

    def _wrap_class(self, layer, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name not in METHODS and name.startswith("_"):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(layer, key, attr.__func__)))
            elif isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(layer, key, attr.__func__)))
            elif inspect.isfunction(attr):
                if key == "superpoly.SuperPolynomial.__init__":
                    setattr(cls, name, self._wrap_poly_init(layer, key, attr))
                else:
                    setattr(cls, name, self._wrap(layer, key, attr))

    def _wrap(self, layer, key, fn, span=False):
        st = self.stats.setdefault(key, [0, 0.0])
        active, child, clock = self.active, self.child, time.perf_counter
        durations = self.durations.get(key)
        if not span:
            @functools.wraps(fn)
            def aggregate(*args, **kwargs):
                if not active[0]:
                    return fn(*args, **kwargs)
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    inner = child.pop()
                    child[-1] += dt
                    st[0] += 1
                    st[1] += dt - inner
                    if durations is not None:
                        durations.append(dt)
            if hasattr(fn, "cache_info"):
                aggregate.__wrapped_cache__ = fn
            return aggregate

        open_spans, spans, task, gauges = self.open_spans, self.spans, self.task, self.gauges
        sized = layer in SIZED

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            sid = len(spans) + len(open_spans)
            parent = open_spans[-1] if open_spans else None
            open_spans.append(sid)
            child.append(0.0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                inner = child.pop()
                child[-1] += dt
                open_spans.pop()
                st[0] += 1
                st[1] += dt - inner
                spans.append((sid, key, t0, t1, parent, task[0]))
                if durations is not None:
                    durations.append(dt)
                if sized and result is not None:
                    bits = _coeff_bits(result)
                    if bits > gauges["scalar.coeff_bits_max"]:
                        gauges["scalar.coeff_bits_max"] = bits
        return spanned

    def _wrap_poly_init(self, layer, key, fn):
        wrapped = self._wrap(layer, key, fn)
        active, gauges = self.active, self.gauges

        @functools.wraps(fn)
        def init(obj, *args, **kwargs):
            wrapped(obj, *args, **kwargs)
            if active[0] and len(obj.terms) > gauges["superpoly.terms_max"]:
                gauges["superpoly.terms_max"] = len(obj.terms)
        return init

    def _observe_nullspace(self, fn):
        active, gauges = self.active, self.gauges

        @functools.wraps(fn)
        def nullspace(rows, ncols):
            if active[0] and ncols > gauges["harmonics.nullspace_cols_max"]:
                gauges["harmonics.nullspace_cols_max"] = ncols
            return fn(rows, ncols)
        return nullspace

    # -- recording ----------------------------------------------------------

    def start(self) -> None:
        """Begin a traced phase: remember cache counters to report deltas."""
        self._cache_start = {m: [f.cache_info() for f in fns] for m, fns in self._caches.items()}

    def cache_counts(self) -> dict:
        """metric -> [hits, lookups] since ``start``."""
        out = {}
        for metric, fns in self._caches.items():
            hits = lookups = 0
            for f, before in zip(fns, self._cache_start.get(metric, [])):
                now = f.cache_info()
                hits += now.hits - before.hits
                lookups += now.hits + now.misses - before.hits - before.misses
            out[metric] = [hits, lookups]
        return out

    def snapshot(self) -> dict:
        """Everything recorded, as plain data that merges across processes."""
        return {
            "stats": {k: v for k, v in self.stats.items() if v[0]},
            "durations": {k: v for k, v in self.durations.items() if v},
            "gauges": dict(self.gauges),
            "caches": self.cache_counts(),
            "spans": list(self.spans),
        }


def merge(snapshots) -> dict:
    out = {"stats": {}, "durations": {}, "gauges": {}, "caches": {}, "spans": []}
    for snap in snapshots:
        for k, (calls, self_s) in snap["stats"].items():
            acc = out["stats"].setdefault(k, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for k, v in snap["durations"].items():
            out["durations"].setdefault(k, []).extend(v)
        for k, v in snap["gauges"].items():
            out["gauges"][k] = max(out["gauges"].get(k, 0), v)
        for k, (hits, lookups) in snap["caches"].items():
            acc = out["caches"].setdefault(k, [0, 0])
            acc[0] += hits
            acc[1] += lookups
        out["spans"].extend(snap["spans"])
    return out


def fold(snap: dict) -> dict:
    """Per-layer table: layer -> {"calls": n, "self_s": seconds}."""
    table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for key, (calls, self_s) in snap["stats"].items():
        row = table[key.split(".", 1)[0]]
        row["calls"] += calls
        row["self_s"] += self_s
    return table


def layer_metrics(snap: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json that the trace yields.

    A layer that did not run reports 0 calls and 0 s; a ratio or median with
    nothing to count reports 0.
    """
    table = fold(snap)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = table[layer]["calls"]
        out[f"{layer}.self_s"] = table[layer]["self_s"]
    out["superpoly.inits"] = snap["stats"].get("superpoly.SuperPolynomial.__init__", [0])[0]
    for key in DISTRIBUTIONS:
        values = snap["durations"].get(key, [])
        out[f"{key}_p50_ms"] = statistics.median(values) * 1e3 if values else 0.0
    out.update(snap["gauges"])
    for metric, (hits, lookups) in snap["caches"].items():
        out[metric] = hits / lookups if lookups else 0.0
    return out
