"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces every public function of ``odd_diagrams`` in the
namespace of every module of the package, so calls between modules and
within one module both pass through a wrapper. A wrapper counts the call and
times it; a layer's self time is its span's time minus the time of the
spans it caused. A call of a function that is already open on the stack (the
inner calls of the recursive ``kl_polynomial`` and ``r_polynomial``) is only
counted: timing every inner call would slow the traced run far more.

Spans near the root are kept in memory, with their parent, and written out
when the run ends; deeper ones are only added to the per-function totals,
which is what keeps memory flat over millions of calls.
"""

import inspect
import json
import sys
import time

SPAN_DEPTH = 3
MAX_SPANS = 50_000

# The per-layer metrics, in report order, with their units.
METRICS = (
    ("perms.self_s", "s"),
    ("perms.length.calls", "count"),
    ("perms.length.self_s", "s"),
    ("perms.bruhat_leq.calls", "count"),
    ("perms.bruhat_leq.self_s", "s"),
    ("perms.upward_covers.calls", "count"),
    ("perms.upward_covers.self_s", "s"),
    ("diagrams.self_s", "s"),
    ("diagrams.odd_diagram_key.calls", "count"),
    ("diagrams.odd_diagram_key.self_s", "s"),
    ("intervals.self_s", "s"),
    ("intervals.interval_elements.calls", "count"),
    ("intervals.interval_elements.self_s", "s"),
    ("intervals.interval_elements.elements", "count"),
    ("intervals.hasse_edges.calls", "count"),
    ("intervals.hasse_edges.self_s", "s"),
    ("intervals.cache.calls", "count"),
    ("intervals.cache.hits", "count"),
    ("intervals.cache.misses", "count"),
    ("intervals.cache.hit_ratio", "ratio"),
    ("classes.self_s", "s"),
    ("classes.classes_of_sn.calls", "count"),
    ("classes.classes_of_sn.self_s", "s"),
    ("classes.class_of.calls", "count"),
    ("classes.class_of.self_s", "s"),
    ("partition.self_s", "s"),
    ("partition.factorize.calls", "count"),
    ("partition.factorize.self_s", "s"),
    ("partition.decompose.calls", "count"),
    ("partition.decompose.self_s", "s"),
    ("polynomials.self_s", "s"),
    ("polynomials.kl_polynomial.calls", "count"),
    ("polynomials.kl_polynomial.self_s", "s"),
    ("polynomials.r_polynomial.calls", "count"),
    ("polynomials.r_polynomial.self_s", "s"),
    ("polynomials.kl_memo.entries", "count"),
    ("polynomials.r_memo.entries", "count"),
    ("polynomials.carrell_condition.self_s", "s"),
    ("polynomials.poincare.self_s", "s"),
    ("duality.self_s", "s"),
    ("duality.is_self_dual.calls", "count"),
    ("duality.is_self_dual.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace_overhead_s", "s"),
)
LAYERS = ("perms", "diagrams", "intervals", "classes", "partition",
          "polynomials", "duality", "cli")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, elements]
        self.stack: list[list] = []       # open timed calls: [child_s, span index]
        self.active: set[str] = set()     # names of the open timed calls
        self.spans: list[list] = []       # [name, parent index, start, end]

    def install(self, package: str) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == package or name.startswith(package + ".")]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith(package + ".")):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                setattr(module, attr, wrappers[obj])

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        stack, active, spans = self.stack, self.active, self.spans
        clock = time.perf_counter
        # a generator's work happens while its caller iterates; every caller
        # in the package consumes it fully, so drain it inside the span
        drain = inspect.isgeneratorfunction(fn)
        count_elements = name == "intervals.interval_elements"

        def traced(*args, **kwargs):
            stats[0] += 1
            if name in active:
                return fn(*args, **kwargs)
            span = -1
            start = clock()
            if len(stack) < SPAN_DEPTH and len(spans) < MAX_SPANS:
                span = len(spans)
                spans.append([name, stack[-1][1] if stack else -1, start, start])
            frame = [0.0, span]
            stack.append(frame)
            active.add(name)
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                end = clock()
                stack.pop()
                active.discard(name)
                stats[1] += end - start - frame[0]
                if stack:
                    stack[-1][0] += end - start
                if span >= 0:
                    spans[span][3] = end
            if count_elements:
                stats[2] += len(result)
            return iter(result) if drain else result

        return traced

    def metrics(self, package) -> dict:
        """Per-layer values for every metric of METRICS the run can supply.

        Every wrapped function has stats from the start, so one the run never
        called reads 0 calls. Cache and memo sizes are read from the package's
        module state; a metric whose function or state no longer exists is
        left out rather than zeroed.
        """
        values = {}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                v[1] for k, v in self.stats.items() if k.startswith(layer + "."))
        for name, (calls, self_s, elements) in self.stats.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
            if name == "intervals.interval_elements":
                values[f"{name}.elements"] = elements
        cache = getattr(package.intervals, "_cached_interval", None)
        if hasattr(cache, "cache_info"):
            info = cache.cache_info()
            values["intervals.cache.calls"] = info.hits + info.misses
            values["intervals.cache.hits"] = info.hits
            values["intervals.cache.misses"] = info.misses
            values["intervals.cache.hit_ratio"] = (
                info.hits / (info.hits + info.misses) if info.hits + info.misses else 0.0)
        for memo, attr in (("kl_memo", "_KL_MEMO"), ("r_memo", "_R_MEMO")):
            if hasattr(package.polynomials, attr):
                values[f"polynomials.{memo}.entries"] = len(getattr(package.polynomials, attr))
        names = {name for name, _ in METRICS}
        return {k: v for k, v in values.items() if k in names}

    def write(self, path: str) -> None:
        rows = [{"name": n, "parent": p, "start": a, "end": b} for n, p, a, b in self.spans]
        with open(path, "w") as fh:
            json.dump({"functions": self.stats, "spans": rows}, fh)
