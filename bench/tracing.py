"""In-process spans around maxproj's public functions, set from outside.

The program carries no instrumentation.  ``patched`` rebinds each traced
function in every ``maxproj`` module that looked it up by name (the harness
imports names into its own namespace) and restores the originals on exit.
Spans stay in memory in a ``Tracer``; ``aggregate`` turns them into calls,
total time and self time per span name, and ``layer_metrics`` into the
benchmark's per-layer metrics.
"""

import functools
import inspect
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, perf_counter()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index].end = perf_counter()
        self._stack.pop()

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount


def aggregate(spans):
    """name -> {"calls", "total_s", "self_s"}; self time excludes child spans."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out = {}
    for index, span in enumerate(spans):
        entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = span.end - span.start
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[index]
    return out


# ---------------------------------------------------------------------------
# what is traced


def _count_gflop(tracer, args, result):
    # computed, not measured: the projection matmul plus one multiply-add per power
    n, d = args["x"].shape
    m = args["cover_points"].shape[0]
    tracer.add("gflop", 2.0 * m * n * (d + max(args["betas"])) / 1e9)


def _count_replications(tracer, args, result):
    tracer.add("replications", args["replications"])


def _count_ingest(tracer, args, result):
    _, report = result
    tracer.add("rows_read", report.rows_read)
    tracer.add("rows_kept", report.rows_kept)


def _count_written(tracer, args, result):
    if result is None:
        tracer.add("bytes_written", os.path.getsize(args["path"]))
    else:
        tracer.add("bytes_written", len(result.encode()))


def _count_gram(tracer, args, result):
    m = args["points"].shape[0]
    tracer.add("gram_bytes", 8 * m * m)  # computed: one float64 m x m matrix


def _record_rank(tracer, args, result):
    # the transfer matrix handed to the field draws has one column per kept eigenpair
    tracer.counters["factor_rank"] = args["transfer"].shape[1]


#: (module, attribute path, span name or None for a counter-only hook, observer)
TARGETS = (
    ("rng", "stream", "rng.stream", None),
    ("geometry", "uniform_points", "geometry.uniform_points", None),
    ("samplers", "sample", "samplers.sample", None),
    ("statistics", "max_projection_values", "statistics.max_projection_values", _count_gflop),
    ("statistics", "t1_closed", "statistics.t1_closed", None),
    ("statistics", "t2_closed", "statistics.t2_closed", None),
    ("statistics", "ca_statistic", "statistics.ca_statistic", None),
    ("statistics", "sphere_sobolev", "statistics.sphere_sobolev", None),
    ("statistics", "cvm_statistic", "statistics.cvm_statistic", None),
    ("harness", "evaluate_battery", "harness.evaluate_battery", None),
    ("harness", "run_replications", "harness.run_replications", _count_replications),
    ("harness", "ingest", "harness.ingest", _count_ingest),
    ("harness", "write_rows", "harness.write_rows", _count_written),
    ("limits", "quantile_stderr", "limits.quantile_stderr", None),
    ("limits", "simulate_kernel_max", "limits.simulate_kernel_max", None),
    ("kernels", "ZonalKernel.gram", "kernels.ZonalKernel.gram", _count_gram),
    # private, but the only place the factorization's rank is visible from outside
    ("limits", "_batched_max_square", None, _record_rank),
)


def _wrap(tracer, fn, span_name, observer):
    signature = inspect.signature(fn) if observer else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if span_name is None:
            result = fn(*args, **kwargs)
        else:
            index = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
        if observer:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            observer(tracer, bound.arguments, result)
        return result

    return wrapper


@contextmanager
def patched(tracer):
    """Trace ``TARGETS`` into ``tracer`` for the duration of the block."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "maxproj" or name.startswith("maxproj."))]
    undo = []
    try:
        for module_name, path, span_name, observer in TARGETS:
            owner = sys.modules[f"maxproj.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = _wrap(tracer, original, span_name, observer)
            if outer:  # a method: rebinding it on its class reaches every caller
                sites = [owner]
            else:
                sites = [m for m in modules if vars(m).get(attr) is original]
            for site in sites:
                undo.append((site, attr, original))
                setattr(site, attr, wrapper)
        yield tracer
    finally:
        for site, attr, original in reversed(undo):
            setattr(site, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def _span(name, key):
    return lambda agg, counters: agg.get(name, {}).get(key, 0)


def _counter(name):
    return lambda agg, counters: counters.get(name, 0)


def _rate(counter, span_name, key):
    def rate(agg, counters):
        seconds = agg.get(span_name, {}).get(key, 0.0)
        return counters.get(counter, 0) / seconds if seconds > 0 else 0.0

    return rate


#: per-layer metric name -> (unit, function of (aggregate, counters))
SPAN_METRICS = {
    "geometry.uniform_points.calls": ("count", _span("geometry.uniform_points", "calls")),
    "geometry.uniform_points.self_s": ("s", _span("geometry.uniform_points", "self_s")),
    "rng.stream.calls": ("count", _span("rng.stream", "calls")),
    "rng.stream.self_s": ("s", _span("rng.stream", "self_s")),
    "statistics.max_projection_values.calls":
        ("count", _span("statistics.max_projection_values", "calls")),
    "statistics.max_projection_values.self_s":
        ("s", _span("statistics.max_projection_values", "self_s")),
    "statistics.max_projection_values.gflop": ("Gflop", _counter("gflop")),
    "statistics.max_projection_values.gflop_per_s":
        ("Gflop/s", _rate("gflop", "statistics.max_projection_values", "self_s")),
    "statistics.t1_closed.self_s": ("s", _span("statistics.t1_closed", "self_s")),
    "statistics.t2_closed.self_s": ("s", _span("statistics.t2_closed", "self_s")),
    "statistics.ca_statistic.self_s": ("s", _span("statistics.ca_statistic", "self_s")),
    "statistics.sphere_sobolev.self_s": ("s", _span("statistics.sphere_sobolev", "self_s")),
    "statistics.cvm_statistic.self_s": ("s", _span("statistics.cvm_statistic", "self_s")),
    "samplers.sample.calls": ("count", _span("samplers.sample", "calls")),
    "samplers.sample.self_s": ("s", _span("samplers.sample", "self_s")),
    "harness.evaluate_battery.self_s": ("s", _span("harness.evaluate_battery", "self_s")),
    "harness.run_replications.wall_s": ("s", _span("harness.run_replications", "total_s")),
    "harness.reps_per_s": ("1/s", _rate("replications", "harness.run_replications", "total_s")),
    "limits.quantile_stderr.self_s": ("s", _span("limits.quantile_stderr", "self_s")),
    "harness.ingest.self_s": ("s", _span("harness.ingest", "self_s")),
    "harness.ingest.rows_read": ("count", _counter("rows_read")),
    "harness.ingest.rows_kept": ("count", _counter("rows_kept")),
    "harness.write_rows.self_s": ("s", _span("harness.write_rows", "self_s")),
    "harness.write_rows.bytes": ("B", _counter("bytes_written")),
    "kernels.ZonalKernel.gram.self_s": ("s", _span("kernels.ZonalKernel.gram", "self_s")),
    "kernels.ZonalKernel.gram.bytes": ("B", _counter("gram_bytes")),
    "limits.simulate_kernel_max.self_s": ("s", _span("limits.simulate_kernel_max", "self_s")),
    "limits.factor_rank": ("count", _counter("factor_rank")),
}


def layer_metrics(tracer):
    """Every ``SPAN_METRICS`` value for one traced call."""
    agg = aggregate(tracer.spans)
    return {name: fn(agg, tracer.counters) for name, (_, fn) in SPAN_METRICS.items()}
