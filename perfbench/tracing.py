"""Spans around calls into the program's modules, kept in memory.

``Tracer.install()`` replaces public attributes of ``temperedwalk`` modules
(and ``scipy.integrate.quad``, which ``temperedwalk.numerics`` calls) with
wrappers that record one span per call: name, start, end, parent span and a
few attributes.  ``uninstall()`` puts the originals back, so traced and
untraced rounds run in one process.  Nothing under ``src/`` changes.
"""

import functools
import json
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _plan_attrs(args, kwargs):
    plan = kwargs.get("plan", args[0] if args else None)
    threads = kwargs.get("threads", args[3] if len(args) > 3 else 1)
    return {"n": plan.n, "replicates": plan.replicates, "threads": threads}


def _targets():
    """(owner, attribute, span name, attribute extractor) for every span."""
    import scipy.integrate
    from temperedwalk import analytics, engine, tempering

    return [
        (engine, "simulate_rowsum", "engine.simulate_rowsum", _plan_attrs),
        (engine, "simulate_paths", "engine.simulate_paths", _plan_attrs),
        (engine, "centering_truncated_mean", "engine.centering_truncated_mean", None),
        (analytics.LevyExponent, "eval", "analytics.eval", None),
        (analytics.LevyExponent, "eval_grid", "analytics.eval_grid", None),
        (analytics, "empirical_cf", "analytics.empirical_cf", None),
        (analytics, "density_1d", "analytics.density_1d", None),
        (analytics, "vague_convergence_table", "analytics.vague_convergence_table", None),
        (analytics, "uan_profile", "analytics.uan_profile", None),
        (tempering.TemperingSpec, "verify_regularity", "tempering.verify_regularity", None),
        (scipy.integrate, "quad", "numerics.quad", None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name, attrs=None):
        stack = self._stack()
        span = Span(len(self.spans), stack[-1].id if stack else -1, name,
                    time.perf_counter(), attrs=attrs or {})
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name, attrs(args, kwargs) if attrs else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return traced

    def install(self):
        for owner, attr, name, attrs in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    child = {}
    for s in spans:
        if s.parent >= 0:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child.get(s.id, 0.0) for s in spans}


UNITS = {
    "engine.simulate_rowsum_s": "s",
    "engine.jumps_per_s": "jumps/s",
    "engine.simulate_paths_s": "s",
    "engine.centering_truncated_mean_s": "s",
    "engine.us_per_replicate": "us",
    "engine.threads2_over_threads1": "ratio",
    "cli.self_s": "s",
    "analytics.eval_grid_s": "s",
    "analytics.empirical_cf_s": "s",
    "analytics.eval_calls": "count",
    "analytics.eval_s": "s",
    "analytics.density_1d.self_s": "s",
    "analytics.vague_convergence_table_s": "s",
    "analytics.uan_profile_s": "s",
    "tempering.verify_regularity_s": "s",
    "numerics.quad_calls": "count",
    "numerics.quad_s": "s",
    "numerics.quad_per_eval": "ratio",
    "trace.overhead_s": "s",
}


def layer_metrics(spans):
    """Per-layer totals over the spans of one traced round.

    A metric whose layer did no work in the round reads 0, and so does a
    ratio whose base is 0.
    """
    own = self_times(spans)

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def ratio(num, den):
        return num / den if den else 0.0

    rowsum = [s for s in spans if s.name == "engine.simulate_rowsum"]
    one = [s for s in rowsum if s.attrs["threads"] == 1]
    two = [s for s in rowsum if s.attrs["threads"] == 2]
    eval_calls = count("analytics.eval")
    quad_calls = count("numerics.quad")
    return {
        "engine.simulate_rowsum_s": total("engine.simulate_rowsum"),
        "engine.jumps_per_s": ratio(sum(s.attrs["n"] * s.attrs["replicates"] for s in rowsum),
                                    total("engine.simulate_rowsum")),
        "engine.simulate_paths_s": total("engine.simulate_paths"),
        "engine.centering_truncated_mean_s": total("engine.centering_truncated_mean"),
        "engine.us_per_replicate": 1e6 * ratio(sum(s.duration for s in one),
                                               sum(s.attrs["replicates"] for s in one)),
        "engine.threads2_over_threads1": ratio(sum(s.duration for s in two),
                                               sum(s.duration for s in one) if two else 0.0),
        "cli.self_s": sum(own[s.id] for s in spans if s.name == "cli.run"),
        "analytics.eval_grid_s": total("analytics.eval_grid"),
        "analytics.empirical_cf_s": total("analytics.empirical_cf"),
        "analytics.eval_calls": eval_calls,
        "analytics.eval_s": total("analytics.eval"),
        "analytics.density_1d.self_s": sum(own[s.id] for s in spans
                                           if s.name == "analytics.density_1d"),
        "analytics.vague_convergence_table_s": total("analytics.vague_convergence_table"),
        "analytics.uan_profile_s": total("analytics.uan_profile"),
        "tempering.verify_regularity_s": total("tempering.verify_regularity"),
        "numerics.quad_calls": quad_calls,
        "numerics.quad_s": total("numerics.quad"),
        "numerics.quad_per_eval": ratio(quad_calls, eval_calls),
    }
