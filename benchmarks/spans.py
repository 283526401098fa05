"""In-memory span tracing around the public boundaries of each nnsums layer.

The tracer replaces callables at run time under the names their callers
look up (a module attribute, or a method on a class), records one span per
call with its parent, and restores the originals when uninstalled. Nothing
under ``src/`` is edited. A boundary that no longer exists raises
:class:`MissingBoundary`, so a refactor that moves a layer makes the traced
run fail instead of reporting 0 for it.

Self time of a span is its duration minus the durations of its direct
children. Calls are serial (one thread), so children never overlap and the
self times of a tree add up to the duration of its root.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from dataclasses import dataclass


class MissingBoundary(RuntimeError):
    """A traced boundary was not found, or a workload never reached it."""


@dataclass(frozen=True)
class Boundary:
    """One callable to wrap: ``module[.owner].attr``, recorded as ``span``.

    ``memory`` also records the dimension of the first argument, and the
    tracemalloc peak of the call once :meth:`Tracer.replay_memory` has run.
    """

    module: str
    owner: str | None
    attr: str
    span: str
    memory: bool = False


# Callers look these names up at call time: the workloads call the package
# namespace, experiments calls its own imports, and neighbors and limits
# call their module globals. Methods are wrapped on their class.
BOUNDARIES = (
    Boundary("nnsums.densities", "UniformConvexUnion", "sample", "densities.sample"),
    Boundary("nnsums.densities", "GaussianStandard", "sample", "densities.sample"),
    Boundary("nnsums.densities", "PowerLawTail", "sample", "densities.sample"),
    Boundary("nnsums.densities", "AnnulusBallCounterexample", "sample", "densities.sample"),
    Boundary("nnsums.points", "PointSet", "__init__", "points.init"),
    Boundary("nnsums.neighbors", "NeighborIndex", "__init__", "neighbors.build"),
    Boundary("nnsums.neighbors", "NeighborIndex", "knn_distances", "neighbors.query"),
    Boundary("nnsums.neighbors", None, "knn_distances", "neighbors.knn_distances"),
    Boundary("nnsums.experiments", None, "statistic_power", "neighbors.statistic_power"),
    Boundary("nnsums", None, "run_convergence", "experiments.sweep"),
    Boundary("nnsums", None, "run_divergence", "experiments.sweep"),
    Boundary("nnsums.experiments", None, "mann_kendall_increasing", "experiments.mann_kendall"),
    Boundary("nnsums.experiments", "ExperimentResult", "write", "experiments.write"),
    Boundary("nnsums", None, "condition_report", "conditions.report"),
    Boundary("nnsums.experiments", None, "condition_report", "conditions.report"),
    Boundary("nnsums.experiments", None, "check_divergence", "conditions.report"),
    Boundary("nnsums", None, "limit_functional", "limits.functional"),
    Boundary("nnsums.limits", None, "poisson_expectation", "limits.inner"),
    Boundary("nnsums", None, "build_mst", "mst.build", memory=True),
)

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("densities.sample_s", "s"),
    ("densities.sample_calls", "count"),
    ("points.init_s", "s"),
    ("neighbors.build_s", "s"),
    ("neighbors.query_s", "s"),
    ("neighbors.dense_s", "s"),
    ("neighbors.reduce_s", "s"),
    ("neighbors.calls", "count"),
    ("experiments.sweep_self_s", "s"),
    ("experiments.mann_kendall_s", "s"),
    ("experiments.report_s", "s"),
    ("experiments.attempts_per_rep", "ratio"),
    ("conditions.report_s", "s"),
    ("limits.functional_s", "s"),
    ("limits.inner_calls", "count"),
    ("limits.inner_s", "s"),
    ("mst.build_d2_s", "s"),
    ("mst.build_d3_s", "s"),
    ("mst.peak_mb", "MiB"),
    ("setup.import_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records spans ``[id, parent, name, start, end, attrs]`` in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self._replays = []

    def open(self, name: str, start: float | None = None) -> list:
        span = [
            len(self.spans),
            self._stack[-1][0] if self._stack else None,
            name,
            time.perf_counter() if start is None else start,
            None,
            None,
        ]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list, end: float | None = None) -> None:
        span[4] = time.perf_counter() if end is None else end
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span[2]!r} closed out of order")

    def _wrap(self, fn, boundary: Boundary):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(boundary.span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)
                if boundary.memory:
                    span[5] = {"dim": getattr(args[0], "dim", None) if args else None}
                    tracer._replays.append((span, fn, args, kwargs))

        return traced

    def replay_memory(self) -> None:
        """Call each memory-flagged call again under tracemalloc; store its peak.

        tracemalloc slows every allocation, so the timed call runs without it
        and the replay, made after the timed window, measures the memory.
        """
        while self._replays:
            span, fn, args, kwargs = self._replays.pop(0)
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
            finally:
                span[5]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

    def install(self, boundaries=BOUNDARIES) -> None:
        """Wrap every boundary; raise MissingBoundary if one does not exist."""
        targets = []
        for b in boundaries:
            try:
                target = importlib.import_module(b.module)
                if b.owner is not None:
                    target = getattr(target, b.owner)
                fn = getattr(target, b.attr)
            except (ImportError, AttributeError) as exc:
                where = ".".join(p for p in (b.module, b.owner, b.attr) if p)
                raise MissingBoundary(f"traced boundary {where} not found: {exc}") from None
            targets.append((target, b, fn))
        for target, b, fn in targets:
            self._saved.append((target, b.attr, fn))
            setattr(target, b.attr, self._wrap(fn, b))

    def uninstall(self) -> None:
        while self._saved:
            target, attr, fn = self._saved.pop()
            setattr(target, attr, fn)


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


def layer_metrics(spans, replications: int) -> dict:
    """Per-layer metrics (all but the two whole-run ones) from one worker's spans."""
    own = self_times(spans)
    total = {}
    calls = {}
    selfs = {}
    for s in spans:
        name = s[2]
        total[name] = total.get(name, 0.0) + (s[4] - s[3])
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + own[s[0]]
    builds = [s for s in spans if s[2] == "mst.build"]
    samples = calls.get("densities.sample", 0)
    return {
        "densities.sample_s": total.get("densities.sample", 0.0),
        "densities.sample_calls": samples,
        "points.init_s": total.get("points.init", 0.0),
        "neighbors.build_s": total.get("neighbors.build", 0.0),
        "neighbors.query_s": total.get("neighbors.query", 0.0),
        "neighbors.dense_s": selfs.get("neighbors.knn_distances", 0.0),
        "neighbors.reduce_s": selfs.get("neighbors.statistic_power", 0.0),
        "neighbors.calls": calls.get("neighbors.statistic_power", 0),
        "experiments.sweep_self_s": selfs.get("experiments.sweep", 0.0),
        "experiments.mann_kendall_s": total.get("experiments.mann_kendall", 0.0),
        "experiments.report_s": total.get("experiments.write", 0.0),
        "experiments.attempts_per_rep": samples / replications if replications else 0.0,
        "conditions.report_s": total.get("conditions.report", 0.0),
        "limits.functional_s": total.get("limits.functional", 0.0),
        "limits.inner_calls": calls.get("limits.inner", 0),
        "limits.inner_s": total.get("limits.inner", 0.0),
        "mst.build_d2_s": sum(s[4] - s[3] for s in builds if s[5]["dim"] == 2),
        "mst.build_d3_s": sum(s[4] - s[3] for s in builds if s[5]["dim"] == 3),
        "mst.peak_mb": max((s[5]["peak_bytes"] for s in builds), default=0) / 2**20,
    }


def require_reached(spans, names) -> None:
    """Raise MissingBoundary unless every named span was recorded at least once."""
    seen = {s[2] for s in spans}
    missing = sorted(set(names) - seen)
    if missing:
        raise MissingBoundary(f"workload never reached traced boundaries {missing}")
