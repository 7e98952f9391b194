"""Span tracer for the benchmark's traced run.

The tracer wraps public callables of each layer from outside the program
and records one span per call: name, start, end, parent span (a per-thread
stack), thread and op id.  Spans stay in memory until the run ends; they
are then written as Chrome-trace ``"ph": "X"`` events and reduced to
per-layer self time and counts.

Installing patches each callable in place: class methods on their class,
functions at every module that imported them by name.  Uninstalling puts
back the exact objects that were there before, so an untraced pass runs
no wrapper at all.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

#: Attribute set on every wrapper, so leftover wrappers can be counted.
WRAPPER_FLAG = "__e2e_trace_wrapper__"


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    thread: int
    start: float
    end: float
    op: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _dispatch_counts(report) -> dict[str, int]:
    return {
        "engine.escalations": len(report.escalations),
        "engine.splits": len(report.splits),
    }


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``attr`` is ``"func"`` or ``"Class.method"``."""

    module: str
    attr: str
    span: str
    #: Keyword argument whose value becomes the op id of the span and of
    #: every span under it on the same thread.
    op_arg: str | None = None
    #: Counts read from the return value, summed into ``Tracer.counts``.
    harvest: Callable | None = None


_EXECUTE_PLAN_SITES = (
    "repro.engine.dispatch",
    "repro.core.multi_tile",
    "repro.core.single_tile",
    "repro.streams.incremental",
    "repro.service.scheduler",
)

#: The layer boundaries the traced run times.
TARGETS: tuple[Target, ...] = (
    Target("repro.kernels.dist_calc", "DistCalcKernel.run_block", "kernels.dist_calc"),
    Target("repro.kernels.dist_calc", "DistCalcKernel.run", "kernels.dist_calc_row"),
    Target("repro.kernels.tc_gemm", "TcGemmKernel.run_block", "kernels.tc_gemm"),
    Target("repro.kernels.sort_scan", "SortScanKernel.run", "kernels.sort_scan"),
    Target("repro.kernels.update", "UpdateKernel.run_block", "kernels.update"),
    Target("repro.kernels.update", "UpdateKernel.run", "kernels.update"),
    Target("repro.kernels.update", "UpdateKernel.masked_run", "kernels.update"),
    Target("repro.engine.plan", "JobSpec.from_arrays", "engine.spec"),
    Target("repro.engine.plan", "JobSpec.from_layouts", "engine.spec"),
    Target("repro.engine.plan", "JobSpec.plan", "engine.plan"),
    *(
        Target(site, "execute_plan", "engine.dispatch", harvest=_dispatch_counts)
        for site in _EXECUTE_PLAN_SITES
    ),
    Target("repro.engine.backends", "NumericBackend.run", "engine.backend"),
    Target("repro.engine.backends", "run_tile", "engine.run_tile"),
    Target("repro.engine.precalc_cache", "PrecalcPlaneCache.prepare", "engine.precalc_prepare"),
    Target("repro.engine.accumulate", "ProfileAccumulator.add", "engine.merge"),
    Target("repro.engine.checkpoint", "RunJournal.record", "engine.journal"),
    Target("repro.engine.health", "HealthPolicy.check", "engine.health"),
    Target("repro.autotune.planner", "AutoTuner.tune", "autotune.tune"),
    Target("repro.service.service", "MatrixProfileService.submit", "service.submit"),
    Target("repro.service.scheduler", "TileScheduler.execute", "service.execute",
           op_arg="label"),
    Target("repro.streams.ingest", "StreamIngestService.ingest", "streams.ingest"),
    Target("repro.streams.sketch", "SketchMonitor.score", "streams.sketch"),
    Target("repro.streams.incremental", "StreamPlaneCache.prepare", "streams.plane_prepare"),
    Target("repro.streams.incremental", "IncrementalMatrixProfile.cover", "streams.band"),
    Target("repro.streams.incremental", "IncrementalMatrixProfile.append", "streams.band"),
    Target("repro.streams.incremental", "IncrementalMatrixProfile.probe", "streams.band"),
)

#: Self-time metrics (percent of traced wall) -> the spans they sum.
SELF_TIME_METRICS = {
    "kernels.dist_calc_pct": ("kernels.dist_calc", "kernels.dist_calc_row"),
    "kernels.tc_gemm_pct": ("kernels.tc_gemm",),
    "kernels.sort_scan_pct": ("kernels.sort_scan",),
    "kernels.update_pct": ("kernels.update",),
    "engine.plan_pct": ("engine.spec", "engine.plan"),
    "engine.dispatch_self_pct": ("engine.dispatch",),
    "engine.backend_self_pct": ("engine.backend",),
    "engine.run_tile_self_pct": ("engine.run_tile",),
    "engine.precalc_prepare_pct": ("engine.precalc_prepare",),
    "engine.merge_pct": ("engine.merge",),
    "engine.journal_pct": ("engine.journal",),
    "engine.health_pct": ("engine.health",),
    "autotune.tune_pct": ("autotune.tune",),
    "service.submit_pct": ("service.submit",),
    "service.execute_pct": ("service.execute",),
    "streams.ingest_self_pct": ("streams.ingest",),
    "streams.sketch_pct": ("streams.sketch",),
    "streams.plane_prepare_pct": ("streams.plane_prepare",),
    "streams.band_pct": ("streams.band",),
}

#: Call-count metrics (per traced pass) -> the spans they count.
CALL_COUNT_METRICS = {
    "kernels.steps": ("kernels.dist_calc", "kernels.dist_calc_row", "kernels.tc_gemm"),
    "kernels.per_row_calls": ("kernels.dist_calc_row",),
    "engine.plans": ("engine.plan",),
    "engine.tiles": ("engine.backend",),
    "engine.precalc_prepares": ("engine.precalc_prepare",),
    "engine.merges": ("engine.merge",),
    "engine.journal_records": ("engine.journal",),
    "engine.health_checks": ("engine.health",),
    "autotune.tune_calls": ("autotune.tune",),
    "streams.sketch_calls": ("streams.sketch",),
}

#: Counts harvested from return values (per traced pass).
HARVESTED_METRICS = ("engine.escalations", "engine.splits")

#: Kernel spans whose self time makes up ``kernels.us_per_step``.
STEP_KERNELS = (
    "kernels.dist_calc", "kernels.dist_calc_row", "kernels.tc_gemm",
    "kernels.sort_scan", "kernels.update",
)


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans of the wrapped callables while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    # Span recording

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = None
        return local

    @contextmanager
    def op(self, op_id: str):
        """Tag every span this thread opens inside the block with ``op_id``."""
        state = self._state()
        saved, state.op = state.op, op_id
        try:
            yield
        finally:
            state.op = saved

    def _wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            saved_op = state.op
            if target.op_arg is not None and kwargs.get(target.op_arg) is not None:
                state.op = str(kwargs[target.op_arg])
            span_id = next(self._ids)
            parent = state.stack[-1] if state.stack else None
            state.stack.append(span_id)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                state.stack.pop()
                self.spans.append(Span(
                    span_id, parent, target.span, threading.get_ident(),
                    start, end, state.op,
                ))
                state.op = saved_op
            if target.harvest is not None:
                with self._count_lock:
                    for key, value in target.harvest(result).items():
                        self.counts[key] += value
            return result

        setattr(wrapper, WRAPPER_FLAG, True)
        return wrapper

    # ------------------------------------------------------------------
    # Patching

    def install(self, targets=TARGETS) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for target in targets:
                owner, name = _resolve(target)
                raw = inspect.getattr_static(owner, name)
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(raw.__func__, target))
                else:
                    new = self._wrap(raw, target)
                own = name in vars(owner)
                setattr(owner, name, new)
                self._patches.append((owner, name, raw, own))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, name, raw, own = self._patches.pop()
            if own:
                setattr(owner, name, raw)
            else:
                delattr(owner, name)

    @contextmanager
    def installed(self, targets=TARGETS):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()


def installed_wrappers(targets=TARGETS) -> int:
    """Number of ``targets`` currently replaced by a tracer wrapper."""
    count = 0
    for target in targets:
        owner, name = _resolve(target)
        raw = inspect.getattr_static(owner, name)
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        count += bool(getattr(fn, WRAPPER_FLAG, False))
    return count


# ----------------------------------------------------------------------
# Reduction


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that same-thread child
    spans cover.  Spans of other threads never count as children."""
    by_id = {s.span_id: s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        parent = by_id.get(s.parent_id)
        if parent is None or parent.thread != s.thread:
            continue
        overlap = min(s.end, parent.end) - max(s.start, parent.start)
        covered[parent.span_id] += max(overlap, 0.0)
    return {s.span_id: s.duration - covered[s.span_id] for s in spans}


def totals_by_name(spans) -> dict[str, dict[str, float]]:
    """Span name -> ``{"self_s": total self seconds, "calls": count}``."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for s in spans:
        out[s.name]["self_s"] += selfs[s.span_id]
        out[s.name]["calls"] += 1
    return dict(out)


def span_metrics(spans, counts, wall: float, n_passes: int) -> dict[str, float]:
    """The span-derived per-layer metrics of a traced run.

    Self time is reported as percent of ``wall`` (the traced passes'
    summed wall time; concurrent threads can push a layer past 100%),
    counts per traced pass.
    """
    totals = totals_by_name(spans)

    def self_s(names):
        return sum(totals.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(names):
        return sum(totals.get(n, {}).get("calls", 0) for n in names)

    out = {
        metric: 100.0 * self_s(names) / wall
        for metric, names in SELF_TIME_METRICS.items()
    }
    out.update({
        metric: calls(names) / n_passes
        for metric, names in CALL_COUNT_METRICS.items()
    })
    out.update({key: counts.get(key, 0) / n_passes for key in HARVESTED_METRICS})
    steps = calls(CALL_COUNT_METRICS["kernels.steps"])
    out["kernels.us_per_step"] = 1e6 * self_s(STEP_KERNELS) / steps if steps else 0.0
    return out


def chrome_trace(spans, path) -> None:
    """Write ``spans`` as Chrome-trace complete (``"ph": "X"``) events."""
    t0 = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ph": "X",
            "ts": (s.start - t0) * 1e6,
            "dur": s.duration * 1e6,
            "pid": 1,
            "tid": s.thread,
            "args": {"span": s.span_id, "parent": s.parent_id, "op": s.op},
        }
        for s in spans
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
