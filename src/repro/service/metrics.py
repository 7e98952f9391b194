"""Service observability: counters, latency percentiles, throughput.

:class:`ServiceMetrics` is the single thread-safe sink every service
component reports into; :meth:`ServiceMetrics.snapshot` freezes it into a
plain :class:`MetricsSnapshot` whose ``to_rows()`` feeds
:func:`repro.reporting.format_table` (and the ``repro serve`` CLI).
A counter is declared once, as a :class:`MetricsSnapshot` field.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, fields

__all__ = ["MetricsSnapshot", "ServiceMetrics", "percentile"]

#: Job latencies :class:`ServiceMetrics` keeps for p50/p95: an always-on
#: service must not grow a list per job forever.
LATENCY_HISTORY = 1024


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty sequence).

    ``q`` in [0, 100].  Nearest-rank keeps the number an actually
    observed latency, the convention service dashboards use.
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass(frozen=True)
class MetricsSnapshot:
    """Frozen view of the service counters at one instant."""

    jobs_submitted: int
    jobs_completed: int
    jobs_partial: int
    jobs_failed: int
    jobs_in_flight: int
    jobs_per_second: float
    latency_p50: float
    latency_p95: float
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    stats_cache_hits: int
    stats_cache_misses: int
    precision_downgrades: int
    downgraded_jobs: int
    tile_retries: int
    tiles_executed: int
    tile_escalations: int
    tile_splits: int
    deadline_misses: int
    elapsed: float
    # Streaming-tier counters (repro.streams); zero when no tenant has
    # ingested, in which case to_rows() omits the stream section.
    stream_appends: int = 0
    stream_samples: int = 0
    stream_dropped: int = 0
    stream_segments: int = 0
    stream_alarms: int = 0
    stream_suppressed_columns: int = 0
    stream_exact_columns: int = 0
    stream_exact_tiles: int = 0
    stream_shed_steps: int = 0
    stream_escalations: int = 0
    stream_tenants: int = 0
    # Cluster-tier counters (repro.cluster); to_rows() omits the section
    # when no job ran over a fleet and nothing was shed.
    cluster_jobs: int = 0
    cluster_nodes: int = 0
    node_deaths: int = 0
    tiles_resharded: int = 0
    recovery_seconds: float = 0.0
    backpressure_rejections: int = 0
    quota_rejections: int = 0
    autoscale_events: int = 0

    @property
    def stream_suppression_ratio(self) -> float:
        total = self.stream_suppressed_columns + self.stream_exact_columns
        return self.stream_suppressed_columns / total if total else 0.0

    def to_rows(self) -> list[list[object]]:
        """(metric, value) rows for :func:`repro.reporting.format_table`."""
        rows = self._base_rows()
        if self.stream_appends:
            rows += [
                ["stream tenants", self.stream_tenants],
                ["stream appends", self.stream_appends],
                [
                    "stream samples (dropped)",
                    f"{self.stream_samples} ({self.stream_dropped})",
                ],
                ["stream segments", self.stream_segments],
                ["sketch alarms", self.stream_alarms],
                [
                    "columns suppressed / exact",
                    f"{self.stream_suppressed_columns} / "
                    f"{self.stream_exact_columns}",
                ],
                ["sketch suppression", f"{self.stream_suppression_ratio:.1%}"],
                ["stream exact tiles", self.stream_exact_tiles],
                ["stream shed steps", self.stream_shed_steps],
                ["stream escalations", self.stream_escalations],
            ]
        if (
            self.cluster_jobs
            or self.backpressure_rejections
            or self.quota_rejections
        ):
            rows += [
                ["cluster jobs", self.cluster_jobs],
                ["cluster nodes (current)", self.cluster_nodes],
                ["node deaths", self.node_deaths],
                ["tiles re-sharded", self.tiles_resharded],
                ["recovery overhead (s)", f"{self.recovery_seconds:.4f}"],
                ["backpressure rejections", self.backpressure_rejections],
                ["quota rejections", self.quota_rejections],
                ["autoscale events", self.autoscale_events],
            ]
        return rows

    def _base_rows(self) -> list[list[object]]:
        return [
            ["jobs submitted", self.jobs_submitted],
            ["jobs completed", self.jobs_completed],
            ["jobs partial (deadline)", self.jobs_partial],
            ["jobs failed", self.jobs_failed],
            ["jobs in flight", self.jobs_in_flight],
            ["throughput (jobs/s)", f"{self.jobs_per_second:.2f}"],
            ["latency p50 (s)", f"{self.latency_p50:.4f}"],
            ["latency p95 (s)", f"{self.latency_p95:.4f}"],
            ["cache hits / misses", f"{self.cache_hits} / {self.cache_misses}"],
            ["cache hit rate", f"{self.cache_hit_rate:.1%}"],
            [
                "stats cache hits / misses",
                f"{self.stats_cache_hits} / {self.stats_cache_misses}",
            ],
            ["precision downgrades (steps)", self.precision_downgrades],
            ["downgraded jobs", self.downgraded_jobs],
            ["tile retries", self.tile_retries],
            ["tiles executed", self.tiles_executed],
            ["tile escalations (health)", self.tile_escalations],
            ["tile splits (OOM)", self.tile_splits],
            ["deadline misses", self.deadline_misses],
            ["window (s)", f"{self.elapsed:.2f}"],
        ]


#: Snapshot fields computed at :meth:`ServiceMetrics.snapshot` time;
#: every other field is a counter (``cluster_nodes`` is a gauge).
_DERIVED = frozenset({
    "jobs_in_flight", "jobs_per_second", "latency_p50", "latency_p95",
    "cache_hit_rate", "elapsed", "stream_tenants",
})


class ServiceMetrics:
    """Thread-safe accumulator of service-level counters.

    The counters live in one dict, keyed by :class:`MetricsSnapshot`'s
    field names, under one lock.  ``latency_p50``/``latency_p95`` are
    nearest-rank percentiles over the last :data:`LATENCY_HISTORY` job
    latencies (completed, partial and failed jobs), not over every job
    ever seen.
    """

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._lock = threading.RLock()
        self._started_at: float | None = None
        self._counters = {
            f.name: 0.0 if f.type == "float" else 0
            for f in fields(MetricsSnapshot)
            if f.name not in _DERIVED
        }
        self._latencies: deque[float] = deque(maxlen=LATENCY_HISTORY)
        self._stream_tenants: set = set()

    def _add(self, deltas: dict, latency: float | None = None,
             start: bool = False) -> None:
        """Add ``deltas`` to the counters (and ``latency`` to the window)
        atomically; ``start`` opens the throughput window if unopened."""
        with self._lock:
            if start and self._started_at is None:
                self._started_at = self._clock()
            if latency is not None:
                self._latencies.append(latency)
            for name, value in deltas.items():
                self._counters[name] += value

    def record_submission(self) -> None:
        self._add({"jobs_submitted": 1}, start=True)

    def record_cache(self, hit: bool) -> None:
        self._add({"cache_hits" if hit else "cache_misses": 1})

    def record_stats_cache(self, hit: bool) -> None:
        """One window-statistics store lookup (per series role, per job)."""
        self._add({"stats_cache_hits" if hit else "stats_cache_misses": 1})

    def record_downgrade(self, steps: int) -> None:
        if steps > 0:
            self._add({"downgraded_jobs": 1, "precision_downgrades": steps})

    def record_completion(
        self,
        latency: float,
        partial: bool = False,
        tiles: int = 0,
        retries: int = 0,
        deadline_missed: bool = False,
        escalations: int = 0,
        splits: int = 0,
    ) -> None:
        self._add({
            "jobs_partial" if partial else "jobs_completed": 1,
            "tiles_executed": tiles,
            "tile_retries": retries,
            "tile_escalations": escalations,
            "tile_splits": splits,
            "deadline_misses": int(deadline_missed),
        }, latency=latency)

    def record_stream(self, tenant_id: str, delta) -> None:
        """One streaming ingest step's
        :class:`~repro.streams.tenant.StreamCounters` delta: each field
        adds to its ``stream_`` counter (``rebases`` stays per tenant)."""
        deltas = {
            f"stream_{name}": value for name, value in vars(delta).items()
            if f"stream_{name}" in self._counters
        }
        with self._lock:
            self._stream_tenants.add(tenant_id)
            self._add(deltas, start=True)

    def record_cluster(
        self,
        nodes: int,
        deaths: int = 0,
        resharded: int = 0,
        recovery_seconds: float = 0.0,
    ) -> None:
        """One job executed over the cluster pool."""
        with self._lock:
            self._counters["cluster_nodes"] = nodes
            self._add({
                "cluster_jobs": 1,
                "node_deaths": deaths,
                "tiles_resharded": resharded,
                "recovery_seconds": recovery_seconds,
            })

    def record_rejection(self, kind: str) -> None:
        """A job shed at submission: ``"backpressure"`` or ``"quota"``."""
        if kind not in ("backpressure", "quota"):
            raise ValueError(f"unknown rejection kind {kind!r}")
        self._add({f"{kind}_rejections": 1})

    def record_autoscale(self, nodes: int) -> None:
        """The autoscaler resized the pool to ``nodes``."""
        with self._lock:
            self._counters["cluster_nodes"] = nodes
            self._add({"autoscale_events": 1})

    def record_failure(self, latency: float, retries: int = 0) -> None:
        self._add({"jobs_failed": 1, "tile_retries": retries}, latency=latency)

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the counters into a :class:`MetricsSnapshot`."""
        with self._lock:
            c = self._counters
            elapsed = (
                self._clock() - self._started_at if self._started_at else 0.0
            )
            finished = c["jobs_completed"] + c["jobs_partial"]
            lookups = c["cache_hits"] + c["cache_misses"]
            return MetricsSnapshot(
                **c,
                jobs_in_flight=c["jobs_submitted"] - finished - c["jobs_failed"],
                jobs_per_second=finished / elapsed if elapsed > 0 else 0.0,
                latency_p50=percentile(self._latencies, 50),
                latency_p95=percentile(self._latencies, 95),
                cache_hit_rate=c["cache_hits"] / lookups if lookups else 0.0,
                elapsed=elapsed,
                stream_tenants=len(self._stream_tenants),
            )
