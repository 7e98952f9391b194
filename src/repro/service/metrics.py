"""Service observability: counters, latency percentiles, throughput.

:class:`ServiceMetrics` is the single thread-safe sink every service
component reports into; :meth:`ServiceMetrics.snapshot` freezes it into a
plain :class:`MetricsSnapshot` whose ``to_rows()`` feeds
:func:`repro.reporting.format_table` (and the ``repro serve`` CLI).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

__all__ = ["MetricsSnapshot", "ServiceMetrics", "percentile"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty list).

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


class ServiceMetrics:
    """Thread-safe accumulator of service-level counters."""

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._started_at: float | None = None
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_partial = 0
        self.jobs_failed = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.stats_cache_hits = 0
        self.stats_cache_misses = 0
        self.precision_downgrades = 0
        self.downgraded_jobs = 0
        self.tile_retries = 0
        self.tiles_executed = 0
        self.tile_escalations = 0
        self.tile_splits = 0
        self.deadline_misses = 0
        self._latencies: list[float] = []
        self.stream_appends = 0
        self.stream_samples = 0
        self.stream_dropped = 0
        self.stream_segments = 0
        self.stream_alarms = 0
        self.stream_suppressed_columns = 0
        self.stream_exact_columns = 0
        self.stream_exact_tiles = 0
        self.stream_shed_steps = 0
        self.stream_escalations = 0
        self._stream_tenants: set = set()
        self.cluster_jobs = 0
        self.cluster_nodes = 0
        self.node_deaths = 0
        self.tiles_resharded = 0
        self.recovery_seconds = 0.0
        self.backpressure_rejections = 0
        self.quota_rejections = 0
        self.autoscale_events = 0

    def record_submission(self) -> None:
        with self._lock:
            if self._started_at is None:
                self._started_at = self._clock()
            self.jobs_submitted += 1

    def record_cache(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1

    def record_stats_cache(self, hit: bool) -> None:
        """One window-statistics store lookup (per series role, per job)."""
        with self._lock:
            if hit:
                self.stats_cache_hits += 1
            else:
                self.stats_cache_misses += 1

    def record_downgrade(self, steps: int) -> None:
        if steps <= 0:
            return
        with self._lock:
            self.downgraded_jobs += 1
            self.precision_downgrades += steps

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
        with self._lock:
            if partial:
                self.jobs_partial += 1
            else:
                self.jobs_completed += 1
            self._latencies.append(latency)
            self.tiles_executed += tiles
            self.tile_retries += retries
            self.tile_escalations += escalations
            self.tile_splits += splits
            if deadline_missed:
                self.deadline_misses += 1

    def record_stream(
        self,
        tenant_id: str,
        appends: int = 0,
        samples: int = 0,
        dropped: int = 0,
        segments: int = 0,
        alarms: int = 0,
        suppressed: int = 0,
        exact_columns: int = 0,
        exact_tiles: int = 0,
        shed_steps: int = 0,
        escalations: int = 0,
    ) -> None:
        """One streaming ingest step's deltas (repro.streams tier)."""
        with self._lock:
            if self._started_at is None:
                self._started_at = self._clock()
            self._stream_tenants.add(tenant_id)
            self.stream_appends += appends
            self.stream_samples += samples
            self.stream_dropped += dropped
            self.stream_segments += segments
            self.stream_alarms += alarms
            self.stream_suppressed_columns += suppressed
            self.stream_exact_columns += exact_columns
            self.stream_exact_tiles += exact_tiles
            self.stream_shed_steps += shed_steps
            self.stream_escalations += escalations

    def record_cluster(
        self,
        nodes: int,
        deaths: int = 0,
        resharded: int = 0,
        recovery_seconds: float = 0.0,
    ) -> None:
        """One job executed over the cluster pool."""
        with self._lock:
            self.cluster_jobs += 1
            self.cluster_nodes = nodes
            self.node_deaths += deaths
            self.tiles_resharded += resharded
            self.recovery_seconds += recovery_seconds

    def record_rejection(self, kind: str) -> None:
        """A job shed at submission: ``"backpressure"`` or ``"quota"``."""
        with self._lock:
            if kind == "backpressure":
                self.backpressure_rejections += 1
            elif kind == "quota":
                self.quota_rejections += 1
            else:
                raise ValueError(f"unknown rejection kind {kind!r}")

    def record_autoscale(self, nodes: int) -> None:
        """The autoscaler resized the pool to ``nodes``."""
        with self._lock:
            self.autoscale_events += 1
            self.cluster_nodes = nodes

    def record_failure(self, latency: float, retries: int = 0) -> None:
        with self._lock:
            self.jobs_failed += 1
            self._latencies.append(latency)
            self.tile_retries += retries

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the counters into a :class:`MetricsSnapshot`."""
        with self._lock:
            elapsed = (
                self._clock() - self._started_at if self._started_at else 0.0
            )
            finished = self.jobs_completed + self.jobs_partial
            lookups = self.cache_hits + self.cache_misses
            return MetricsSnapshot(
                jobs_submitted=self.jobs_submitted,
                jobs_completed=self.jobs_completed,
                jobs_partial=self.jobs_partial,
                jobs_failed=self.jobs_failed,
                jobs_in_flight=self.jobs_submitted
                - finished
                - self.jobs_failed,
                jobs_per_second=finished / elapsed if elapsed > 0 else 0.0,
                latency_p50=percentile(self._latencies, 50),
                latency_p95=percentile(self._latencies, 95),
                cache_hits=self.cache_hits,
                cache_misses=self.cache_misses,
                cache_hit_rate=self.cache_hits / lookups if lookups else 0.0,
                stats_cache_hits=self.stats_cache_hits,
                stats_cache_misses=self.stats_cache_misses,
                precision_downgrades=self.precision_downgrades,
                downgraded_jobs=self.downgraded_jobs,
                tile_retries=self.tile_retries,
                tiles_executed=self.tiles_executed,
                tile_escalations=self.tile_escalations,
                tile_splits=self.tile_splits,
                deadline_misses=self.deadline_misses,
                elapsed=elapsed,
                stream_appends=self.stream_appends,
                stream_samples=self.stream_samples,
                stream_dropped=self.stream_dropped,
                stream_segments=self.stream_segments,
                stream_alarms=self.stream_alarms,
                stream_suppressed_columns=self.stream_suppressed_columns,
                stream_exact_columns=self.stream_exact_columns,
                stream_exact_tiles=self.stream_exact_tiles,
                stream_shed_steps=self.stream_shed_steps,
                stream_escalations=self.stream_escalations,
                stream_tenants=len(self._stream_tenants),
                cluster_jobs=self.cluster_jobs,
                cluster_nodes=self.cluster_nodes,
                node_deaths=self.node_deaths,
                tiles_resharded=self.tiles_resharded,
                recovery_seconds=self.recovery_seconds,
                backpressure_rejections=self.backpressure_rejections,
                quota_rejections=self.quota_rejections,
                autoscale_events=self.autoscale_events,
            )
