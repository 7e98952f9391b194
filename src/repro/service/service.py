"""The multi-tenant matrix-profile job service.

:class:`MatrixProfileService` is the serving layer over the library's
one-shot compute path: it queues :class:`~repro.service.job.JobRequest`
objects by priority, runs admission control (precision-aware load
shedding), decomposes each job into its tile DAG and dispatches the tiles
across a shared pool of simulated GPUs, caches results content-addressed,
retries tiles around injected device failures, and merges anytime-style
partials when a deadline expires.

Two execution styles:

* **worker threads** — ``service.start()`` spins up ``n_workers``
  threads draining the queue concurrently (tile numerics run outside the
  pool lock, so jobs genuinely overlap);
* **inline** — ``service.process_all()`` drains the queue on the caller
  thread in strict priority order, which makes backlog-driven admission
  decisions deterministic (benchmarks and tests use this).

Every job's story — requested vs effective precision, cache hit, retries,
partial fraction — is recorded on its :class:`JobOutcome` and aggregated
in :class:`~repro.service.metrics.ServiceMetrics`.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time

import numpy as np

from ..cluster import (
    BackpressureError,
    ClusterAutoscaler,
    ClusterDispatcher,
    ClusterSpec,
    QuotaExceededError,
)
from ..core.anytime import AnytimeState
from ..core.config import RunConfig, default_exclusion_zone
from ..core.planner import plan_tiles
from ..core.result import MatrixProfileResult
from ..engine.accumulate import merge_time
from ..engine.dispatch import ExecutionPolicy
from ..engine.plan import JobSpec
from ..gpu.device import DeviceSpec
from ..gpu.memory import DeviceOutOfMemoryError
from ..gpu.simulator import GPUSimulator
from ..kernels.layout import to_device_layout, validate_series
from ..precision.modes import policy_for
from .admission import AdmissionController, LoadEstimator
from .cache import PrecalcStatsCache, ResultCache, cache_key
from .job import Job, JobOutcome, JobRequest, JobStatus, QueuedJob, series_digest
from .metrics import ServiceMetrics
from .scheduler import HealthPolicy, TileRetryExhaustedError, TileScheduler

__all__ = ["MatrixProfileService"]


class MatrixProfileService:
    """Job queue + scheduler + cache + admission control over a GPU pool.

    Parameters
    ----------
    device:
        Simulated device model shared by every pool GPU.
    n_gpus:
        Pool size; tiles of one job spread round-robin across it.
    n_workers:
        Worker threads started by :meth:`start` (also the parallelism
        divisor the admission controller applies to the backlog).
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching.
    estimator / admission:
        Override the load estimator / admission controller (tests and
        benchmarks inject deterministic ones).
    max_retries:
        Per-tile retry budget for transient device failures.
    max_replans:
        How many times a job may be re-tiled (4x tiles each step) after
        device OOM before failing.
    health:
        The :class:`~repro.engine.health.HealthPolicy` that validates
        every tile's output and escalates numerically sick tiles up the
        precision ladder (the default policy unless given); ``None``
        turns the checks off.  Escalations are recorded per job
        (:attr:`JobOutcome.tile_escalations`) and in the metrics.
    fault_plan:
        Optional :class:`~repro.engine.faults.FaultPlan` (or any object
        with either of its hooks) exercising the recovery paths.
    oom_tile_split:
        Split the offending tile in place on device OOM instead of
        re-planning the whole job with a finer tiling.
    cluster:
        Optional :class:`~repro.cluster.ClusterSpec` — jobs then execute
        over a sharded node fleet (:class:`~repro.cluster
        .ClusterDispatcher`) instead of the single GPU pool, with
        node-loss recovery and, when ``autoscaler`` is given, EMA-
        backlog-driven pool resizing.  ``node_faults`` injects a
        deterministic node storm (chaos tests).
    quotas / default_quota / max_queue_depth:
        Per-tenant admission ceilings and the global queue-depth
        backpressure cap, forwarded to the default
        :class:`AdmissionController`.  Shed jobs raise
        :class:`~repro.cluster.QuotaExceededError` /
        :class:`~repro.cluster.BackpressureError` at :meth:`submit`.

    ``health``, ``max_retries``, ``fault_plan`` and ``oom_tile_split``
    form the service's one :class:`~repro.engine.dispatch.ExecutionPolicy`
    (:attr:`policy`), which every pool job, cluster job and tenant
    stream runs under.
    """

    def __init__(
        self,
        device: "DeviceSpec | str" = "A100",
        n_gpus: int = 2,
        n_workers: int = 2,
        n_streams: int | None = None,
        cache: "ResultCache | None" = None,
        use_cache: bool = True,
        estimator: LoadEstimator | None = None,
        admission: AdmissionController | None = None,
        max_retries: int = 2,
        max_replans: int = 4,
        clock=time.monotonic,
        health: "HealthPolicy | None" = HealthPolicy(),
        fault_plan=None,
        oom_tile_split: bool = False,
        cluster: "ClusterSpec | None" = None,
        node_faults=None,
        autoscaler: "ClusterAutoscaler | None" = None,
        quotas=None,
        default_quota=None,
        max_queue_depth: int | None = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.sim = GPUSimulator(device, n_gpus, n_streams)
        self.policy = ExecutionPolicy(
            health=health,
            max_retries=max_retries,
            fault_plan=fault_plan,
            oom_split=oom_tile_split,
        )
        self.cache = cache if cache is not None else (
            ResultCache() if use_cache else None
        )
        self.metrics = ServiceMetrics(clock)
        # Cross-job window-statistics store: enabled alongside the result
        # cache (same dominant traffic pattern — repeated series).  Even
        # when the *result* misses (different tiling, m, or mode pairing)
        # the stats planes often hit, and the engine then skips the
        # O(n·m·d) precalc statistics pass.
        self.stats_cache = (
            PrecalcStatsCache(on_lookup=self.metrics.record_stats_cache)
            if self.cache is not None
            else None
        )
        self.scheduler = TileScheduler(
            self.sim, self.policy, clock=clock, stats_cache=self.stats_cache,
        )
        self.estimator = estimator or LoadEstimator(self.sim.spec)
        self.admission = admission or AdmissionController(
            self.estimator,
            parallelism=n_workers,
            quotas=quotas,
            default_quota=default_quota,
            max_queue_depth=max_queue_depth,
        )
        # Cluster pool: jobs shard over a node fleet instead of the
        # single simulated GPU pool.
        self.autoscaler = autoscaler
        self.cluster_dispatcher = None
        if cluster is not None:
            self.cluster_dispatcher = ClusterDispatcher(
                cluster, node_faults=node_faults, policy=self.policy,
            )
        self.n_workers = n_workers
        self.max_replans = max_replans
        self.clock = clock
        self._queue: "queue.PriorityQueue[QueuedJob]" = queue.PriorityQueue()
        self._seq = itertools.count()
        self._workers: list[threading.Thread] = []
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # Submission

    def submit(self, request: JobRequest) -> Job:
        """Queue a request; admission control runs *now*, so the decision
        reflects the backlog ahead of this job.  Returns the job handle."""
        now = self.clock()
        job = Job(request, submitted_at=now)
        reference = validate_series(request.reference, "reference")
        self_join = request.query is None
        query = reference if self_join else validate_series(request.query, "query")
        if query.shape[1] != reference.shape[1]:
            raise ValueError(
                f"reference has d={reference.shape[1]} but query "
                f"d={query.shape[1]}"
            )
        n_r_seg = reference.shape[0] - request.m + 1
        n_q_seg = query.shape[0] - request.m + 1
        if n_r_seg < 1 or n_q_seg < 1:
            raise ValueError(f"m={request.m} too long for the input series")
        job.reference = reference
        job.query = None if self_join else query
        slack = request.deadline  # full budget at submission time
        try:
            job.decision = self.admission.admit(
                job.job_id, n_r_seg, n_q_seg, reference.shape[1],
                request.mode, slack, tenant=request.tenant,
            )
        except BackpressureError:
            self.metrics.record_rejection("backpressure")
            raise
        except QuotaExceededError:
            self.metrics.record_rejection("quota")
            raise
        self.metrics.record_submission()
        self.metrics.record_downgrade(job.decision.downgrade_steps)
        self._queue.put(QueuedJob(request.priority, next(self._seq), job))
        return job

    def submit_and_wait(
        self, request: JobRequest, timeout: float | None = None
    ) -> JobOutcome:
        """Submit one request and block for its outcome.

        With no workers running the job is processed inline on the
        calling thread.
        """
        job = self.submit(request)
        if not self._workers:
            self.process_all()
        outcome = job.wait(timeout)
        if outcome is None:
            raise TimeoutError(f"job {job.job_id} did not finish in {timeout}s")
        return outcome

    # ------------------------------------------------------------------
    # Execution

    def process_all(self) -> int:
        """Drain the queue inline, in priority order; returns the number
        of jobs processed."""
        processed = 0
        while True:
            try:
                entry = self._queue.get_nowait()
            except queue.Empty:
                return processed
            try:
                self._process(entry.job)
            finally:
                self._queue.task_done()
            processed += 1

    def start(self) -> "MatrixProfileService":
        """Start the worker threads (idempotent)."""
        if self._workers:
            return self
        self._stop.clear()
        for i in range(self.n_workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"mp-service-worker-{i}",
                daemon=True,
            )
            t.start()
            self._workers.append(t)
        return self

    def stop(self) -> None:
        """Stop the workers after their current job (idempotent)."""
        if not self._workers:
            return
        self._stop.set()
        for t in self._workers:
            t.join()
        self._workers = []

    def drain(self) -> None:
        """Block until every queued job has been fully processed."""
        self._queue.join()

    def __enter__(self) -> "MatrixProfileService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        if self._workers:
            self.drain()
        self.stop()

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            try:
                entry = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            try:
                self._process(entry.job)
            finally:
                self._queue.task_done()

    # ------------------------------------------------------------------
    # One job

    def _plan_tiles(self, job: Job, config: RunConfig) -> int:
        """Planner floor for the tile count (memory-safe decomposition)."""
        reference, query = job.reference, self._query_of(job)
        m = job.request.m
        n_r_seg = reference.shape[0] - m + 1
        n_q_seg = query.shape[0] - m + 1
        requested = job.request.n_tiles or 1
        try:
            plan = plan_tiles(
                n_r_seg, n_q_seg, reference.shape[1], m,
                mode=config.mode, device=self.sim.spec,
                concurrent_tiles_per_gpu=self.n_workers,
            )
            return max(requested, plan.n_tiles)
        except ValueError:
            return requested

    def _query_of(self, job: Job) -> np.ndarray:
        return job.reference if job.query is None else job.query

    def _process(self, job: Job) -> None:
        decision = job.decision
        started = self.clock()
        job.status = JobStatus.RUNNING
        try:
            self._execute(job, started)
        except Exception as exc:  # noqa: BLE001 - jobs must not kill workers
            if isinstance(exc, TileRetryExhaustedError):
                retries = self.policy.max_retries + 1
            else:
                retries = 0
            latency = self.clock() - job.submitted_at
            self.metrics.record_failure(latency, retries=retries)
            self.admission.complete(job.job_id)
            job.finish(
                JobOutcome(
                    status=JobStatus.FAILED,
                    result=None,
                    requested_mode=decision.requested,
                    effective_mode=decision.effective,
                    downgrade_steps=decision.downgrade_steps,
                    latency=latency,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )

    def _execute(self, job: Job, started: float) -> None:
        request = job.request
        decision = job.decision
        reference, query = job.reference, self._query_of(job)
        self_join = job.query is None
        m = request.m
        n_r_seg = reference.shape[0] - m + 1
        n_q_seg = query.shape[0] - m + 1
        zone = request.exclusion_zone
        if self_join and zone is None:
            zone = default_exclusion_zone(m)

        config = RunConfig(
            mode=decision.effective,
            device=self.sim.spec,
            n_gpus=self.sim.n_gpus,
            n_streams=self.sim.n_streams,
            exclusion_zone=request.exclusion_zone,
        )
        config = config.with_(n_tiles=self._plan_tiles(job, config))

        if self.cluster_dispatcher is not None:
            self._autoscale()
            fleet = self.cluster_dispatcher.cluster
            config = config.with_(
                device=fleet.device_spec,
                n_gpus=fleet.gpus_per_node,
                n_tiles=max(config.n_tiles, 4 * fleet.total_gpus),
            )

        ref_digest = series_digest(reference)
        qry_digest = None if self_join else series_digest(query)

        key = cache_key(ref_digest, qry_digest, m, config)
        cached = self._cache_lookup(key)
        if cached is not None:
            self._finish_from_cache(job, cached)
            return

        if self.cluster_dispatcher is not None:
            self._execute_cluster(job, config, started, key)
            return

        policy = policy_for(decision.effective)
        tr_layout = to_device_layout(reference, policy.storage)
        tq_layout = (
            tr_layout if self_join else to_device_layout(query, policy.storage)
        )

        replans = 0
        while True:
            try:
                execution = self.scheduler.execute(
                    tr_layout, tq_layout, m, config, zone,
                    n_tiles=config.n_tiles, deadline_at=job.deadline_at,
                    label=f"job{job.job_id}",
                )
                break
            except DeviceOutOfMemoryError:
                # The paper's answer to memory pressure: tile finer.
                if replans >= self.max_replans:
                    raise
                replans += 1
                finer = min(config.n_tiles * 4, n_r_seg * n_q_seg)
                if finer == config.n_tiles:
                    raise
                config = config.with_(n_tiles=finer)
                key = cache_key(ref_digest, qry_digest, m, config)
                cached = self._cache_lookup(key)
                if cached is not None:
                    self._finish_from_cache(job, cached)
                    return

        merge_seconds = merge_time(
            execution.merge_elements, execution.tiles_completed
        )
        result = MatrixProfileResult(
            profile=np.ascontiguousarray(execution.profile.T.astype(np.float64)),
            index=np.ascontiguousarray(execution.index.T),
            mode=decision.effective,
            m=m,
            n_tiles=config.n_tiles,
            n_gpus=self.sim.n_gpus,
            timeline=execution.timeline,
            merge_time=merge_seconds,
            costs=execution.costs,
            precalc_saved_flops=execution.precalc_saved_flops,
            escalations=dict(execution.escalations),
        )

        self._finish_run(
            job, started, key, result,
            execution.tiles_total, execution.tiles_completed,
            retries=execution.tile_retries,
            escalations=len(execution.escalations),
            splits=execution.tiles_split,
        )

    def _autoscale(self) -> None:
        """One autoscaler observation: resize the node fleet against the
        admission controller's EMA backlog (no-op without an autoscaler)."""
        if self.autoscaler is None or self.cluster_dispatcher is None:
            return
        current = self.cluster_dispatcher.cluster.n_nodes
        target = self.autoscaler.observe(
            self.admission.ema_backlog_seconds(), current
        )
        if target != current:
            self.cluster_dispatcher.resize(target)
            self.metrics.record_autoscale(target)

    def _execute_cluster(self, job, config, started, key) -> None:
        """Run one job over the sharded node fleet.

        Deadline jobs run in anytime mode: if the whole fleet dies the
        dispatcher returns the merged prefix instead of raising, and the
        job finishes PARTIAL with a valid anytime state (graceful
        degradation).  Complete runs are cached exactly like pool runs.
        """
        dispatcher = self.cluster_dispatcher
        spec = JobSpec.from_arrays(job.reference, job.query, job.request.m, config)
        run = dispatcher.run(
            spec, n_tiles=config.n_tiles,
            anytime=job.deadline_at is not None,
        )
        self.metrics.record_cluster(
            nodes=dispatcher.cluster.n_nodes,
            deaths=len(run.node_deaths),
            resharded=run.tiles_resharded,
            recovery_seconds=run.recovery_overhead,
        )
        self._finish_run(
            job, started, key, run.to_result(spec),
            run.tiles_total, run.tiles_completed,
            escalations=len(run.escalations),
        )

    def _finish_run(
        self, job, started, key, result, tiles_total, tiles_completed,
        retries=0, escalations=0, splits=0,
    ) -> None:
        """The common tail of a job that ran, on the pool or the fleet.

        A run that completed fewer than ``tiles_total`` tiles (deadline,
        or the whole fleet lost) finishes PARTIAL with its anytime state;
        a complete run is cached under ``key`` and trains the estimator.
        Then the metrics, the admission backlog and the waiter hear of it.
        """
        decision = job.decision
        finished = self.clock()
        latency = finished - job.submitted_at
        partial = tiles_completed < tiles_total
        deadline_missed = (
            job.deadline_at is not None and finished > job.deadline_at
        )
        partial_state = None
        if partial:
            partial_state = AnytimeState(
                profile=result.profile,
                index=result.index,
                rows_done=tiles_completed,
                rows_total=tiles_total,
            )
        else:
            if self.cache is not None:
                self.cache.put(key, result)
            m = job.request.m
            self.estimator.observe(
                job.reference.shape[0] - m + 1,
                self._query_of(job).shape[0] - m + 1,
                job.reference.shape[1],
                decision.effective,
                finished - started,
            )
        self.metrics.record_completion(
            latency,
            partial=partial,
            tiles=tiles_completed,
            retries=retries,
            deadline_missed=deadline_missed,
            escalations=escalations,
            splits=splits,
        )
        self.admission.complete(job.job_id)
        job.finish(
            JobOutcome(
                status=JobStatus.PARTIAL if partial else JobStatus.COMPLETED,
                result=result,
                requested_mode=decision.requested,
                effective_mode=decision.effective,
                downgrade_steps=decision.downgrade_steps,
                latency=latency,
                tiles_total=tiles_total,
                tiles_completed=tiles_completed,
                tile_retries=retries,
                tile_escalations=escalations,
                tile_splits=splits,
                deadline_missed=deadline_missed,
                partial_state=partial_state,
            )
        )

    def _cache_lookup(self, key: str) -> MatrixProfileResult | None:
        if self.cache is None:
            return None
        result = self.cache.get(key)
        self.metrics.record_cache(hit=result is not None)
        return result

    def _finish_from_cache(self, job, result: MatrixProfileResult) -> None:
        decision = job.decision
        finished = self.clock()
        latency = finished - job.submitted_at
        deadline_missed = (
            job.deadline_at is not None and finished > job.deadline_at
        )
        self.metrics.record_completion(latency, deadline_missed=deadline_missed)
        self.admission.complete(job.job_id)
        job.finish(
            JobOutcome(
                status=JobStatus.COMPLETED,
                result=result,
                requested_mode=decision.requested,
                effective_mode=decision.effective,
                downgrade_steps=decision.downgrade_steps,
                cache_hit=True,
                latency=latency,
                deadline_missed=deadline_missed,
            )
        )
