"""The streaming ingestion service: tenants multiplexed over the pool.

:class:`StreamIngestService` is the always-on counterpart of the one-shot
:class:`~repro.service.MatrixProfileService`: tenants register a
:class:`~repro.streams.tenant.TenantPolicy`, then push sample batches
through :meth:`ingest`.  Each call walks the full serving pipeline the
batch service already has — reused, not reimplemented:

1. **validation** — non-finite samples rejected with dimension + global
   stream offset (:func:`~repro.kernels.layout.validate_stream_samples`);
2. **backpressure** — batches beyond ``policy.max_batch`` are truncated
   and the overflow counted as dropped (fresh data beats a deep queue
   for monitoring);
3. **admission** — tenants with a per-append ``deadline`` pass through
   the service's :class:`~repro.service.AdmissionController`, which may
   shed this step's tiles down the FP64→FP32→Mixed→FP16 ladder under
   backlog; observed step runtimes feed the same
   :class:`~repro.service.LoadEstimator` the batch jobs train;
4. **gate or cover** — ungated tenants cover the new band exactly
   (bit-identical incremental tier); gated tenants sketch-score the
   step's new windows in one batched call and probe exact tiles only for
   alarmed column runs, counting suppressed columns as saved work;
5. **retention** — sliding tenants re-base in amortised chunks (a gated
   tenant's fresh monitor is primed with one batched pass over the
   retained windows);
6. **observability** — each step builds its deltas once, as a
   :class:`~repro.streams.tenant.StreamCounters`, which is added to the
   tenant's counters and handed to
   :meth:`~repro.service.ServiceMetrics.record_stream` for the shared
   stream counters that ``repro stream`` /
   :func:`repro.reporting.render_service_metrics` display.

The engine tiles dispatch over the *service's* simulated GPU pool
(shared scheduler lock, placement cursor, health policy, fault
injectors, OOM splitting), so stream tiles and batch job tiles coexist
on the same devices with the same recovery machinery.  Checkpoint and
restore delegate to the stream's npz journal (:meth:`checkpoint` /
:meth:`restore`) for kill-and-resume without recomputation.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..precision.modes import PrecisionMode
from ..service.service import MatrixProfileService
from .incremental import IncrementalMatrixProfile
from .sketch import SketchMonitor, SketchScore
from .tenant import StreamCounters, TenantPolicy, TenantStream

__all__ = ["StreamIngestService", "IngestReport"]

#: Sketch scores a gated tenant keeps for :meth:`StreamIngestService.
#: scores`: an always-on tenant must not grow a list per window forever.
SCORE_HISTORY = 4096


@dataclass
class IngestReport:
    """Outcome of one ingest call for one tenant."""

    tenant_id: str
    accepted: int  # samples accepted this call
    dropped: int  # samples dropped by backpressure
    new_segments: int  # windows completed this call
    mode: PrecisionMode  # effective dispatch mode (after shedding)
    shed_steps: int = 0  # admission downgrade steps applied
    tiles: int = 0  # engine tiles dispatched
    exact_columns: int = 0  # profile columns computed exactly
    suppressed_columns: int = 0  # columns the sketch gate suppressed
    alarms: tuple[SketchScore, ...] = ()  # alarmed window scores
    rebased: bool = False  # sliding re-base happened this call
    elapsed: float = 0.0


@dataclass
class _Tenant:
    session: TenantStream
    reference: np.ndarray | None = None  # kept for sliding re-bases
    scores: deque = field(default_factory=lambda: deque(maxlen=SCORE_HISTORY))


class StreamIngestService:
    """Multiplexes always-on tenant streams over a matrix-profile service.

    Parameters
    ----------
    service:
        An existing :class:`~repro.service.MatrixProfileService` whose
        GPU pool, admission controller and metrics the streams share;
        one is constructed from ``service_kwargs`` when omitted.
    """

    def __init__(self, service: MatrixProfileService | None = None, **service_kwargs):
        self.service = service or MatrixProfileService(**service_kwargs)
        self.metrics = self.service.metrics
        self._tenants: dict[str, _Tenant] = {}
        # Stream micro-jobs share the admission backlog with batch jobs;
        # negative ids keep the two id spaces disjoint.
        self._job_ids = itertools.count(1)
        self._clock = self.service.scheduler.clock

    # ------------------------------------------------------------------
    # Registration

    def register(
        self,
        tenant_id: str,
        policy: TenantPolicy,
        reference: np.ndarray | None = None,
        initial: np.ndarray | None = None,
    ) -> TenantStream:
        """Register a tenant stream; ``reference`` fixes an AB join."""
        if tenant_id in self._tenants:
            raise ValueError(f"tenant {tenant_id!r} is already registered")
        stream = self._build_stream(policy, reference)
        session = TenantStream(
            tenant_id=tenant_id,
            policy=policy,
            stream=stream,
            monitor=(
                self._build_monitor(policy, d=stream.d or 1)
                if policy.sketch_gate
                else None
            ),
        )
        self._tenants[tenant_id] = _Tenant(
            session=session,
            reference=None if reference is None else np.asarray(reference),
        )
        if initial is not None:
            self.ingest(tenant_id, initial)
        return session

    def _pool(self) -> dict:
        """The service pool state every tenant stream dispatches over."""
        scheduler = self.service.scheduler
        return dict(
            sim=self.service.sim,
            policy=scheduler.policy,
            placement=scheduler._placement,
            clock=scheduler.clock,
        )

    def _build_stream(
        self, policy: TenantPolicy, reference, backend=None
    ) -> IncrementalMatrixProfile:
        return IncrementalMatrixProfile(
            policy.m, policy.run_config(), reference=reference, backend=backend,
            **self._pool(),
        )

    def _build_monitor(self, policy: TenantPolicy, d: int) -> SketchMonitor:
        return SketchMonitor(
            policy.m,
            d=d,
            k=policy.sketch_k,
            threshold=policy.sketch_threshold,
            zscore=policy.sketch_zscore,
            warmup=policy.sketch_warmup,
            shrink=policy.sketch_shrink,
            exclusion=policy.exclusion_zone,
            seed=policy.sketch_seed,
            rolling=policy.sketch_rolling,
        )

    def _primed_monitor(self, policy: TenantPolicy, stream) -> SketchMonitor:
        """A fresh sketch monitor that has seen every retained window."""
        monitor = self._build_monitor(policy, d=stream.d)
        monitor.prime(stream.windows(0, stream.n_q_seg))
        return monitor

    def _tune_band(self, entry: "_Tenant", rows: int, cols: int,
                   effective: PrecisionMode) -> PrecisionMode:
        """Plan one append's band micro-job (rows x cols segments) under
        the policy's ``target_error``: the mode further down the ladder
        of the admission mode and the planner's bound-respecting pick."""
        from ..autotune import AutoTuner
        from ..service.admission import _LADDER_POSITION

        policy = entry.session.policy
        chosen = AutoTuner(device=self.service.sim.spec).tune(
            rows, cols, max(entry.session.stream.d or 1, 1), policy.m,
            mode=policy.mode, self_join=False,
            target_error=policy.target_error,
            exclusion_zone=policy.exclusion_zone,
        ).chosen
        # Two independent reasons to leave the requested mode: load
        # shedding (admission) and the error budget (planner).  Both
        # contracts allow the one further down, and it is faster.
        if _LADDER_POSITION.get(chosen.mode, 0) > _LADDER_POSITION.get(effective, 0):
            return chosen.mode
        return effective

    def tenant(self, tenant_id: str) -> TenantStream:
        try:
            return self._tenants[tenant_id].session
        except KeyError:
            raise KeyError(f"unknown tenant {tenant_id!r}") from None

    def tenants(self) -> tuple[str, ...]:
        return tuple(self._tenants)

    # ------------------------------------------------------------------
    # Ingest

    def ingest(self, tenant_id: str, samples: np.ndarray) -> IngestReport:
        """Push one batch of samples through a tenant's pipeline."""
        entry = self._tenants.get(tenant_id)
        if entry is None:
            raise KeyError(f"unknown tenant {tenant_id!r}")
        session = entry.session
        policy = session.policy
        stream = session.stream
        started = self._clock()

        arr = np.asarray(samples)
        if arr.ndim == 1:
            arr = arr[:, None]
        dropped = max(0, arr.shape[0] - policy.max_batch)
        if dropped:
            arr = arr[: policy.max_batch]

        # Admission: size the micro-job as (history rows x new columns).
        n_new = arr.shape[0]
        n_rows = max(stream.n_r_seg + (n_new if stream.self_join else 0), 1)
        effective = PrecisionMode.parse(policy.mode)
        shed_steps = 0
        job_id = None
        if policy.deadline is not None:
            job_id = -next(self._job_ids)
            decision = self.service.admission.admit(
                job_id, n_rows, max(n_new, 1), max(stream.d or arr.shape[1], 1),
                policy.mode, policy.deadline,
            )
            effective = decision.effective
            shed_steps = decision.downgrade_steps
        if policy.target_error is not None:
            effective = self._tune_band(entry, n_rows, max(n_new, 1), effective)

        esc_before = len(stream.escalations)
        try:
            old_seg, new_seg = stream.ingest(arr)
            if session.gated:
                new_segments = new_seg - old_seg
                tiles, exact, alarms = self._gated_step(
                    entry, old_seg, new_seg, effective
                )
            else:
                result = stream.cover(mode=effective)
                new_segments = exact = result.new_segments
                tiles, alarms = len(result.tiles), ()
        finally:
            if job_id is not None:
                self.service.admission.complete(job_id)
        rebased = self._maybe_rebase(entry)
        report = IngestReport(
            tenant_id=tenant_id,
            accepted=arr.shape[0],
            dropped=dropped,
            new_segments=new_segments,
            mode=effective,
            shed_steps=shed_steps,
            tiles=tiles,
            exact_columns=exact,
            suppressed_columns=new_segments - exact,
            alarms=tuple(alarms),
            rebased=rebased,
            elapsed=self._clock() - started,
        )
        if policy.deadline is not None and report.exact_columns > 0:
            self.service.estimator.observe(
                stream.n_r_seg, report.exact_columns, stream.d or 1,
                effective, report.elapsed,
            )

        # One delta for the tenant's counters and the shared service metrics.
        delta = StreamCounters(
            appends=1,
            samples=report.accepted,
            dropped=report.dropped,
            segments=report.new_segments,
            alarms=len(report.alarms),
            suppressed_columns=report.suppressed_columns,
            exact_columns=report.exact_columns,
            exact_tiles=report.tiles,
            shed_steps=report.shed_steps,
            escalations=len(stream.escalations) - esc_before,
            rebases=int(report.rebased),
        )
        session.counters += delta
        self.metrics.record_stream(tenant_id, delta)
        if shed_steps:
            self.metrics.record_downgrade(shed_steps)
        return report

    def _gated_step(
        self, entry: _Tenant, old_seg: int, new_seg: int,
        effective: PrecisionMode,
    ) -> tuple[int, int, list[SketchScore]]:
        """Sketch-score the new windows; probe exact tiles on alarms.

        Returns the step's (tiles, exact columns, alarmed scores)."""
        session = entry.session
        stream = session.stream
        monitor = session.monitor
        if new_seg > old_seg and monitor.d != stream.d:
            # The first ingest fixes the dimensionality: rebuild the
            # monitor with the real d (it has scored nothing yet).
            if monitor.n_windows:
                raise RuntimeError("monitor dimensionality changed mid-stream")
            session.monitor = monitor = self._build_monitor(
                session.policy, d=stream.d
            )
        scores = (
            monitor.score(stream.windows(old_seg, new_seg))
            if new_seg > old_seg
            else ()
        )
        alarms = [score for score in scores if score.alarm]
        entry.scores.extend(scores)
        tiles = 0
        exact_cols = 0
        for c0, c1 in _alarm_runs(alarms):
            result = stream.probe(c0, c1, mode=effective)
            tiles += len(result.tiles)
            exact_cols += c1 - c0
        return tiles, exact_cols, alarms

    def _maybe_rebase(self, entry: _Tenant) -> bool:
        """Amortised sliding-window re-base (see TenantPolicy)."""
        session = entry.session
        policy = session.policy
        stream = session.stream
        if policy.window != "sliding":
            return False
        limit = int(policy.retention * (1.0 + policy.rebase_slack))
        if stream.n_samples <= limit:
            return False
        keep = policy.retention
        suffix = stream._stream[:, -keep:].T.astype(np.float64)
        session.base_offset += stream.n_samples - keep
        # The fresh stream inherits the outgoing one's backend, and with it
        # the main-loop scratch its workers already hold.
        fresh = self._build_stream(policy, entry.reference, backend=stream._backend)
        if session.gated:
            # Gated tenants re-prime the sketch state over the retained
            # suffix; the exact profile restarts (probes are on-alarm).
            fresh.ingest(suffix)
            session.monitor = self._primed_monitor(policy, fresh)
        else:
            fresh.append(suffix)
        session.stream = fresh
        return True

    # ------------------------------------------------------------------
    # Results / observability

    def profile(self, tenant_id: str) -> tuple[np.ndarray, np.ndarray]:
        """The tenant's current (n_q_seg, d) profile + index."""
        return self.tenant(tenant_id).stream.profile()

    def scores(self, tenant_id: str) -> tuple[SketchScore, ...]:
        """The most recent ``SCORE_HISTORY`` sketch scores of a gated
        tenant, oldest first (counters and reports cover every window)."""
        entry = self._tenants.get(tenant_id)
        if entry is None:
            raise KeyError(f"unknown tenant {tenant_id!r}")
        return tuple(entry.scores)

    # ------------------------------------------------------------------
    # Checkpoint / restore

    def checkpoint(self, tenant_id: str, path) -> None:
        """Journal a tenant's stream state to ``path`` (npz), with the
        session's global ``base_offset``."""
        session = self.tenant(tenant_id)
        session.stream.save(path, extra={"base_offset": session.base_offset})

    def restore(
        self, tenant_id: str, path, policy: TenantPolicy
    ) -> TenantStream:
        """Re-register a tenant from a checkpoint (bit-identical resume).

        The session comes back as it was checkpointed: its global
        ``base_offset``, the AB reference later re-bases rebuild from (the
        stream's saved layout — a cast to the storage dtype it already
        has) and, for a gated ``policy``, a sketch monitor primed over the
        retained windows as a sliding re-base primes it.
        """
        if tenant_id in self._tenants:
            raise ValueError(f"tenant {tenant_id!r} is already registered")
        stream = IncrementalMatrixProfile.load(
            path, policy.run_config(), **self._pool()
        )
        session = TenantStream(
            tenant_id=tenant_id,
            policy=policy,
            stream=stream,
            monitor=self._primed_monitor(policy, stream) if policy.sketch_gate else None,
            counters=StreamCounters(),
            base_offset=stream.checkpoint_extra.get("base_offset", 0),
        )
        self._tenants[tenant_id] = _Tenant(
            session=session,
            reference=None if stream.self_join else stream._ref_layout.T,
        )
        return session


def _alarm_runs(alarms) -> list[tuple[int, int]]:
    """Contiguous [start, stop) column runs of alarmed window positions."""
    runs: list[tuple[int, int]] = []
    for score in alarms:
        if runs and runs[-1][1] == score.position:
            runs[-1] = (runs[-1][0], score.position + 1)
        else:
            runs.append((score.position, score.position + 1))
    return runs
