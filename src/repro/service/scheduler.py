"""Tile dispatch for service jobs: the shared GPU pool, retries, deadlines.

One job decomposes into its tile DAG via :mod:`repro.core.tiling` (the
near-square grid of Pseudocode 2; tiles are independent, the merge is the
single join node).  The loop itself lives in the execution engine
(:func:`repro.engine.dispatch.execute_plan`); :class:`TileScheduler` is
the service's adapter over it, contributing the pool-shared state:

* **placement** — one :class:`~repro.engine.dispatch.RoundRobinPlacement`
  cursor shared by every job, so concurrent jobs interleave over the
  pool; its lock also serialises the pool's stream bookkeeping;
* **recovery** — one :class:`~repro.engine.dispatch.ExecutionPolicy`
  for every job.  A :class:`~repro.engine.dispatch.TransientDeviceError`
  (injected by the policy's fault plan) re-queues the tile on a
  *different* GPU, up to ``max_retries`` attempts per tile, mirroring
  how a real service routes around a sick device.  Device OOM
  (:class:`~repro.gpu.memory.DeviceOutOfMemoryError`) is *not* retried —
  it propagates so the service layer can re-plan with a finer tiling,
  the paper's own answer to memory pressure (unless the policy sets
  ``oom_split``, in which case the engine splits the offending tile in
  place).  The policy's optional
  :class:`~repro.engine.health.HealthPolicy` validates every tile's
  output and escalates sick tiles up the precision ladder; retry,
  escalation and split counts are surfaced on :class:`JobExecution` for
  the service metrics.
* **deadline timeout** — when the wall clock passes ``deadline_at`` the
  remaining tiles are abandoned and the completed ones are merged
  anytime-style: untouched query columns stay at the dtype limit, so the
  partial profile is a valid upper bound exactly as in
  :mod:`repro.core.anytime`.

Numerics run outside the pool lock (pure numpy); only allocator and
stream bookkeeping are serialised, so concurrent service workers can
overlap their tiles' arithmetic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.config import RunConfig
from ..engine.accumulate import ProfileAccumulator
from ..engine.backends import backend_for
from ..engine.dispatch import (  # noqa: F401 - re-exported API
    ExecutionPolicy,
    RoundRobinPlacement,
    TileRetryExhaustedError,
    TransientDeviceError,
    execute_plan,
)
from ..engine.health import HealthPolicy  # noqa: F401 - re-exported API
from ..engine.plan import JobSpec
from ..gpu.kernel import KernelCost
from ..gpu.simulator import GPUSimulator
from ..gpu.stream import Timeline
from ..precision.modes import PrecisionMode

__all__ = ["TransientDeviceError", "TileRetryExhaustedError", "TileScheduler", "JobExecution"]


@dataclass
class JobExecution:
    """Merged output + bookkeeping of one job's tile schedule."""

    profile: np.ndarray  # (d, n_q_seg), storage dtype
    index: np.ndarray  # (d, n_q_seg), int64
    costs: dict[str, KernelCost]
    timeline: Timeline
    merge_elements: int
    tiles_total: int
    tiles_completed: int
    tile_retries: int
    escalations: dict[int, PrecisionMode]
    tiles_split: int
    health_failures: int
    precalc_saved_flops: float = 0.0

    @property
    def partial(self) -> bool:
        return self.tiles_completed < self.tiles_total


class TileScheduler:
    """Dispatches tiles of service jobs across a shared simulated GPU pool."""

    def __init__(
        self,
        sim: GPUSimulator,
        policy: ExecutionPolicy = ExecutionPolicy(max_retries=2),
        clock=time.monotonic,
        stats_cache=None,
    ):
        self.sim = sim
        self.policy = policy
        self.clock = clock
        #: Optional cross-job window-statistics store
        #: (:class:`~repro.service.cache.PrecalcStatsCache`): handed to
        #: every plan so repeated jobs on the same series skip the
        #: precalc statistics pass.
        self.stats_cache = stats_cache
        # The placement's lock guards the allocator/stream bookkeeping
        # AND the placement cursor.
        self._placement = RoundRobinPlacement(sim.n_gpus)

    def execute(
        self,
        tr_layout: np.ndarray,
        tq_layout: np.ndarray,
        m: int,
        config: RunConfig,
        zone: int | None,
        n_tiles: int,
        deadline_at: float | None = None,
        label: str = "job",
    ) -> JobExecution:
        """Run one job's tile DAG; returns the merged (possibly partial)
        output.

        ``tr_layout``/``tq_layout`` are the device-layout ``(d, n)``
        series in the storage dtype (``tq_layout is tr_layout`` for
        self-joins).
        """
        spec = JobSpec.from_layouts(
            tr_layout, tq_layout, m, config, exclusion_zone=zone
        )
        plan = spec.plan(
            n_tiles=n_tiles,
            n_gpus=self.sim.n_gpus,
            precalc_store=self.stats_cache,
        )
        timeline = Timeline()  # job-local: jobs report their own makespans
        accumulator = ProfileAccumulator(spec.d, spec.n_q_seg, spec.policy)
        report = execute_plan(
            plan,
            backend_for(config, lock=self._placement.lock)[0],
            self.sim,
            accumulator=accumulator,
            placement=self._placement,
            timeline=timeline,
            deadline_at=deadline_at,
            clock=self.clock,
            label=label,
            policy=self.policy,
        )
        return JobExecution(
            profile=accumulator.profile,
            index=accumulator.index,
            costs=accumulator.costs,
            timeline=timeline,
            merge_elements=accumulator.merge_elements,
            tiles_total=report.tiles_total,
            tiles_completed=report.tiles_completed,
            tile_retries=report.tile_retries,
            escalations=dict(report.escalations),
            tiles_split=len(report.splits),
            health_failures=report.health_failures,
            precalc_saved_flops=accumulator.precalc_saved_flops,
        )
