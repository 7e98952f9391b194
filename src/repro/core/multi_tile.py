"""Multi-tile / multi-GPU matrix profile (Pseudocode 2).

Tiles are computed as standalone matrix profile tasks (Pseudocode 1) on
their assigned GPUs — real numerics at the requested precision, with the
crucial property that **each tile restarts the precalculation**, bounding
the streaming-error propagation of Eq. (1) — and the per-tile profiles are
merged on the CPU with min/argmin.

Every whole-job run — these two and
:func:`~repro.engine.checkpoint.resume_plan` — builds a spec and a plan
and hands them to one runner, :func:`_run_plan`:

* :func:`compute_multi_tile` — executes the tiles numerically on the
  backend the config names (:func:`~repro.engine.backends.backend_for`)
  and builds the modelled timeline from the recorded kernel costs
  (accuracy + shape experiments at feasible scales).  Self-join diagonal
  tiles share one upload for their identical row/col slices; the saved
  H2D traffic is reported on the result.
* :func:`model_multi_tile` — analytic-only
  (:class:`~repro.engine.backends.AnalyticBackend`): schedules per-tile
  timings from the roofline cost model without touching data, enabling
  paper-scale projections (n = 2^16 and beyond) for Figs. 4–7 and 10.
"""

from __future__ import annotations

import numpy as np

from ..engine.accumulate import ProfileAccumulator, merge_tile_outputs
from ..engine.backends import AnalyticBackend, backend_for
from ..engine.checkpoint import RunJournal
from ..engine.dispatch import ExecutionPolicy, RoundRobinPlacement, execute_plan
from ..engine.plan import ExecutionPlan, JobSpec
from ..gpu.simulator import GPUSimulator
from .config import RunConfig
from .result import MatrixProfileResult

__all__ = ["compute_multi_tile", "model_multi_tile", "merge_tile_outputs"]


def _run_plan(
    spec: JobSpec,
    plan: ExecutionPlan,
    *,
    journal: RunJournal | None = None,
    policy: ExecutionPolicy = ExecutionPolicy(),
    observers=(),
    parallel_workers: int = 1,
) -> MatrixProfileResult:
    """Run ``plan`` under ``policy`` on a fresh simulator and the backend
    ``spec.config`` names (analytic for a modeled spec, which returns an
    empty profile).  A ``journal`` is resumed: its snapshot and
    escalations are restored and its tiles skipped (a no-op for a fresh
    journal)."""
    config = spec.config
    modeled = spec.is_modeled
    if modeled:
        backend, fallback_reason = AnalyticBackend(), None
    else:
        backend, fallback_reason = backend_for(config, discount_shared_h2d=True)
    sim = GPUSimulator(config.device, config.n_gpus, config.n_streams)
    accumulator = ProfileAccumulator(
        spec.d, spec.n_q_seg, spec.policy, materialize=not modeled
    )
    escalations = {}
    if journal is not None:
        journal.restore(accumulator)
        escalations = journal.escalations()
    # Retries need a placement that can move a tile off the failing GPU
    # (a journaled static assignment is only a preference).
    placement = RoundRobinPlacement(config.n_gpus) if policy.max_retries > 0 else None
    report = execute_plan(
        plan,
        backend,
        sim,
        accumulator=accumulator,
        placement=placement,
        observers=observers,
        journal=journal,
        parallel_workers=parallel_workers,
        policy=policy,
    )
    escalations.update(report.escalations)
    return MatrixProfileResult(
        profile=accumulator.host_profile(),
        index=accumulator.host_index(),
        mode=spec.policy.mode,
        m=spec.m,
        n_tiles=report.tiles_total,
        n_gpus=config.n_gpus,
        timeline=sim.timeline,
        merge_time=accumulator.merge_time(report.tiles_total),
        costs=accumulator.costs,
        h2d_saved_bytes=accumulator.h2d_saved_bytes,
        precalc_saved_flops=accumulator.precalc_saved_flops,
        escalations=escalations,
        split_tiles=dict(report.splits),
        resumed_tiles=report.tiles_restored,
        backend=backend.name,
        backend_fallback_reason=fallback_reason,
    )


def compute_multi_tile(
    reference: np.ndarray,
    query: np.ndarray | None,
    m: int,
    config: RunConfig | None = None,
    *,
    health=None,
    fault_plan=None,
    max_retries: int = 0,
    oom_split: bool = False,
    journal: "RunJournal | str | None" = None,
    observers=(),
    parallel_workers: int | None = None,
) -> MatrixProfileResult:
    """Matrix profile via the tiling scheme on simulated multi-GPU hardware.

    ``query=None`` requests a self-join with the default exclusion zone.

    Fault tolerance (all opt-in; defaults leave the numerics and the
    dispatch byte-identical to the plain path; the first four form the
    run's :class:`~repro.engine.dispatch.ExecutionPolicy`):

    * ``health`` — a :class:`~repro.engine.health.HealthPolicy`
      validating every tile and escalating sick tiles up the precision
      ladder (recorded on :attr:`MatrixProfileResult.escalations`);
    * ``fault_plan`` — a :class:`~repro.engine.faults.FaultPlan` whose
      hooks exercise the recovery paths;
    * ``max_retries`` — per-tile retry budget for transient device
      failures (placement switches to round-robin so retries can move
      to a different GPU);
    * ``oom_split`` — split a tile on device OOM instead of raising;
    * ``journal`` — a :class:`~repro.engine.checkpoint.RunJournal` (or a
      directory path to create one) checkpointing completed tiles; a
      journal holding tiles is resumed, as by
      :func:`~repro.engine.checkpoint.resume_plan`;
    * ``parallel_workers`` — host threads executing independent tiles
      concurrently (results merge in plan order, so the output is
      deterministic and matches the serial dispatch bit for bit);
      defaults to ``config.parallel_workers`` so a config carries the
      knob without every caller threading it through.
    """
    config = config or RunConfig()
    spec = JobSpec.from_arrays(reference, query, m, config)
    plan = spec.plan()
    if journal is not None and not isinstance(journal, RunJournal):
        journal = RunJournal.create(journal, spec, plan)
    return _run_plan(
        spec,
        plan,
        journal=journal,
        policy=ExecutionPolicy(
            health=health,
            max_retries=max_retries,
            fault_plan=fault_plan,
            oom_split=oom_split,
        ),
        observers=observers,
        parallel_workers=(
            config.parallel_workers if parallel_workers is None else parallel_workers
        ),
    )


def model_multi_tile(
    n_seg: int,
    d: int,
    m: int,
    config: RunConfig | None = None,
    n_q_seg: int | None = None,
) -> MatrixProfileResult:
    """Analytic-only multi-tile run at arbitrary (paper) scale.

    Builds the same tile list, assignment and stream schedule as
    :func:`compute_multi_tile`, but with per-tile timings from the
    analytic cost model and **no numerical data** — the returned result
    carries an empty profile and is only meaningful for its
    :attr:`~MatrixProfileResult.modeled_time`, timeline and breakdowns.
    """
    config = config or RunConfig()
    n_q_seg = n_q_seg if n_q_seg is not None else n_seg
    spec = JobSpec.modeled(n_seg, n_q_seg, d, m, config)
    return _run_plan(spec, spec.plan())
