"""The execution engine: one runtime layer for every tile-dispatch path.

The paper's Pseudocode 2 is a single loop — partition into tiles, assign
GPUs round-robin, execute each tile on a stream, min/argmin-merge on the
CPU — and this package is that loop's one implementation:

* :mod:`repro.engine.plan` — :class:`JobSpec` (validation, exclusion-zone
  defaulting, device layouts) and :class:`ExecutionPlan` (tile list +
  static GPU assignment);
* :mod:`repro.engine.backends` — :class:`TileBackend` protocol with
  :class:`NumericBackend` (real kernels via :func:`run_tile`) and
  :class:`AnalyticBackend` (roofline timings only);
* :mod:`repro.engine.dispatch` — :func:`execute_plan`, the loop itself:
  pluggable placement, transient-failure retry, deadline cancellation,
  per-tile observers, under one :class:`ExecutionPolicy` per tier;
* :mod:`repro.engine.accumulate` — :class:`ProfileAccumulator` over
  :func:`merge_tile_outputs` + cost and merge-time accounting;
* :mod:`repro.engine.health` — per-tile output validation and the
  FP16 -> Mixed -> FP32 -> FP64 escalation ladder;
* :mod:`repro.engine.faults` — deterministic, seedable fault injection
  (:class:`FaultPlan`) so every recovery path is exercisable in CI;
* :mod:`repro.engine.checkpoint` — :class:`RunJournal` tile journaling
  and :func:`resume_plan` for kill-and-resume without recomputation.

``compute_multi_tile``, ``model_multi_tile``, ``compute_single_tile``,
the service ``TileScheduler``, the ``repro.cluster`` dispatcher and the
``repro.streams`` incremental profile are all thin adapters over these
modules.
"""

from .accumulate import ProfileAccumulator, merge_tile_outputs
from .backends import (
    KERNEL_ORDER,
    AnalyticBackend,
    NumericBackend,
    TileBackend,
    TileExecution,
    TileOutput,
    run_tile,
    tile_timing_from_output,
    workspace_bytes,
)
from .checkpoint import RunJournal, resume_plan, tile_key
from .dispatch import (
    CallbackObserver,
    DispatchReport,
    ExecutionPolicy,
    RoundRobinPlacement,
    StaticPlacement,
    TileObserver,
    TilePlacement,
    TileRetryExhaustedError,
    TransientDeviceError,
    execute_plan,
)
from .faults import FaultEvent, FaultPlan, seeded_uniform
from .health import (
    ESCALATION_LADDER,
    HealthPolicy,
    TileHealthError,
    TileRisk,
    check_tile_output,
    escalation_next,
    preflight_tile_risk,
)
from .plan import ExecutionPlan, JobSpec
from .precalc_cache import PrecalcPlaneCache

__all__ = [
    "JobSpec",
    "ExecutionPlan",
    "PrecalcPlaneCache",
    "TileBackend",
    "NumericBackend",
    "AnalyticBackend",
    "TileExecution",
    "TileOutput",
    "run_tile",
    "tile_timing_from_output",
    "workspace_bytes",
    "KERNEL_ORDER",
    "execute_plan",
    "DispatchReport",
    "ExecutionPolicy",
    "StaticPlacement",
    "RoundRobinPlacement",
    "TilePlacement",
    "TileObserver",
    "CallbackObserver",
    "TransientDeviceError",
    "TileRetryExhaustedError",
    "ProfileAccumulator",
    "merge_tile_outputs",
    "ESCALATION_LADDER",
    "HealthPolicy",
    "TileHealthError",
    "TileRisk",
    "check_tile_output",
    "escalation_next",
    "preflight_tile_risk",
    "FaultPlan",
    "seeded_uniform",
    "FaultEvent",
    "RunJournal",
    "resume_plan",
    "tile_key",
]
