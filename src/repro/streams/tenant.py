"""Per-tenant streaming policies and session state.

A tenant is one always-on monitoring stream: a sensor feed, a telemetry
channel, a turbine.  :class:`TenantPolicy` is the immutable contract the
tenant registered with — precision mode, windowing/retention, ingest
backpressure caps, per-append deadline (admission shedding) and the
sketch-gate configuration.  :class:`TenantStream` is the live session:
the policy plus the incremental engine, the optional sketch monitor and
the per-tenant counters the service metrics render.

Two windowing policies, per the streaming literature:

* ``"landmark"`` — the stream grows without bound from its first sample;
  every window ever seen stays matchable.
* ``"sliding"`` — only the most recent ``retention`` samples matter.
  Rather than pay an O(n) shift per append, the stream is *re-based* in
  amortised chunks: once it exceeds ``retention * (1 + rebase_slack)``
  samples, a fresh incremental stream is rebuilt over the retained
  suffix (one batch-sized step) and ``base_offset`` records how many
  samples were dropped, keeping reported positions global.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..core.config import RunConfig
from ..precision.modes import PrecisionMode

__all__ = ["TenantPolicy", "TenantStream", "StreamCounters"]

_WINDOWS = ("landmark", "sliding")


@dataclass(frozen=True)
class TenantPolicy:
    """The registration-time contract of one streaming tenant."""

    m: int
    mode: str = "FP64"
    #: ``"landmark"`` (unbounded history) or ``"sliding"`` (retention cap).
    window: str = "landmark"
    #: Samples kept under the sliding policy (required there).
    retention: int | None = None
    #: Amortisation headroom before a sliding stream is re-based.
    rebase_slack: float = 0.5
    #: Backpressure: samples admitted per ingest call; the overflow is
    #: dropped and counted (a monitoring stream prefers fresh data over
    #: an unbounded queue).
    max_batch: int = 4096
    #: Wall-seconds budget per append for admission control; ``None``
    #: disables precision shedding (best-effort exact mode).
    deadline: float | None = None
    #: Sketch gate: when on, appends only extend the series + sketches,
    #: and exact tiles run on sketch alarms (approximate tier — the
    #: bit-identity contract applies to ungated tenants).
    sketch_gate: bool = False
    sketch_k: int = 16
    sketch_threshold: "float | str" = "auto"
    sketch_zscore: float = 3.0
    sketch_warmup: int = 16
    sketch_shrink: float = 0.75
    sketch_seed: int = 0
    #: Auto-threshold memory for the sketch gate: ``None`` keeps the
    #: cumulative baseline, an integer computes mean/std over only the
    #: last that-many scores (recovers from baseline drift; see
    #: :class:`~repro.streams.sketch.SketchMonitor`).
    sketch_rolling: int | None = None
    exclusion_zone: int | None = None
    #: Error budget: when set, each band's mode comes from the
    #: error-budget planner (:class:`~repro.autotune.AutoTuner`) — the
    #: cheapest mode whose Section V-B bound stays inside the budget —
    #: combined with admission shedding by taking the one further down
    #: the downgrade ladder.
    target_error: float | None = None

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"segment length m must be >= 2, got {self.m}")
        if self.window not in _WINDOWS:
            raise ValueError(
                f"window must be one of {_WINDOWS}, got {self.window!r}"
            )
        if self.window == "sliding":
            if self.retention is None or self.retention < 2 * self.m:
                raise ValueError(
                    "sliding retention must be set and >= 2*m, got "
                    f"{self.retention}"
                )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        PrecisionMode.parse(self.mode)  # validate eagerly

    def run_config(self) -> RunConfig:
        """The engine configuration this policy induces."""
        return RunConfig(
            mode=self.mode,
            exclusion_zone=self.exclusion_zone,
        )


@dataclass
class StreamCounters:
    """Per-tenant observability counters.

    One ingest step builds its deltas once, as a ``StreamCounters``;
    the service adds it to the tenant's counters (``+=``) and hands the
    same delta to :meth:`~repro.service.ServiceMetrics.record_stream`,
    whose ``stream_*`` counters sum it over every tenant (``rebases``
    is kept per tenant only).
    """

    appends: int = 0  # ingest calls
    samples: int = 0  # samples accepted
    dropped: int = 0  # samples dropped by backpressure
    segments: int = 0  # stream segments completed
    alarms: int = 0  # sketch alarms raised
    suppressed_columns: int = 0  # exact profile columns the gate skipped
    exact_columns: int = 0  # profile columns computed exactly
    exact_tiles: int = 0  # engine tiles dispatched
    shed_steps: int = 0  # admission downgrade ladder steps
    escalations: int = 0  # health escalations inside the engine
    rebases: int = 0  # sliding-window re-bases

    @property
    def suppression_ratio(self) -> float:
        total = self.suppressed_columns + self.exact_columns
        return self.suppressed_columns / total if total else 0.0

    def __iadd__(self, delta: "StreamCounters") -> "StreamCounters":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(delta, f.name))
        return self


@dataclass
class TenantStream:
    """One tenant's live session: policy + engine + monitor + counters."""

    tenant_id: str
    policy: TenantPolicy
    stream: object  # IncrementalMatrixProfile
    monitor: object | None = None  # SketchMonitor when gated
    counters: StreamCounters = field(default_factory=StreamCounters)
    #: Global sample offset of the stream's first sample (re-bases bump
    #: this so reported segment positions stay global).
    base_offset: int = 0

    @property
    def gated(self) -> bool:
        return self.monitor is not None

    @property
    def n_samples_global(self) -> int:
        return self.base_offset + self.stream.n_samples
