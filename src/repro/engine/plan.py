"""Job specification and tile planning — the one place a run is described.

Before this layer existed the repo carried six copies of the same
prologue (validate the series, default the exclusion zone, build the
device layouts, partition into tiles, assign GPUs) spread over
``core.multi_tile``, ``core.single_tile``, ``service.scheduler``,
the first multi-node model, ``core.anytime`` and ``core.scrimp`` — and
they had drifted (``anytime`` skipped the dimension-count check the
tiled path enforced).  :class:`JobSpec` owns that prologue now:

* :meth:`JobSpec.from_arrays` — validate host series (shape, finiteness,
  dimension agreement, window length) and resolve join semantics;
* :meth:`JobSpec.from_layouts` — adopt already-prepared device layouts
  (the service path validates at submission and keeps layouts cached);
* :meth:`JobSpec.modeled` — an analytic-only problem description with no
  data at all (paper-scale projections, multi-node models);
* :meth:`JobSpec.plan` — materialise the tile list, device assignment
  and device layouts into an :class:`ExecutionPlan` that
  :func:`repro.engine.dispatch.execute_plan` can run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import RunConfig, default_exclusion_zone
from ..core.tiling import (
    Tile,
    assign_tiles,
    compute_symmetric_tile_list,
    compute_tile_list,
)
from ..kernels.layout import to_device_layout, validate_series
from ..kernels.precalc import PreparedPrecalc
from ..precision.modes import PrecisionPolicy
from .precalc_cache import PrecalcPlaneCache

__all__ = ["JobSpec", "ExecutionPlan"]


def _check_window(m: int) -> None:
    if m < 2:
        raise ValueError(f"segment length m must be >= 2, got {m}")


@dataclass
class JobSpec:
    """A fully validated matrix profile problem.

    Carries the logical description (segment counts, dimensionality,
    window, join semantics, resolved exclusion zone) plus — depending on
    the constructor — the validated host series or prebuilt device
    layouts.  ``reference``/``query`` are ``None`` for modeled specs;
    ``query`` is also ``None`` for self-joins.
    """

    m: int
    config: RunConfig
    d: int
    n_r_seg: int
    n_q_seg: int
    self_join: bool
    exclusion_zone: int | None
    reference: np.ndarray | None = None  # validated (n, d) host series
    query: np.ndarray | None = None
    _tr_layout: np.ndarray | None = field(default=None, repr=False)
    _tq_layout: np.ndarray | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Constructors

    @classmethod
    def from_arrays(
        cls,
        reference: np.ndarray,
        query: np.ndarray | None,
        m: int,
        config: RunConfig | None = None,
    ) -> "JobSpec":
        """Validate host series and build the spec.

        ``query=None`` requests a self-join with the default exclusion
        zone (unless ``config.exclusion_zone`` overrides it).  Raises the
        canonical :class:`ValueError` family every entry point shares:
        dimension-count mismatch and window-too-long.
        """
        config = config or RunConfig()
        reference = validate_series(reference, "reference")
        self_join = query is None
        query_arr = reference if self_join else validate_series(query, "query")
        if query_arr.shape[1] != reference.shape[1]:
            raise ValueError(
                f"reference has d={reference.shape[1]} but query "
                f"d={query_arr.shape[1]}"
            )
        zone = config.exclusion_zone
        if self_join and zone is None:
            zone = default_exclusion_zone(m)
        _check_window(m)
        n_r_seg = reference.shape[0] - m + 1
        n_q_seg = query_arr.shape[0] - m + 1
        if n_r_seg < 1 or n_q_seg < 1:
            raise ValueError(f"m={m} too long for the input series")
        return cls(
            m=m,
            config=config,
            d=reference.shape[1],
            n_r_seg=n_r_seg,
            n_q_seg=n_q_seg,
            self_join=self_join,
            exclusion_zone=zone,
            reference=reference,
            query=None if self_join else query_arr,
        )

    @classmethod
    def from_layouts(
        cls,
        tr_layout: np.ndarray,
        tq_layout: np.ndarray,
        m: int,
        config: RunConfig,
        exclusion_zone: int | None = None,
    ) -> "JobSpec":
        """Adopt device-layout ``(d, n)`` series already in the storage
        dtype (``tq_layout is tr_layout`` marks a self-join).  The caller
        has validated the host series; the zone is taken as given."""
        _check_window(m)
        n_r_seg = tr_layout.shape[1] - m + 1
        n_q_seg = tq_layout.shape[1] - m + 1
        if n_r_seg < 1 or n_q_seg < 1:
            raise ValueError(f"m={m} too long for the input series")
        spec = cls(
            m=m,
            config=config,
            d=tr_layout.shape[0],
            n_r_seg=n_r_seg,
            n_q_seg=n_q_seg,
            self_join=tq_layout is tr_layout,
            exclusion_zone=exclusion_zone,
        )
        spec._tr_layout = tr_layout
        spec._tq_layout = tq_layout
        return spec

    @classmethod
    def modeled(
        cls,
        n_r_seg: int,
        n_q_seg: int,
        d: int,
        m: int,
        config: RunConfig | None = None,
    ) -> "JobSpec":
        """An analytic-only spec: segment counts without any data.

        Plans built from it carry no layouts; only the
        :class:`~repro.engine.backends.AnalyticBackend` can run them.
        """
        if n_r_seg < 1 or n_q_seg < 1:
            raise ValueError("need at least one segment in each direction")
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        return cls(
            m=m,
            config=config or RunConfig(),
            d=d,
            n_r_seg=n_r_seg,
            n_q_seg=n_q_seg,
            self_join=True,
            exclusion_zone=None,
        )

    # ------------------------------------------------------------------

    @property
    def policy(self) -> PrecisionPolicy:
        return self.config.policy

    def escalated(self, mode) -> "JobSpec":
        """A copy of this spec running at ``mode`` (precision escalation).

        With host series present the layouts are rebuilt from them
        (lazily); a layouts-only spec upcasts its device layouts instead
        — exact for every ladder step, since escalation only ever widens
        the storage dtype.  Modeled specs cannot escalate.
        """
        from ..precision.modes import PrecisionMode, policy_for

        mode = PrecisionMode.parse(mode)
        config = self.config.with_(mode=mode)
        spec = JobSpec(
            m=self.m,
            config=config,
            d=self.d,
            n_r_seg=self.n_r_seg,
            n_q_seg=self.n_q_seg,
            self_join=self.self_join,
            exclusion_zone=self.exclusion_zone,
            reference=self.reference,
            query=self.query,
        )
        if self.reference is None:
            if self._tr_layout is None:
                raise ValueError("a modeled JobSpec cannot be escalated")
            storage = policy_for(mode).storage
            spec._tr_layout = np.ascontiguousarray(
                self._tr_layout.astype(storage)
            )
            spec._tq_layout = (
                spec._tr_layout
                if self.self_join
                else np.ascontiguousarray(self._tq_layout.astype(storage))
            )
        return spec

    @property
    def is_modeled(self) -> bool:
        """True when the spec carries no data (analytic-only)."""
        return self.reference is None and self._tr_layout is None

    def layouts(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(d, n)`` storage-dtype device layouts (built lazily;
        ``tq is tr`` for self-joins, so diagonal tiles can share uploads).
        """
        if self._tr_layout is None:
            if self.reference is None:
                raise ValueError("a modeled JobSpec has no device layouts")
            self._tr_layout = to_device_layout(self.reference, self.policy.storage)
            self._tq_layout = (
                self._tr_layout
                if self.self_join
                else to_device_layout(self.query, self.policy.storage)
            )
        return self._tr_layout, self._tq_layout

    def plan(
        self,
        n_tiles: int | None = None,
        n_gpus: int | None = None,
        tiles: list[Tile] | None = None,
        assignment: list[int] | None = None,
        precalc_store=None,
    ) -> "ExecutionPlan":
        """Materialise the execution plan.

        ``n_tiles``/``n_gpus`` default to the config's values.  ``tiles``
        overrides the computed tile list (the multi-node model plans one
        node's subset); ``assignment`` overrides the static round-robin
        device assignment (pass ``None`` with ``static=False`` semantics
        by giving the dispatcher a placement policy instead).
        ``precalc_store`` is an optional cross-job stats store (the
        service's content-addressed cache) handed to the plan's
        :class:`~repro.engine.precalc_cache.PrecalcPlaneCache`; the
        cache itself is created empty and populates lazily on the first
        numeric tile execution, so planning stays cheap.
        """
        if tiles is None:
            if self.config.symmetric_tiles and not self.self_join:
                raise ValueError(
                    "symmetric_tiles exploits self-join symmetry "
                    "(D(i, j) = D(j, i)); AB-joins have no mirrored twin"
                )
            n_tiles = n_tiles if n_tiles is not None else self.config.n_tiles
            if self.config.symmetric_tiles:
                tiles = compute_symmetric_tile_list(self.n_r_seg, n_tiles)
            else:
                tiles = compute_tile_list(self.n_r_seg, self.n_q_seg, n_tiles)
        if assignment is None:
            n_gpus = n_gpus if n_gpus is not None else self.config.n_gpus
            assignment = assign_tiles(tiles, n_gpus)
        tr_layout = tq_layout = None
        precalc_cache = None
        if not self.is_modeled:
            tr_layout, tq_layout = self.layouts()
            precalc_cache = PrecalcPlaneCache(
                store=precalc_store, base_mode=self.config.mode
            )
        return ExecutionPlan(
            spec=self,
            tiles=tiles,
            assignment=assignment,
            tr_layout=tr_layout,
            tq_layout=tq_layout,
            precalc_cache=precalc_cache,
        )

    def whole_grid_precalc(self) -> PreparedPrecalc:
        """The precalculation of one tile over the whole grid, prepared by
        the plane cache of a one-tile plan: the full-series planes and
        segment 0's seeds, costed as that tile's (its seed work plus both
        roles' planes).  For callers that run their own main loop over
        the whole grid — the diagonal, anytime and chain paths."""
        tile = Tile(0, 0, self.n_r_seg, 0, self.n_q_seg)
        plan = self.plan(tiles=[tile], assignment=[0])
        return plan.precalc_cache.prepare(plan, [tile])


@dataclass
class ExecutionPlan:
    """A :class:`JobSpec` resolved into runnable tiles.

    ``assignment`` is the *static* tile→GPU map (Pseudocode 2's
    round-robin); the dispatcher may override it with a dynamic
    placement policy (the service does, for retry-with-exclusion).
    ``tr_layout``/``tq_layout`` are ``None`` for modeled plans.
    """

    spec: JobSpec
    tiles: list[Tile]
    assignment: list[int]
    tr_layout: np.ndarray | None = None
    tq_layout: np.ndarray | None = None
    #: The plan's plane cache (None only for modeled plans); escalated
    #: plans share their parent's instance so escalation populates new
    #: mode planes in the same cache.
    precalc_cache: "PrecalcPlaneCache | None" = None
    _escalated: dict = field(default_factory=dict, repr=False)

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    def static_gpu_of(self, tile: Tile) -> int:
        """The statically assigned GPU of ``tile`` (by position)."""
        return self.assignment[self.tiles.index(tile)]

    def escalated(self, mode) -> "ExecutionPlan":
        """This plan with its spec escalated to ``mode`` (cached).

        Same tiles, same assignment — only the precision (and therefore
        the layouts) changes, so an escalated tile re-executes on exactly
        the geometry it failed on.
        """
        from ..precision.modes import PrecisionMode

        mode = PrecisionMode.parse(mode)
        if mode == PrecisionMode.parse(self.spec.config.mode):
            return self
        cached = self._escalated.get(mode)
        if cached is None:
            spec = self.spec.escalated(mode)
            tr, tq = (None, None) if spec.is_modeled else spec.layouts()
            cached = ExecutionPlan(
                spec=spec,
                tiles=self.tiles,
                assignment=self.assignment,
                tr_layout=tr,
                tq_layout=tq,
                precalc_cache=self.precalc_cache,
            )
            self._escalated[mode] = cached
        return cached
