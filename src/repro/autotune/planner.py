"""The roofline-driven autotuner: candidate generation, ranking, explain.

Given one job's shape (segment counts, dimensionality, window, join
semantics) the tuner enumerates candidate configurations over the
performance knobs the repo accumulated by hand in PRs 4-6 — ``row_block``
(PR 4), ``parallel_workers`` (PR 4), tile count (the
:func:`~repro.core.planner.plan_tiles` memory/accuracy floors),
``precalc_strategy`` (PR 5) and, under an explicit error target, the
precision mode itself — prices each against the calibrated host cost
model plus the device roofline, and returns the predicted-fastest
:class:`~repro.core.config.RunConfig`.

The bit-identity contract: **absent a** ``target_error`` **the tuner only
moves knobs that cannot change a single output bit** — ``row_block`` and
``parallel_workers`` are cache-key-excluded host-execution knobs (any
``row_block`` runs the same blocked loop; the per-row kernels are the
test oracle only), and the tile count is pinned to the same memory
floor the default path would be forced onto anyway.  Mode and
``precalc_strategy`` changes (both numerics-visible) happen only when the
caller states an error budget, and then only among candidates whose
Section V-B bound (:func:`~repro.precision.errors.streaming_qt_error_bound`)
stays inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.config import RunConfig
from ..core.planner import TilePlan, plan_tiles
from ..core.tiling import tile_grid_shape
from ..gpu.calibration import CalibrationProfile, default_profile
from ..gpu.device import DeviceSpec, get_device
from ..gpu.occupancy import OccupancyResult, best_block_size
from ..precision.errors import (
    dot_product_error_bound,
    streaming_qt_error_bound,
    tc_gemm_error_bound,
)
from ..precision.modes import TENSOR_CORE_MODES, PrecisionMode, policy_for
from ..reporting import format_seconds, format_table
from .cost import HostCostModel, modeled_device_seconds, roofline_breakdown

__all__ = ["AutoTuner", "TuneDecision", "Candidate"]

#: Ladder order used when choosing a mode under an error target: prefer
#: the narrower (faster-on-device) mode on prediction ties.
_MODE_ORDER = (
    PrecisionMode.FP16,
    PrecisionMode.MIXED,
    PrecisionMode.FP16C,
    PrecisionMode.FP32,
    PrecisionMode.FP64,
)


@dataclass(frozen=True)
class Candidate:
    """One evaluated configuration point."""

    mode: PrecisionMode
    n_tiles: int
    row_block: int
    parallel_workers: int
    precalc_strategy: str
    predicted_seconds: float
    error_bound: float
    backend: str = "numeric"
    #: triangular self-join layout (mirrored upper tiles); numerics-
    #: visible, so only ever True under an explicit error target.
    symmetric_tiles: bool = False
    note: str = ""  # rejection reason; empty for viable candidates

    @property
    def rejected(self) -> bool:
        return bool(self.note)


@dataclass
class TuneDecision:
    """The tuner's verdict for one job, with the full candidate record."""

    config: RunConfig
    chosen: Candidate
    candidates: tuple[Candidate, ...]  # predicted-fastest first
    shape: tuple[int, int, int, int]  # n_r_seg, n_q_seg, d, m
    requested_mode: PrecisionMode
    target_error: float | None
    tile_plan: TilePlan | None
    device: str
    roofline: dict[str, dict] = field(default_factory=dict)
    occupancy: OccupancyResult | None = None
    occupancy_block: int = 0
    modeled_device_seconds: float = 0.0
    calibration_source: str = "default"

    @property
    def mode_changed(self) -> bool:
        return self.chosen.mode != self.requested_mode

    def explain(self) -> str:
        """Human-readable report: roofline position, candidates, verdict."""
        n_r, n_q, d, m = self.shape
        lines = [
            f"autotune report — {n_r} x {n_q} segments, d={d}, m={m}, "
            f"{self.device}, requested {self.requested_mode.value}"
            + (
                f", target error {self.target_error:.3g}"
                if self.target_error is not None
                else ""
            ),
            f"calibration: {self.calibration_source}",
        ]
        if self.tile_plan is not None:
            p = self.tile_plan
            lines.append(
                f"tile plan: {p.n_tiles} tile(s) ({p.grid[0]} x {p.grid[1]}), "
                f"{p.tile_rows} x {p.tile_cols} segments each, "
                f"{p.tile_bytes / 1024 ** 2:.1f} MiB, limited by {p.limited_by} "
                f"(memory floor {p.memory_bound_tiles}, "
                f"accuracy floor {p.accuracy_bound_tiles})"
            )
        if self.roofline:
            rows = [
                [
                    name,
                    info["bound"],
                    format_seconds(info["busy"]),
                    f"{info['intensity']:.2f}",
                    f"{info['ridge']:.1f}",
                ]
                for name, info in self.roofline.items()
            ]
            lines.append(
                format_table(
                    ["kernel", "bound by", "busy", "flop/byte", "ridge"],
                    rows,
                    title=f"device roofline ({self.chosen.mode.value})",
                )
            )
        if self.occupancy is not None:
            lines.append(
                f"occupancy: {self.occupancy.occupancy:.0%} at block "
                f"{self.occupancy_block} (limited by {self.occupancy.limiter}); "
                f"modelled device time {format_seconds(self.modeled_device_seconds)}"
            )
        rows = []
        for c in self.candidates:
            marker = "->" if c == self.chosen else ("x" if c.rejected else "")
            rows.append(
                [
                    marker,
                    c.mode.value,
                    c.backend,
                    "sym" if c.symmetric_tiles else "full",
                    c.n_tiles,
                    c.row_block,
                    c.parallel_workers,
                    c.precalc_strategy,
                    format_seconds(c.predicted_seconds),
                    f"{c.error_bound:.3g}",
                    c.note,
                ]
            )
        lines.append(
            format_table(
                [
                    "",
                    "mode",
                    "backend",
                    "grid",
                    "tiles",
                    "row_block",
                    "workers",
                    "precalc",
                    "predicted",
                    "err bound",
                    "note",
                ],
                rows,
                title="candidates (predicted-fastest first, x = rejected)",
            )
        )
        c = self.chosen
        lines.append(
            f"chosen: {c.mode.value}, {c.backend} backend, "
            f"{'symmetric' if c.symmetric_tiles else 'full'} grid, "
            f"{c.n_tiles} tile(s), row_block={c.row_block}, "
            f"workers={c.parallel_workers}, "
            f"precalc={c.precalc_strategy} — predicted "
            f"{format_seconds(c.predicted_seconds)}"
        )
        return "\n".join(lines)


class AutoTuner:
    """Evaluates candidate :class:`RunConfig` points for a job shape.

    Parameters
    ----------
    device:
        Simulated device the job will run on (prices the roofline side).
    calibration:
        A :class:`~repro.gpu.calibration.CalibrationProfile`; defaults to
        the cold-start profile (run ``repro calibrate`` to measure one).
    estimator:
        Optional :class:`~repro.service.admission.LoadEstimator`; when
        attached, its online-learned seconds-per-cell EMA re-anchors the
        absolute host predictions after every completed job.
    row_blocks / workers:
        The candidate grids for the two host-execution knobs.
    max_candidates:
        Cap on the evaluated grid per tune call (safety bound).
    """

    ROW_BLOCKS: tuple[int, ...] = (1, 8, 16, 32, 64, 128)
    WORKERS: tuple[int, ...] = (1, 2, 4)

    def __init__(
        self,
        device: "DeviceSpec | str" = "A100",
        calibration: CalibrationProfile | None = None,
        estimator=None,
        row_blocks: tuple[int, ...] | None = None,
        workers: tuple[int, ...] | None = None,
        concurrent_tiles_per_gpu: int = 16,
        max_accuracy_tiles: int = 4096,
        max_candidates: int = 512,
    ):
        self.device = get_device(device)
        self.calibration = calibration or default_profile(self.device.name)
        self.cost = HostCostModel(self.calibration, estimator)
        self.row_blocks = tuple(row_blocks or self.ROW_BLOCKS)
        self.workers = tuple(workers or self.WORKERS)
        self.concurrent_tiles_per_gpu = concurrent_tiles_per_gpu
        self.max_accuracy_tiles = max_accuracy_tiles
        self.max_candidates = max_candidates
        self._memo: dict[tuple, TuneDecision] = {}

    # ------------------------------------------------------------------

    def observe(
        self, n_r_seg: int, n_q_seg: int, d: int, mode, elapsed: float
    ) -> None:
        """Feed one completed job's wall time back into the cost model."""
        if self.cost.estimator is not None:
            self.cost.estimator.observe(n_r_seg, n_q_seg, d, mode, elapsed)

    def observe_candidate(self, candidate: Candidate, elapsed: float) -> None:
        """Feed one *executed candidate's* measured wall time back.

        Where :meth:`observe` re-anchors the global seconds-per-cell EMA
        (shifting every prediction by the same factor), this updates the
        per-candidate correction keyed on the candidate's own knob tuple
        (mode, row_block, workers, precalc strategy, backend) — so a
        point the structural model mispredicts gets *re-ranked* relative
        to its rivals on the next tune call, not just rescaled with them.
        Clears the decision memo so the corrected ranking takes effect
        immediately.
        """
        self.cost.correct(
            candidate.mode,
            candidate.row_block,
            candidate.parallel_workers,
            candidate.precalc_strategy,
            candidate.backend,
            candidate.predicted_seconds,
            elapsed,
            symmetric=candidate.symmetric_tiles,
        )
        self._memo.clear()

    def tune_spec(self, spec, target_error: float | None = None) -> TuneDecision:
        """Tune an :class:`~repro.engine.plan.JobSpec` (config-preserving
        defaults: the spec's mode, gpus, streams and zone carry over)."""
        cfg = spec.config
        return self.tune(
            spec.n_r_seg,
            spec.n_q_seg,
            spec.d,
            spec.m,
            mode=cfg.mode,
            self_join=spec.self_join,
            target_error=target_error,
            n_gpus=cfg.n_gpus,
            n_streams=cfg.n_streams,
            exclusion_zone=cfg.exclusion_zone,
            n_tiles=cfg.n_tiles if cfg.n_tiles > 1 else None,
        )

    def tune(
        self,
        n_r_seg: int,
        n_q_seg: int,
        d: int,
        m: int,
        *,
        mode: "PrecisionMode | str" = PrecisionMode.FP64,
        self_join: bool = True,
        target_error: float | None = None,
        n_gpus: int = 1,
        n_streams: int | None = None,
        exclusion_zone: int | None = None,
        n_tiles: int | None = None,
    ) -> TuneDecision:
        """Pick the predicted-fastest configuration for one job shape.

        ``n_tiles`` is a caller-imposed floor (the service's requested
        tiling); the tuner never goes below it, nor below the
        memory-planner floor.  Decisions are memoised per shape — stream
        tenants re-tune identical band geometries every append.
        """
        requested = PrecisionMode.parse(mode)
        key = (
            n_r_seg, n_q_seg, d, m, requested.value, self_join, target_error,
            n_gpus, n_streams, exclusion_zone, n_tiles,
        )
        cached = self._memo.get(key)
        if cached is not None:
            return cached

        modes = (
            (requested,)
            if target_error is None
            else tuple(
                sorted(
                    set(_MODE_ORDER) | {requested},
                    key=_MODE_ORDER.index,
                )
            )
        )
        candidates: list[Candidate] = []
        plans: dict[PrecisionMode, TilePlan | None] = {}
        for cand_mode in modes:
            if (
                target_error is not None
                and streaming_qt_error_bound(1, m, cand_mode) > target_error
            ):
                # Even a one-row tile misses the target in this mode.
                # Reject before planning: the accuracy floor would
                # otherwise explode to one tile per segment row.
                candidates.append(
                    Candidate(
                        mode=cand_mode,
                        n_tiles=n_tiles or 1,
                        row_block=self.row_blocks[0],
                        parallel_workers=1,
                        precalc_strategy="exact",
                        predicted_seconds=math.inf,
                        error_bound=streaming_qt_error_bound(1, m, cand_mode),
                        note="error bound above target",
                    )
                )
                candidates.extend(
                    self._tc_rescue(
                        cand_mode, n_r_seg, n_q_seg, d, m, n_tiles,
                        target_error, n_gpus, plans, self_join,
                    )
                )
                continue
            plan = self._plan_for(
                cand_mode, n_r_seg, n_q_seg, d, m, target_error, n_gpus
            )
            plans[cand_mode] = plan
            floor = max(n_tiles or 1, plan.n_tiles if plan else 1)
            tile_rows = (
                plan.tile_rows if plan and floor == plan.n_tiles
                else math.ceil(n_r_seg / max(int(math.isqrt(floor)), 1))
            )
            bound = streaming_qt_error_bound(tile_rows, m, cand_mode)
            if target_error is not None and bound > target_error:
                candidates.append(
                    Candidate(
                        mode=cand_mode,
                        n_tiles=floor,
                        row_block=self.row_blocks[0],
                        parallel_workers=1,
                        precalc_strategy="exact",
                        predicted_seconds=math.inf,
                        error_bound=bound,
                        note="error bound above target",
                    )
                )
                candidates.extend(
                    self._tc_rescue(
                        cand_mode, n_r_seg, n_q_seg, d, m, n_tiles,
                        target_error, n_gpus, plans, self_join,
                    )
                )
                continue
            if plan is not None and plan.accuracy_bound_tiles > self.max_accuracy_tiles:
                candidates.append(
                    Candidate(
                        mode=cand_mode,
                        n_tiles=plan.accuracy_bound_tiles,
                        row_block=self.row_blocks[0],
                        parallel_workers=1,
                        precalc_strategy="exact",
                        predicted_seconds=math.inf,
                        error_bound=bound,
                        note=f"needs {plan.accuracy_bound_tiles} tiles",
                    )
                )
                candidates.extend(
                    self._tc_rescue(
                        cand_mode, n_r_seg, n_q_seg, d, m, n_tiles,
                        target_error, n_gpus, plans, self_join,
                    )
                )
                continue
            candidates.extend(
                self._grid(
                    cand_mode, n_r_seg, n_q_seg, d, m, floor, bound,
                    target_error, self_join=self_join,
                )
            )

        viable = [c for c in candidates if not c.rejected]
        if not viable:
            # Nothing satisfies the target: fall back to the requested
            # mode at its *memory*-floored tiling (best-effort contract —
            # the accuracy floor is what just proved unsatisfiable).
            fallback_plan = self._plan_for(
                requested, n_r_seg, n_q_seg, d, m, None, n_gpus
            )
            plans[requested] = fallback_plan
            floor = max(n_tiles or 1, fallback_plan.n_tiles if fallback_plan else 1)
            viable = self._grid(
                requested, n_r_seg, n_q_seg, d, m, floor,
                streaming_qt_error_bound(
                    math.ceil(n_r_seg / max(int(math.isqrt(floor)), 1)), m, requested
                ),
                None,
            )
            candidates.extend(viable)
        chosen = min(
            viable,
            key=lambda c: (c.predicted_seconds, _MODE_ORDER.index(c.mode)),
        )
        ordered = tuple(
            sorted(candidates, key=lambda c: (c.rejected, c.predicted_seconds))
        )

        config = RunConfig(
            mode=chosen.mode,
            device=self.device,
            n_tiles=chosen.n_tiles,
            n_gpus=n_gpus,
            n_streams=n_streams,
            exclusion_zone=exclusion_zone,
            row_block=chosen.row_block,
            backend=chosen.backend,
            symmetric_tiles=chosen.symmetric_tiles,
            parallel_workers=chosen.parallel_workers,
            precalc_strategy=chosen.precalc_strategy,
        )
        plan = plans.get(chosen.mode)
        tile_rows = plan.tile_rows if plan else n_r_seg
        tile_cols = plan.tile_cols if plan else n_q_seg
        block, occ = best_block_size(self.device)
        decision = TuneDecision(
            config=config,
            chosen=chosen,
            candidates=ordered,
            shape=(n_r_seg, n_q_seg, d, m),
            requested_mode=requested,
            target_error=target_error,
            tile_plan=plan,
            device=self.device.name,
            roofline=roofline_breakdown(
                tile_rows, tile_cols, d, m, chosen.mode, self.device
            ),
            occupancy=occ,
            occupancy_block=block,
            modeled_device_seconds=modeled_device_seconds(
                tile_rows, tile_cols, d, m, chosen.mode, self.device
            ),
            calibration_source=self.calibration.source,
        )
        if len(self._memo) > 256:
            self._memo.clear()
        self._memo[key] = decision
        return decision

    # ------------------------------------------------------------------

    def _plan_for(
        self, mode, n_r_seg, n_q_seg, d, m, target_error, n_gpus
    ) -> TilePlan | None:
        try:
            return plan_tiles(
                n_r_seg,
                n_q_seg,
                d,
                m,
                mode=mode,
                device=self.device,
                target_error=target_error,
                concurrent_tiles_per_gpu=self.concurrent_tiles_per_gpu,
            )
        except ValueError:
            return None

    def _strategies(self, mode, m: int, target_error) -> tuple[str, ...]:
        """Seed-QT strategies admissible for this mode/error budget.

        The FFT path is numerics-visible, so it is a candidate only under
        an explicit error target, in the FP64/FP32 modes it is validated
        for, and when the analytic dot-product bound of the seeds leaves
        the target comfortable headroom.
        """
        if target_error is None or mode not in (
            PrecisionMode.FP64,
            PrecisionMode.FP32,
        ):
            return ("exact",)
        policy = policy_for(mode)
        seed_bound = dot_product_error_bound(m, policy.precalc_eps)
        if seed_bound * 4.0 < target_error:
            return ("exact", "fft")
        return ("exact",)

    def _grid(
        self, mode, n_r_seg, n_q_seg, d, m, n_tiles, bound, target_error,
        backends: "tuple[str, ...] | None" = None,
        self_join: bool = False,
    ) -> list[Candidate]:
        """Evaluate the row_block x workers x precalc x layout grid at
        one tiling."""
        # A near-square grid splits each axis into chunks of at most two
        # distinct sizes, so the whole tiling collapses to <= 4 weighted
        # geometries — pricing stays O(1) however many tiles the
        # accuracy/memory floors demand.
        g_r, g_q = tile_grid_shape(n_tiles)
        g_r, g_q = min(g_r, n_r_seg), min(g_q, n_q_seg)

        def _axis_chunks(total: int, parts: int) -> list[tuple[int, int]]:
            base, extra = divmod(total, parts)
            chunks = [(base + 1, extra), (base, parts - extra)]
            return [(size, count) for size, count in chunks if count and size]

        geometries = [
            (rows, cols, rc * cc)
            for rows, rc in _axis_chunks(n_r_seg, g_r)
            for cols, cc in _axis_chunks(n_q_seg, g_q)
        ]
        max_rows = max(rows for rows, _, _ in geometries)

        # Triangular (symmetric) layout: same weighted-geometry trick
        # over the band grid — g diagonal tiles plus g(g-1)/2 mirrored
        # upper tiles whose panels are reduced twice.  Like a mode
        # change it is numerics-visible (the merge order differs from
        # the full grid's), so it competes only under an error target.
        sym_options: tuple[bool, ...] = (False,)
        sym_geometries = None
        sym_rows = max_rows
        if self_join and target_error is not None and n_tiles > 1:
            g = min(max(tile_grid_shape(n_tiles)), n_r_seg)
            if g > 1:
                bands = _axis_chunks(n_r_seg, g)
                sym_rows = max(size for size, _ in bands)
                sym_geometries = [
                    (size, size, count, False) for size, count in bands
                ]
                for i, (rows, rc) in enumerate(bands):
                    for cols, cc in bands[i:]:
                        pairs = rc * (rc - 1) // 2 if cols == rows else rc * cc
                        if pairs:
                            sym_geometries.append((rows, cols, pairs, True))
                sym_options = (False, True)

        blocks = sorted({min(b, max_rows) for b in self.row_blocks})
        workers = sorted({min(w, n_tiles) for w in self.workers})
        out: list[Candidate] = []
        for strategy in self._strategies(mode, m, target_error):
            for block in blocks:
                for w in workers:
                    for backend in (
                        backends
                        if backends is not None
                        else self._backends(mode, target_error)
                    ):
                        for symmetric in sym_options:
                            if len(out) >= self.max_candidates:
                                return out
                            rows_max = sym_rows if symmetric else max_rows
                            # The mirrored row-wise reduce re-reads
                            # already-computed distances, so the bands'
                            # streaming bound (rows <= the full grid's)
                            # covers both contributions.
                            cand_bound = (
                                streaming_qt_error_bound(rows_max, m, mode)
                                if symmetric
                                else bound
                            )
                            if backend == "tensor_core":
                                # The packed-panel path has its own (FP32-
                                # accumulation) bound, a function of the
                                # row-block chunking; candidates whose bound
                                # misses the target are recorded as rejected
                                # rather than silently dropped.
                                cand_bound = tc_gemm_error_bound(
                                    rows_max, m, mode, row_block=block
                                )
                                if (
                                    target_error is not None
                                    and cand_bound > target_error
                                ):
                                    out.append(
                                        Candidate(
                                            mode=mode,
                                            n_tiles=n_tiles,
                                            row_block=block,
                                            parallel_workers=w,
                                            precalc_strategy=strategy,
                                            predicted_seconds=math.inf,
                                            error_bound=cand_bound,
                                            backend=backend,
                                            symmetric_tiles=symmetric,
                                            note="tc error bound above target",
                                        )
                                    )
                                    continue
                            predicted = self.cost.job_time(
                                sym_geometries if symmetric else geometries,
                                d,
                                m,
                                mode,
                                block,
                                w,
                                precalc_strategy=strategy,
                                n_r_seg=n_r_seg,
                                n_q_seg=n_q_seg,
                                backend=backend,
                                symmetric=symmetric,
                            )
                            out.append(
                                Candidate(
                                    mode=mode,
                                    n_tiles=n_tiles,
                                    row_block=block,
                                    parallel_workers=w,
                                    precalc_strategy=strategy,
                                    predicted_seconds=predicted,
                                    error_bound=cand_bound,
                                    backend=backend,
                                    symmetric_tiles=symmetric,
                                )
                            )
        return out

    def _tc_rescue(
        self, cand_mode, n_r_seg, n_q_seg, d, m, n_tiles, target_error,
        n_gpus, plans, self_join: bool = False,
    ) -> list[Candidate]:
        """Tensor-core-only candidates for a mode whose *vector* accuracy
        floor just failed the target.

        The vector FP16-family bound grows at ``eps16`` per streamed row,
        so a tight target can demand absurd tilings (or be outright
        unsatisfiable) on the vector path — while the tensor-core bound
        grows at ``eps32`` with only a per-block ``eps16`` operand term,
        and may hold the target at the plain *memory*-floored tiling.
        Those candidates are evaluated here (per-candidate bound gating
        happens in :meth:`_grid`); an empty list when the mode/device has
        no tensor-core path.
        """
        if "tensor_core" not in self._backends(cand_mode, target_error):
            return []
        plan = self._plan_for(cand_mode, n_r_seg, n_q_seg, d, m, None, n_gpus)
        floor = max(n_tiles or 1, plan.n_tiles if plan else 1)
        tile_rows = (
            plan.tile_rows if plan and floor == plan.n_tiles
            else math.ceil(n_r_seg / max(int(math.isqrt(floor)), 1))
        )
        plans[cand_mode] = plan
        return self._grid(
            cand_mode, n_r_seg, n_q_seg, d, m, floor,
            streaming_qt_error_bound(tile_rows, m, cand_mode),
            target_error, backends=("tensor_core",), self_join=self_join,
        )

    def _backends(self, mode, target_error) -> tuple[str, ...]:
        """Main-loop backends admissible for this mode/error budget.

        The tensor-core path is numerics-visible (FP32 accumulation is
        not bit-identical to the vector recurrence), so — exactly like a
        mode change — it is only a candidate under an explicit error
        target, and only for the modes/devices that have the path at all.
        """
        if (
            target_error is not None
            and mode in TENSOR_CORE_MODES
            and getattr(self.device, "has_tensor_cores", False)
        ):
            return ("numeric", "tensor_core")
        return ("numeric",)
