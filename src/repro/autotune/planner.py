"""The error-budget planner: mode, backend, layout and tiles for one job.

Section III-B: tiling "simplifies tuning for accuracy through careful
selection of the number of tiles".  Under an explicit ``target_error``
:meth:`AutoTuner.tune` walks the precision ladder, the tensor-core
backend, the triangular self-join layout and the FFT seed-QT path
(Fig. 7), keeps the candidates whose a-priori bound
(:func:`~repro.precision.errors.streaming_qt_error_bound`, or
:func:`~repro.precision.errors.tc_gemm_error_bound` on the tensor-core
path) stays inside the budget, and returns the predicted-fastest one.
Candidates are priced by the constant host-cost table below.

The bit-identity contract: **without a target the planner moves no
numerics-visible knob**.  It returns the requested mode at the larger of
the requested tile count and the memory floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.config import RunConfig
from ..core.planner import TilePlan, plan_tiles
from ..core.tiling import tile_grid_shape
from ..gpu.device import DeviceSpec, get_device
from ..gpu.kernel import LaunchConfig
from ..gpu.occupancy import best_block_size
from ..gpu.perfmodel import kernel_itemsize, single_tile_costs, single_tile_timing
from ..gpu.profiler import binding
from ..precision.errors import (
    dot_product_error_bound,
    streaming_qt_error_bound,
    tc_gemm_error_bound,
)
from ..precision.modes import TENSOR_CORE_MODES, PrecisionMode, policy_for
from ..reporting import format_seconds, format_table

__all__ = ["AutoTuner", "TuneDecision", "Candidate", "predicted_seconds"]

#: Ladder order used when choosing a mode under an error target: prefer
#: the narrower (faster-on-device) mode on prediction ties.
_MODE_ORDER = (
    PrecisionMode.FP16,
    PrecisionMode.MIXED,
    PrecisionMode.FP16C,
    PrecisionMode.FP32,
    PrecisionMode.FP64,
)

# Host-cost table.  The kernels run as numpy on the host, so candidates
# are ranked by predicted host seconds.  numpy has no native half SIMD
# path: the FP16 family is *slower per cell on the host* even though the
# modelled device is faster, which is why loose targets often land on a
# wide mode.

#: Host seconds per distance-matrix cell-dimension, per mode.
SECONDS_PER_CELL = {
    PrecisionMode.FP64: 1.2e-8,
    PrecisionMode.FP32: 9.0e-9,
    PrecisionMode.MIXED: 1.6e-8,
    PrecisionMode.FP16: 2.4e-8,
    PrecisionMode.FP16C: 4.0e-8,
}
#: Host seconds per main-loop super-step (slicing, kernel dispatch and
#: cost accounting per block), per mode.
SECONDS_PER_STEP = {
    PrecisionMode.FP64: 2.0e-4,
    PrecisionMode.FP32: 2.0e-4,
    PrecisionMode.MIXED: 2.5e-4,
    PrecisionMode.FP16: 2.5e-4,
    PrecisionMode.FP16C: 3.0e-4,
}
#: Rows per priced super-step (the main loop's block on the 512-wide,
#: d = 8 tiles the table was fitted on).
STEP_ROWS = 32
#: Host seconds per dispatched tile (planning, slicing, merge bookkeeping).
TILE_OVERHEAD = 1.5e-3
#: Per-cell multiplier of the tensor-core main loop (the packed-panel
#: GEMM replaces the per-row streaming recurrence).
TC_CELL_FACTOR = 0.5
#: Per-step multiplier of the tensor-core main loop (panel packing,
#: shear gathers and chained-GEMM dispatch cost more per block).
TC_STEP_FACTOR = 1.5
#: Per-cell multiplier of a mirrored symmetric tile, whose panel is
#: reduced twice (column- and row-wise).
MIRROR_CELL_FACTOR = 1.25


def predicted_seconds(
    tiles, d: int, m: int, mode: PrecisionMode, n_r_seg: int, n_q_seg: int,
    backend: str = "numeric", precalc_strategy: str = "exact",
) -> float:
    """Predicted host seconds of one tiled job.

    ``tiles`` holds ``(rows, cols, count, mirror)`` weighted tile
    geometries.  Super-steps are priced at :data:`STEP_ROWS` rows.  The
    seed-QT term streams a length-``m`` dot per segment-dimension
    (``"exact"``) or runs an O(n log n) convolution with a ~4x vectorised
    constant (``"fft"``).
    """
    cell, step = SECONDS_PER_CELL[mode], SECONDS_PER_STEP[mode]
    if backend == "tensor_core":
        step *= TC_STEP_FACTOR
        cell_rate = cell * TC_CELL_FACTOR
    else:
        cell_rate = cell
    total = sum(
        (
            TILE_OVERHEAD
            + math.ceil(rows / STEP_ROWS) * step
            + float(rows) * cols * d
            * (cell_rate * MIRROR_CELL_FACTOR if mirror else cell_rate)
        )
        * count
        for rows, cols, count, mirror in tiles
    )
    elems = float(n_r_seg + n_q_seg) * d
    if precalc_strategy == "fft":
        return total + elems * math.log2(max(n_q_seg + m - 1, 2)) * cell * 4.0
    return total + elems * m * cell


def _axis_chunks(total: int, parts: int) -> list[tuple[int, int]]:
    """``(size, count)`` of the at most two chunk sizes of a near-equal
    split of ``total`` into ``parts``."""
    base, extra = divmod(total, parts)
    chunks = [(base + 1, extra), (base, parts - extra)]
    return [(size, count) for size, count in chunks if count and size]


@dataclass(frozen=True)
class Candidate:
    """One evaluated configuration point."""

    mode: PrecisionMode
    n_tiles: int
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
    """The planner's verdict for one job, with the full candidate record."""

    config: RunConfig
    chosen: Candidate
    candidates: tuple[Candidate, ...]  # predicted-fastest first
    shape: tuple[int, int, int, int]  # n_r_seg, n_q_seg, d, m
    requested_mode: PrecisionMode
    target_error: float | None
    tile_plan: TilePlan | None
    device: DeviceSpec

    @property
    def mode_changed(self) -> bool:
        return self.chosen.mode != self.requested_mode

    def explain(self) -> str:
        """Human-readable report: roofline position, candidates, verdict."""
        n_r, n_q, d, m = self.shape
        c, device = self.chosen, self.device
        lines = [
            f"autotune report — {n_r} x {n_q} segments, d={d}, m={m}, "
            f"{device.name}, requested {self.requested_mode.value}"
            + (
                f", target error {self.target_error:.3g}"
                if self.target_error is not None
                else ""
            )
        ]
        p = self.tile_plan
        if p is not None:
            lines.append(
                f"tile plan: {p.n_tiles} tile(s) ({p.grid[0]} x {p.grid[1]}), "
                f"{p.tile_rows} x {p.tile_cols} segments each, "
                f"{p.tile_bytes / 1024 ** 2:.1f} MiB, limited by {p.limited_by} "
                f"(memory floor {p.memory_bound_tiles}, "
                f"accuracy floor {p.accuracy_bound_tiles})"
            )
        # One tile's roofline position: busy time is the modelled clock's
        # own kernel_time, the binding term the profiler's.
        rows, cols = (p.tile_rows, p.tile_cols) if p is not None else (n_r, n_q)
        policy = policy_for(c.mode)
        sizes = dict(
            precalc_itemsize=policy.precalc.itemsize,
            compensated=policy.compensated,
        )
        costs = single_tile_costs(
            rows, cols, d, m, policy.itemsize, LaunchConfig.tuned_for(device),
            **sizes,
        )
        timing = single_tile_timing(rows, cols, d, m, device, policy.itemsize, **sizes)
        table = []
        for name, cost in costs.items():
            itemsize = kernel_itemsize(name, policy.itemsize, policy.precalc.itemsize)
            table.append([
                name,
                binding(cost, device, itemsize),
                format_seconds(timing.kernels[name].busy),
                f"{cost.flops / max(cost.bytes_dram, 1.0):.2f}",
                f"{device.peak_flops(itemsize) / device.mem_bandwidth:.1f}",
            ])
        lines.append(format_table(
            ["kernel", "bound by", "busy", "flop/byte", "ridge"],
            table,
            title=f"device roofline ({c.mode.value})",
        ))
        block, occ = best_block_size(device)
        lines.append(
            f"occupancy: {occ.occupancy:.0%} at block {block} (limited by "
            f"{occ.limiter}); modelled device time "
            f"{format_seconds(timing.compute_total)}"
        )
        table = [
            [
                "->" if cand == c else ("x" if cand.rejected else ""),
                cand.mode.value,
                cand.backend,
                "sym" if cand.symmetric_tiles else "full",
                cand.n_tiles,
                cand.precalc_strategy,
                format_seconds(cand.predicted_seconds),
                f"{cand.error_bound:.3g}",
                cand.note,
            ]
            for cand in self.candidates
        ]
        lines.append(format_table(
            ["", "mode", "backend", "grid", "tiles", "precalc", "predicted",
             "err bound", "note"],
            table,
            title="candidates (predicted-fastest first, x = rejected)",
        ))
        lines.append(
            f"chosen: {c.mode.value}, {c.backend} backend, "
            f"{'symmetric' if c.symmetric_tiles else 'full'} grid, "
            f"{c.n_tiles} tile(s), precalc={c.precalc_strategy} — predicted "
            f"{format_seconds(c.predicted_seconds)}"
        )
        return "\n".join(lines)


class AutoTuner:
    """Plans mode, backend, layout and tile count for a job shape.

    Parameters
    ----------
    device:
        Simulated device the job will run on (memory floor, tensor-core
        availability, roofline report).
    concurrent_tiles_per_gpu:
        Resident tiles per GPU assumed by the memory floor
        (:func:`~repro.core.planner.plan_tiles`).
    max_accuracy_tiles:
        A mode whose accuracy floor needs more tiles than this is
        rejected rather than planned.
    """

    def __init__(
        self,
        device: "DeviceSpec | str" = "A100",
        concurrent_tiles_per_gpu: int = 16,
        max_accuracy_tiles: int = 4096,
    ):
        self.device = get_device(device)
        self.concurrent_tiles_per_gpu = concurrent_tiles_per_gpu
        self.max_accuracy_tiles = max_accuracy_tiles

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
        tiling); the planner never goes below it, nor below the memory
        floor.  When no candidate meets ``target_error`` the requested
        mode runs at its memory-floored tiling (best effort).
        """
        requested = PrecisionMode.parse(mode)
        modes = _MODE_ORDER if target_error is not None else (requested,)
        candidates: list[Candidate] = []
        plans: dict[PrecisionMode, TilePlan | None] = {}
        for cand_mode in modes:
            note = ""
            bound = streaming_qt_error_bound(1, m, cand_mode)
            floor = n_tiles or 1
            if target_error is not None and bound > target_error:
                # Even a one-row tile misses the target in this mode.
                # Reject before planning: the accuracy floor would
                # otherwise explode to one tile per segment row.
                note = "error bound above target"
            else:
                plan = plans[cand_mode] = self._plan_for(
                    cand_mode, n_r_seg, n_q_seg, d, m, target_error
                )
                floor, bound = self._floor(plan, n_r_seg, m, cand_mode, n_tiles)
                if target_error is not None and bound > target_error:
                    note = "error bound above target"
                elif plan is not None and plan.accuracy_bound_tiles > self.max_accuracy_tiles:
                    floor = plan.accuracy_bound_tiles
                    note = f"needs {floor} tiles"
            if not note:
                candidates.extend(self._grid(
                    cand_mode, n_r_seg, n_q_seg, d, m, floor, bound,
                    target_error, self_join=self_join,
                ))
                continue
            candidates.append(Candidate(
                mode=cand_mode, n_tiles=floor, precalc_strategy="exact",
                predicted_seconds=math.inf, error_bound=bound, note=note,
            ))
            if "tensor_core" in self._backends(cand_mode, target_error):
                # Tensor-core rescue: the vector FP16-family bound grows
                # at eps16 per streamed row, the TC bound at eps32 plus a
                # per-panel eps16 term, so the TC path may hold the
                # target at the plain memory-floored tiling.
                plan = plans[cand_mode] = self._plan_for(
                    cand_mode, n_r_seg, n_q_seg, d, m, None
                )
                floor, bound = self._floor(plan, n_r_seg, m, cand_mode, n_tiles)
                candidates.extend(self._grid(
                    cand_mode, n_r_seg, n_q_seg, d, m, floor, bound,
                    target_error, backends=("tensor_core",), self_join=self_join,
                ))

        viable = [c for c in candidates if not c.rejected]
        if not viable:
            # Nothing satisfies the target: fall back to the requested
            # mode at its *memory*-floored tiling (best-effort contract —
            # the accuracy floor is what just proved unsatisfiable).
            plan = plans[requested] = self._plan_for(
                requested, n_r_seg, n_q_seg, d, m, None
            )
            floor = max(n_tiles or 1, plan.n_tiles if plan else 1)
            bound = streaming_qt_error_bound(
                math.ceil(n_r_seg / max(int(math.isqrt(floor)), 1)), m, requested
            )
            viable = self._grid(requested, n_r_seg, n_q_seg, d, m, floor, bound, None)
            candidates.extend(viable)
        chosen = min(
            viable, key=lambda c: (c.predicted_seconds, _MODE_ORDER.index(c.mode))
        )
        config = RunConfig(
            mode=chosen.mode,
            device=self.device,
            n_tiles=chosen.n_tiles,
            n_gpus=n_gpus,
            n_streams=n_streams,
            exclusion_zone=exclusion_zone,
            backend=chosen.backend,
            symmetric_tiles=chosen.symmetric_tiles,
            precalc_strategy=chosen.precalc_strategy,
        )
        return TuneDecision(
            config=config,
            chosen=chosen,
            candidates=tuple(
                sorted(candidates, key=lambda c: (c.rejected, c.predicted_seconds))
            ),
            shape=(n_r_seg, n_q_seg, d, m),
            requested_mode=requested,
            target_error=target_error,
            tile_plan=plans.get(chosen.mode),
            device=self.device,
        )

    # ------------------------------------------------------------------

    def _plan_for(self, mode, n_r_seg, n_q_seg, d, m, target_error) -> TilePlan | None:
        try:
            return plan_tiles(
                n_r_seg, n_q_seg, d, m, mode=mode, device=self.device,
                target_error=target_error,
                concurrent_tiles_per_gpu=self.concurrent_tiles_per_gpu,
            )
        except ValueError:
            return None

    @staticmethod
    def _floor(plan, n_r_seg, m, mode, n_tiles) -> tuple[int, float]:
        """Tile count (caller floor vs plan) and its vector error bound."""
        floor = max(n_tiles or 1, plan.n_tiles if plan else 1)
        tile_rows = (
            plan.tile_rows if plan and floor == plan.n_tiles
            else math.ceil(n_r_seg / max(int(math.isqrt(floor)), 1))
        )
        return floor, streaming_qt_error_bound(tile_rows, m, mode)

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
        seed_bound = dot_product_error_bound(m, policy_for(mode).precalc_eps)
        if seed_bound * 4.0 < target_error:
            return ("exact", "fft")
        return ("exact",)

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

    def _grid(
        self, mode, n_r_seg, n_q_seg, d, m, n_tiles, bound, target_error,
        backends: "tuple[str, ...] | None" = None,
        self_join: bool = False,
    ) -> list[Candidate]:
        """Price the precalc x backend x layout candidates at one tiling."""
        # A near-square grid splits each axis into chunks of at most two
        # distinct sizes, so the whole tiling collapses to <= 4 weighted
        # geometries — pricing stays O(1) however many tiles it holds.
        g_r, g_q = tile_grid_shape(n_tiles)
        full = [
            (rows, cols, rc * cc, False)
            for rows, rc in _axis_chunks(n_r_seg, min(g_r, n_r_seg))
            for cols, cc in _axis_chunks(n_q_seg, min(g_q, n_q_seg))
        ]
        # (symmetric, geometries, largest tile rows, vector bound)
        layouts = [(False, full, max(rows for rows, *_ in full), bound)]
        # Triangular layout: g diagonal tiles plus g(g-1)/2 mirrored upper
        # tiles.  Numerics-visible (the merge order differs from the full
        # grid's), so it competes only under an error target.  The
        # mirrored reduce re-reads computed distances, so the bands'
        # streaming bound covers both contributions.
        g = min(max(g_r, g_q), n_r_seg)
        if self_join and target_error is not None and g > 1:
            bands = _axis_chunks(n_r_seg, g)
            sym = [(size, size, count, False) for size, count in bands]
            for i, (rows, rc) in enumerate(bands):
                for cols, cc in bands[i:]:
                    pairs = rc * (rc - 1) // 2 if cols == rows else rc * cc
                    if pairs:
                        sym.append((rows, cols, pairs, True))
            sym_rows = max(size for size, _ in bands)
            layouts.append(
                (True, sym, sym_rows, streaming_qt_error_bound(sym_rows, m, mode))
            )

        out: list[Candidate] = []
        for strategy in self._strategies(mode, m, target_error):
            for backend in backends or self._backends(mode, target_error):
                for symmetric, tiles, rows_max, vector_bound in layouts:
                    cand_bound, note, predicted = vector_bound, "", math.inf
                    if backend == "tensor_core":
                        # The packed-panel path has its own (FP32-
                        # accumulation) bound; candidates that miss the
                        # target are recorded as rejected, not dropped.
                        cand_bound = tc_gemm_error_bound(rows_max, m, mode)
                        if target_error is not None and cand_bound > target_error:
                            note = "tc error bound above target"
                    if not note:
                        predicted = predicted_seconds(
                            tiles, d, m, mode, n_r_seg, n_q_seg,
                            backend=backend, precalc_strategy=strategy,
                        )
                    out.append(Candidate(
                        mode=mode, n_tiles=n_tiles, precalc_strategy=strategy,
                        predicted_seconds=predicted, error_bound=cand_bound,
                        backend=backend, symmetric_tiles=symmetric, note=note,
                    ))
        return out
