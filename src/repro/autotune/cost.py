"""Cost model behind the autotuner: host wall time + device roofline.

Two clocks matter when ranking candidate configurations:

* **host wall time** — the kernels execute as real numpy on this machine,
  so the knobs the tuner owns (``row_block``, ``parallel_workers``, tile
  count, precalc strategy) trade python dispatch overhead against
  vectorised throughput.  :class:`HostCostModel` predicts it from the
  measured :class:`~repro.gpu.calibration.CalibrationProfile` constants,
  optionally re-anchored online by the service's learned
  seconds-per-cell EMA (:class:`~repro.service.admission.LoadEstimator`).
* **modelled device time** — the paper's roofline model
  (:mod:`repro.gpu.perfmodel`), which prices precision modes and exposes
  each kernel's binding resource.  :func:`roofline_breakdown` reproduces
  the ``busy = max(dram, l2, l1, flops)`` decision per kernel so the
  :meth:`~repro.autotune.TuneDecision.explain` report can show *which*
  ceiling each kernel sits under and how far from the ridge it is.
"""

from __future__ import annotations

import math

from ..gpu import calibration as cal
from ..gpu.calibration import CalibrationProfile, default_profile
from ..gpu.device import DeviceSpec, get_device
from ..gpu.kernel import LaunchConfig
from ..gpu.perfmodel import single_tile_costs, single_tile_timing
from ..precision.modes import policy_for

__all__ = ["HostCostModel", "roofline_breakdown", "modeled_device_seconds"]

#: Per-cell host multiplier for a mirrored (upper-triangular symmetric)
#: tile: the update kernel re-reads each plane for the row-wise reduce
#: (one extra compare per element; see ``UpdateKernel.charge_rows``).
MIRROR_CELL_FACTOR = 1.25


class HostCostModel:
    """Predicts host wall seconds for one candidate configuration.

    The per-cell rate comes from the live ``estimator`` when one is
    attached (the service's EMA, which improves online as jobs complete)
    and from the calibration profile otherwise; the structural overheads
    (per-super-step, per-tile, per-worker) always come from calibration.
    """

    #: EMA weight of the newest measurement in the per-candidate
    #: correction factors (see :meth:`correct`).
    CORRECTION_ALPHA: float = 0.5

    def __init__(
        self,
        calibration: CalibrationProfile | None = None,
        estimator=None,
    ):
        self.calibration = calibration or default_profile()
        self.estimator = estimator
        # Online per-candidate corrections: measured/predicted wall-time
        # ratios keyed by the knob tuple, folded multiplicatively into
        # job_time.  Unlike the estimator's global seconds-per-cell EMA
        # (one anchor for *all* candidates), these shift candidates
        # relative to each other, so a systematically mispredicted point
        # gets re-ranked after it has been observed.
        self._corrections: dict[tuple, float] = {}

    # ------------------------------------------------------------------

    def cell_time(self, mode) -> float:
        """Host seconds per distance-matrix cell-dimension at ``mode``."""
        if self.estimator is not None:
            return self.estimator.seconds_per_cell * self.estimator.mode_factor(
                mode
            )
        return self.calibration.cell_time(mode)

    def _spill_penalty(
        self, row_block: int, plane_elems: int, mode, backend: str = "numeric"
    ) -> float:
        """Per-cell multiplier once the block workspace outgrows cache.

        ``run_tile`` keeps a backend-dependent number of row-block-sized
        planes live per super-step — ~4 on the vector path, ~3 on the
        tensor-core path, whose FP32 pad/accumulate/scan fragments share
        buffers (see ``repro.engine.backends.WORKSPACE_HALF_PLANES``).
        Past the calibrated cache budget the per-cell rate degrades
        linearly up to ``spill_factor``.
        """
        # Deferred: engine.backends transitively imports this package.
        from ..engine.backends import WORKSPACE_HALF_PLANES

        c = self.calibration
        itemsize = policy_for(mode).itemsize
        planes = WORKSPACE_HALF_PLANES.get(
            "tensor_core" if backend == "tensor_core" else "vector", 4
        )
        workspace = float(planes) * row_block * plane_elems * itemsize
        if workspace <= c.workspace_bytes:
            return 1.0
        frac = min((workspace - c.workspace_bytes) / (3.0 * c.workspace_bytes), 1.0)
        return 1.0 + (c.spill_factor - 1.0) * frac

    def tile_time(
        self,
        rows: int,
        cols: int,
        d: int,
        mode,
        row_block: int,
        backend: str = "numeric",
        mirror: bool = False,
    ) -> float:
        """Predicted host seconds for one tile of the main loop.

        ``backend="tensor_core"`` prices the packed-panel GEMM main loop:
        the per-cell rate scales by the calibrated ``tc_cell_factor``
        (< 1 — the fused panel replaces the per-row streaming recurrence)
        and the super-step overhead by ``tc_step_factor`` (> 1 — panel
        packing, shear views and the chained-GEMM dispatch cost more
        python per block).  ``mirror`` prices a symmetric self-join tile
        whose panel is reduced twice (column- and row-wise) by scaling
        the per-cell rate with :data:`MIRROR_CELL_FACTOR`.
        """
        c = self.calibration
        steps = math.ceil(rows / max(row_block, 1))
        penalty = self._spill_penalty(row_block, cols * d, mode, backend)
        cells = float(rows) * cols * d
        step_rate = c.step_time(mode)
        cell_rate = self.cell_time(mode)
        if backend == "tensor_core":
            step_rate *= c.tc_step_factor
            cell_rate *= c.tc_cell_factor
        if mirror:
            cell_rate *= MIRROR_CELL_FACTOR
        return (
            c.tile_overhead
            + steps * step_rate
            + cells * cell_rate * penalty
        )

    def precalc_time(
        self, n_r_seg: int, n_q_seg: int, d: int, m: int, mode, strategy: str
    ) -> float:
        """Predicted host seconds of the amortised seed-QT evaluation.

        ``"exact"`` streams a length-``m`` dot per segment-dimension;
        ``"fft"`` replaces it with an O(n log n) convolution whose
        vectorised constant is ~4x the streaming path's per-element one —
        it wins once ``m`` outgrows ``4 * log2(n)``.
        """
        rate = self.cell_time(mode)
        elems = float(n_r_seg + n_q_seg) * d
        if strategy == "fft":
            n = max(n_q_seg + m - 1, 2)
            return elems * math.log2(n) * rate * 4.0
        return elems * m * rate

    def job_time(
        self,
        tiles,
        d: int,
        m: int,
        mode,
        row_block: int,
        workers: int,
        precalc_strategy: str = "exact",
        n_r_seg: int | None = None,
        n_q_seg: int | None = None,
        backend: str = "numeric",
        symmetric: bool = False,
    ) -> float:
        """Predicted host wall seconds for a whole tiled job.

        ``tiles`` is an iterable of ``(rows, cols)`` tile geometries,
        ``(rows, cols, count)`` weighted geometries, or ``(rows, cols,
        count, mirror)`` — a near-square grid has at most four distinct
        geometries however many tiles it holds, so weighting keeps
        pricing O(1) in the tile count; ``mirror`` marks the
        upper-triangular tiles of a symmetric layout.  Parallel workers
        scale the serial tile time by the calibrated thread-pool
        efficiency, floored at the longest single tile (critical path),
        plus a per-worker spawn cost.  The result is scaled by the
        candidate's online correction factor when one has been observed
        (see :meth:`correct`); ``symmetric`` keys that correction, so
        triangular and full-grid points learn independently.
        """
        times = [
            (self.tile_time(t[0], t[1], d, mode, row_block, backend=backend,
                            mirror=bool(t[3]) if len(t) > 3 else False),
             t[2] if len(t) > 2 else 1)
            for t in tiles
        ]
        if not times:
            return 0.0
        serial = sum(time * count for time, count in times)
        if n_r_seg is not None and n_q_seg is not None:
            serial += self.precalc_time(
                n_r_seg, n_q_seg, d, m, mode, precalc_strategy
            )
        factor = self.correction(
            mode, row_block, workers, precalc_strategy, backend, symmetric
        )
        if workers <= 1:
            return serial * factor
        c = self.calibration
        concurrent = serial / (1.0 + c.parallel_efficiency * (workers - 1))
        longest = max(time for time, _ in times)
        return (
            max(concurrent, longest) + workers * c.worker_overhead
        ) * factor

    # ------------------------------------------------------------------
    # Online per-candidate correction

    @staticmethod
    def _correction_key(
        mode, row_block: int, workers: int, precalc_strategy: str, backend: str,
        symmetric: bool = False,
    ) -> tuple:
        return (
            getattr(mode, "value", str(mode)),
            int(row_block),
            int(workers),
            precalc_strategy,
            backend,
            bool(symmetric),
        )

    def correction(
        self, mode, row_block: int, workers: int, precalc_strategy: str,
        backend: str = "numeric", symmetric: bool = False,
    ) -> float:
        """The learned measured/predicted ratio for one candidate point
        (1.0 until :meth:`correct` has observed it)."""
        return self._corrections.get(
            self._correction_key(
                mode, row_block, workers, precalc_strategy, backend, symmetric
            ),
            1.0,
        )

    def correct(
        self,
        mode,
        row_block: int,
        workers: int,
        precalc_strategy: str,
        backend: str,
        predicted: float,
        measured: float,
        symmetric: bool = False,
    ) -> float:
        """Fold one measured candidate execution into the correction EMA.

        ``predicted`` must be the *uncorrected-at-the-time* prediction the
        candidate ranked with (``Candidate.predicted_seconds``); the new
        factor is the EMA of ``measured / (predicted / old_factor)`` so
        repeated observations converge on the true ratio instead of
        compounding.  Returns the updated factor.
        """
        if predicted <= 0.0 or measured <= 0.0 or not math.isfinite(measured):
            return self.correction(
                mode, row_block, workers, precalc_strategy, backend, symmetric
            )
        key = self._correction_key(
            mode, row_block, workers, precalc_strategy, backend, symmetric
        )
        old = self._corrections.get(key, 1.0)
        # predicted already carries old — divide it back out before
        # forming the raw model ratio.
        ratio = measured * old / predicted
        a = self.CORRECTION_ALPHA
        new = ratio if key not in self._corrections else (1 - a) * old + a * ratio
        self._corrections[key] = new
        return new


# ---------------------------------------------------------------------------
# Device-side roofline reporting


def roofline_breakdown(
    n_r_seg: int,
    n_q_seg: int,
    d: int,
    m: int,
    mode,
    device: "DeviceSpec | str",
) -> dict[str, dict]:
    """Per-kernel roofline position on the modelled device.

    Returns ``{kernel: {"busy": s, "bound": name, "intensity": flop/byte,
    "ridge": flop/byte}}`` — ``bound`` is the term winning the
    ``max(dram, l2, l1, flops)`` race inside
    :func:`~repro.gpu.perfmodel.kernel_time`, ``ridge`` the device's
    DRAM ridge point at this dtype (kernels left of it are memory-bound,
    as Section V-C observes all four are).
    """
    device = get_device(device)
    policy = policy_for(mode)
    launch = LaunchConfig.tuned_for(device)
    costs = single_tile_costs(
        n_r_seg,
        n_q_seg,
        d,
        m,
        policy.itemsize,
        launch,
        precalc_itemsize=policy.precalc.itemsize,
        compensated=policy.compensated,
    )
    scale = cal.device_scale(device.name)
    out: dict[str, dict] = {}
    for name, cost in costs.items():
        itemsize = (
            policy.precalc.itemsize if name == "precalculation" else policy.itemsize
        )
        eff_dram = cal.dram_efficiency(name, itemsize) * device.mem_bandwidth * scale
        terms = {
            "dram": cost.bytes_dram / eff_dram,
            "l2": cost.bytes_l2
            / (cal.L2_EFFICIENCY * device.l2_bandwidth * scale),
            "l1": cost.bytes_l1
            / (cal.l1_efficiency(itemsize) * device.l1_bandwidth * scale)
            if cost.bytes_l1
            else 0.0,
            "flops": cost.flops
            / (cal.SM_EFFICIENCY * device.peak_flops(itemsize)),
        }
        bound = max(terms, key=terms.get)
        traffic = max(cost.bytes_dram, 1.0)
        out[name] = {
            "busy": terms[bound],
            "bound": bound,
            "intensity": cost.flops / traffic,
            "ridge": device.peak_flops(itemsize) / device.mem_bandwidth,
        }
    return out


def modeled_device_seconds(
    n_r_seg: int, n_q_seg: int, d: int, m: int, mode, device
) -> float:
    """Total modelled busy seconds of one tile on the simulated device."""
    policy = policy_for(mode)
    timing = single_tile_timing(
        n_r_seg,
        n_q_seg,
        d,
        m,
        device,
        policy.itemsize,
        precalc_itemsize=policy.precalc.itemsize,
        compensated=policy.compensated,
    )
    return timing.compute_total
