"""Roofline performance model for the simulated GPU kernels — the one
owner of the cost conventions.

Every kernel charge is one function here: :func:`dist_calc_cost`,
:func:`tc_dist_calc_cost`, :func:`sort_scan_cost`, :func:`update_cost`,
:func:`seed_cost` and :func:`plane_cost`.  ``run_tile`` charges an
executed tile once through them, after its main loop; the per-row kernel
methods charge one row through them; and the analytic builders
(:func:`single_tile_costs`, :func:`single_tile_timing`) compose the same
functions, so paper-scale problem sizes (n=2^16 and beyond, infeasible
to execute in Python) are priced without running.
``tests/test_integration.py::TestAnalyticCostsMatchExecution`` asserts
the executed and analytic costs agree field for field.

Costs become time against a :class:`~repro.gpu.device.DeviceSpec` through
one set of :func:`roofline_terms`: ``busy = max(dram, l2, l1, flops)`` —
the paper observes all kernels are memory-bound (Section V-C), so one of
the bandwidth terms dominates — plus an ``overhead`` term (kernel-launch
gaps and coarse-grained synchronisation stalls) that occupies the issuing
*stream* but not the SMs, and therefore hides under multi-stream
concurrency.

Cost-accounting conventions (one "plane" is ``n_q_seg * d`` elements of
the storage dtype):

=================  =========================================================
kernel             per-row accounting
=================  =========================================================
dist_calc          DRAM 3 planes (QT read, QT write, D write; df/dg/norm
                   vectors are L2-resident), L2 6 planes, 8 flops/element;
                   the tensor-core loop keeps the planes but charges whole
                   16x16x16 MMAs and one launch per ``panel_rows`` panel
sort_&_incl_scan   DRAM 2 planes (D in, D'' out), L1 ``stages`` padded
                   planes, 1 flop/element/stage, ``stages`` group syncs;
                   nothing at d = 1, where it is the identity and skipped
update_mat_prof    DRAM 2 planes (D'' read, P/I write-combined), L2 5
                   planes, 2 flops/element; a mirrored tile adds one L2
                   plane, one flop/element and a second loop round
precalculation     once per tile: the seed work (inputs, seed rows, first
                   row/column QT dot products at 2*m flops per
                   segment-dim) plus the window-statistics planes
=================  =========================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import calibration as cal
from .device import DeviceSpec, get_device
from .kernel import KernelCost, LaunchConfig

__all__ = [
    "KERNEL_ORDER",
    "MMA_K",
    "KernelTiming",
    "TileTiming",
    "roofline_terms",
    "kernel_time",
    "sort_stage_count",
    "dist_calc_cost",
    "tc_dist_calc_cost",
    "sort_scan_cost",
    "update_cost",
    "seed_cost",
    "plane_cost",
    "single_tile_costs",
    "transfer_bytes",
    "tile_timing",
    "single_tile_timing",
    "workspace_bytes",
    "WORKSPACE_HALF_PLANES",
    "cpu_baseline_time",
    "transfer_time",
]

#: The paper's kernel labels, in launch order: every cost is named by one
#: and every :class:`TileTiming` lists its kernels in this order.
KERNEL_ORDER = ("precalculation", "dist_calc", "sort_&_incl_scan", "update_mat_prof")

#: Chunk height of the tensor-core prefix chain — the ``k`` (and edge) of
#: the device's 16x16x16 MMA fragment (16 on every shipping NVIDIA part).
MMA_K = 16

#: Flops of one dense 16x16x16 MMA (2*m*n*k).
_MMA_FLOPS = 2 * MMA_K * MMA_K * MMA_K


@dataclass(frozen=True)
class KernelTiming:
    """Modelled time of one (possibly aggregated) kernel invocation."""

    busy: float  # exclusive SM/memory-system occupancy
    overhead: float  # launch + sync latency, hideable under concurrency

    @property
    def total(self) -> float:
        return self.busy + self.overhead

    def __add__(self, other: "KernelTiming") -> "KernelTiming":
        return KernelTiming(self.busy + other.busy, self.overhead + other.overhead)


def roofline_terms(
    cost: KernelCost,
    device: DeviceSpec,
    itemsize: int,
    working_set: float | None = None,
) -> dict[str, float]:
    """The four roofline terms of ``cost`` on ``device`` at ``itemsize``
    bytes/element, in seconds: ``DRAM``, ``L2``, ``L1/TEX`` and ``SM``.

    ``working_set`` (bytes) enables the L2-residency bonus: when a tile's
    active planes fit in L2, DRAM-bound kernels run at (a fraction of) L2
    bandwidth instead — the effect that makes ~256 small tiles slightly
    faster than one big tile in Fig. 7.
    """
    scale = cal.device_scale(device.name)
    eff_dram = cal.dram_efficiency(cost.name, itemsize) * device.mem_bandwidth * scale
    l2_rate = cal.L2_EFFICIENCY * device.l2_bandwidth * scale
    # Graduated L2-residency bonus: as a tile's active working set shrinks
    # below L2 capacity, a growing fraction of its "DRAM" traffic is served
    # from L2.  Full bonus below L2/8 (plenty of room for concurrent
    # streams), no bonus above L2 — this is what makes many small tiles
    # slightly *faster* than one huge tile in Fig. 7.
    if working_set is not None and working_set < device.l2_capacity:
        lo = device.l2_capacity / 8.0
        frac = min(1.0, (device.l2_capacity - working_set) / (device.l2_capacity - lo))
        eff_dram = max(eff_dram, eff_dram + frac * (l2_rate - eff_dram))
    if cost.tensor_core and device.has_tensor_cores:
        # MMA-unit flops: priced against the tensor-core ceiling, the
        # 4-8x higher roofline the FP16-multiply/FP32-accumulate panels
        # execute on (the vector pipes sit idle during the GEMM chain).
        flop_rate = cal.TC_EFFICIENCY * device.peak_flops_tc
    else:
        flop_rate = cal.SM_EFFICIENCY * device.peak_flops(itemsize)
    return {
        "DRAM": cost.bytes_dram / eff_dram,
        "L2": cost.bytes_l2 / l2_rate,
        "L1/TEX": cost.bytes_l1
        / (cal.l1_efficiency(itemsize) * device.l1_bandwidth * scale),
        "SM": cost.flops / flop_rate,
    }


def kernel_time(
    cost: KernelCost,
    device: DeviceSpec,
    itemsize: int,
    working_set: float | None = None,
) -> KernelTiming:
    """Roofline time for ``cost`` on ``device`` at ``itemsize`` bytes/element:
    the largest of its :func:`roofline_terms` plus launch and sync
    overhead."""
    busy = max(roofline_terms(cost, device, itemsize, working_set).values())
    overhead = (
        cost.syncs * device.sync_latency
        + cost.launches * device.kernel_launch_overhead
    )
    return KernelTiming(busy=busy, overhead=overhead)


def sort_stage_count(d: int) -> tuple[int, int]:
    """(bitonic stages, scan stages) for dimensionality ``d``.

    The bitonic network on ``p = next_pow2(d)`` elements has
    ``k(k+1)/2`` compare-exchange stages with ``k = log2(p)``; the fan-in
    inclusive scan adds ``k`` stages (Section III-A: O(log^2 d) sort and
    O(log d) scan).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    k = (d - 1).bit_length()
    return k * (k + 1) // 2, k


def _rounds(items: int, config: LaunchConfig) -> int:
    """Grid-stride loop rounds over ``items`` elements (ceil division)."""
    return -(-items // config.total_threads)


def dist_calc_cost(
    rows: int, n_q: int, d: int, itemsize: int, config: LaunchConfig
) -> KernelCost:
    """``rows`` vector ``dist_calc`` launches over ``(d, n_q)`` planes:
    3 DRAM and 6 L2 planes, 8 flops per element, one launch per row."""
    elems = float(d * n_q)
    return KernelCost(
        name="dist_calc",
        bytes_dram=rows * 3.0 * elems * itemsize,
        bytes_l2=rows * 6.0 * elems * itemsize,
        flops=rows * 8.0 * elems,
        launches=rows,
        loop_rounds=rows * _rounds(d * n_q, config),
    )


def tc_dist_calc_cost(
    rows: int, n_q: int, d: int, itemsize: int, config: LaunchConfig,
    panel_rows: int,
) -> KernelCost:
    """The tensor-core main loop over ``rows`` rows in panels of
    ``panel_rows``: ``rows // panel_rows`` full panels plus the remainder.

    The DRAM/L2 planes are the vector loop's (the operand streams and
    the distance write are unchanged, still priced at the FP16 storage
    width); what moves is the arithmetic — whole 16x16x16 MMAs, priced
    on the tensor-core unit via the cost's ``tensor_core`` flag — and
    the launch count, one per panel.  The flops of a panel are not
    linear in its height, so each panel height is charged on its own.
    """
    elems = d * n_q
    flops = 0.0
    syncs = launches = loop_rounds = 0
    full, rest = divmod(rows, panel_rows)
    for height, count in ((panel_rows, full), (rest, 1 if rest else 0)):
        chunks = -(-height // MMA_K)
        mmas_update = chunks * -(-n_q // MMA_K)  # k=2 rank-2 update
        mmas_scan = chunks * (
            -(-max(n_q - 1, 1) // MMA_K) + chunks  # main + corner chains
        )
        flops += count * (float(d) * (
            mmas_update * (2.0 * MMA_K * MMA_K * 2) + mmas_scan * float(_MMA_FLOPS)
        ))
        syncs += count * chunks
        launches += count
        loop_rounds += count * _rounds(height * elems, config)
    return KernelCost(
        name="dist_calc",
        bytes_dram=rows * 3.0 * float(elems) * itemsize,
        bytes_l2=rows * 6.0 * float(elems) * itemsize,
        flops=flops,
        syncs=syncs,
        launches=launches,
        loop_rounds=loop_rounds,
        tensor_core=True,
    )


def sort_scan_cost(
    rows: int, n_q: int, d: int, itemsize: int, config: LaunchConfig
) -> KernelCost:
    """``rows`` cooperative sort/scan launches over ``(d, n_q)`` planes:
    2 DRAM and 2 L2 planes, and per network stage — the bitonic sort's
    passes plus the fan-in scan's — one L1 pass over the padded plane,
    one flop per padded element and one group synchronisation.  Nothing
    at d = 1: the sort/scan of one value is the identity, and the main
    loop skips it."""
    if d == 1:
        return KernelCost(name="sort_&_incl_scan", launches=0)
    p = 1 << (d - 1).bit_length()
    stages = sum(sort_stage_count(d))
    elems = float(d * n_q)
    return KernelCost(
        name="sort_&_incl_scan",
        bytes_dram=rows * 2.0 * elems * itemsize,
        bytes_l2=rows * 2.0 * elems * itemsize,
        bytes_l1=float(rows * stages * n_q * p * itemsize),
        flops=float(rows * stages * n_q * p),
        syncs=rows * stages,
        launches=rows,
        loop_rounds=rows * _rounds(n_q * p, config),
    )


def update_cost(
    rows: int, n_q: int, d: int, itemsize: int, config: LaunchConfig,
    mirror: bool = False,
) -> KernelCost:
    """``rows`` update launches over ``(d, n_q)`` planes: 2 DRAM and 5 L2
    planes, 2 flops per element.  A mirrored tile's row-wise reduce
    re-reads the plane from L2 and adds one compare per element and a
    second loop round; it stores only one winner per row, so DRAM
    traffic barely moves."""
    elems = float(d * n_q)
    return KernelCost(
        name="update_mat_prof",
        bytes_dram=rows * 2.0 * elems * itemsize,
        bytes_l2=rows * (6.0 if mirror else 5.0) * elems * itemsize,
        flops=rows * (3.0 if mirror else 2.0) * elems,
        launches=rows,
        loop_rounds=rows * _rounds(d * n_q, config) * (2 if mirror else 1),
    )


def seed_cost(
    n_r_seg: int, n_q_seg: int, d: int, m: int, itemsize: int,
    config: LaunchConfig, compensated: bool = False,
) -> KernelCost:
    """One tile's seed-dot work, the per-tile part of precalculation, at
    the precalc ``itemsize``: reading both device series, the two
    length-m centred dot products (2m flops per output element, 4x under
    Kahan compensation; L2-resident operands) and writing the seed rows.
    One launch; grid-stride rounds over the tile's precalc elements."""
    pre = (n_r_seg + n_q_seg) * d
    flops = 2.0 * m * pre
    if compensated:
        flops *= 4.0
    return KernelCost(
        name="precalculation",
        bytes_dram=float((n_r_seg + n_q_seg + 2 * (m - 1)) * d) * itemsize
        + float(pre) * itemsize,
        bytes_l2=2.0 * m * pre * itemsize,
        flops=flops,
        launches=1,
        loop_rounds=_rounds(pre, config),
    )


def plane_cost(
    n_r_seg: int, n_q_seg: int, d: int, itemsize: int, compensated: bool = False
) -> KernelCost:
    """The window-statistics planes (mu/inv/df/dg) of a segment range, the
    amortisable part of precalculation: 8 flops (4x under Kahan
    compensation) and 8 elements written per precalc element, folded
    into the seed launch, so no launch or loop rounds of its own.
    ``seed_cost + plane_cost`` over a tile's own segments is the per-tile
    precalculation."""
    pre = float((n_r_seg + n_q_seg) * d)
    flops = 8.0 * pre
    if compensated:
        flops *= 4.0
    return KernelCost(
        name="precalculation", bytes_dram=8.0 * pre * itemsize, flops=flops,
        launches=0,
    )


def single_tile_costs(
    n_r_seg: int,
    n_q_seg: int,
    d: int,
    m: int,
    itemsize: int,
    config: LaunchConfig,
    precalc_itemsize: int | None = None,
    compensated: bool = False,
) -> dict[str, KernelCost]:
    """Analytic aggregate kernel costs of one full single-tile run of the
    vector main loop: the tile's full precalculation, then the main-loop
    charges ``run_tile`` makes (no mirror term)."""
    if min(n_r_seg, n_q_seg, d, m) < 1:
        raise ValueError("n_r_seg, n_q_seg, d and m must all be >= 1")
    precalc_itemsize = precalc_itemsize or itemsize
    costs = (
        seed_cost(n_r_seg, n_q_seg, d, m, precalc_itemsize, config, compensated)
        + plane_cost(n_r_seg, n_q_seg, d, precalc_itemsize, compensated),
        dist_calc_cost(n_r_seg, n_q_seg, d, itemsize, config),
        sort_scan_cost(n_r_seg, n_q_seg, d, itemsize, config),
        update_cost(n_r_seg, n_q_seg, d, itemsize, config),
    )
    return {c.name: c for c in costs}


@dataclass
class TileTiming:
    """Modelled timing of one tile: per-kernel timings plus transfer bytes."""

    kernels: dict[str, KernelTiming] = field(default_factory=dict)
    h2d_bytes: float = 0.0
    d2h_bytes: float = 0.0

    @property
    def compute_busy(self) -> float:
        return sum(t.busy for t in self.kernels.values())

    @property
    def compute_overhead(self) -> float:
        return sum(t.overhead for t in self.kernels.values())

    @property
    def compute_total(self) -> float:
        return self.compute_busy + self.compute_overhead


def transfer_bytes(
    n_r_seg: int, n_q_seg: int, d: int, m: int, itemsize: int,
    mirror: bool = False, index_itemsize: int = 8,
) -> tuple[float, float]:
    """``(h2d, d2h)`` bytes of one tile: both input slices up, the P/I
    planes down — a mirrored tile's second, row-indexed pair riding the
    same download."""
    h2d = float((n_r_seg + n_q_seg + 2 * (m - 1)) * d * itemsize)
    d2h = float(n_q_seg * d * (itemsize + index_itemsize))
    if mirror:
        d2h += float(n_r_seg * d * (itemsize + index_itemsize))
    return h2d, d2h


def tile_timing(
    costs: dict[str, KernelCost],
    device: DeviceSpec,
    d: int,
    n_q_seg: int,
    itemsize: int,
    precalc_itemsize: int,
    h2d_bytes: float,
    d2h_bytes: float,
    memo: dict | None = None,
) -> TileTiming:
    """One tile's ``costs`` as a :class:`TileTiming`: each kernel through
    :func:`kernel_time` at its itemsize (the precalc one for
    precalculation), with the tile's ``6 * n_q_seg * d`` element working
    set for the L2-residency bonus.

    ``memo`` maps ``(id(cost), id(device))`` to the cost's timing across
    the same-shape tiles of one stack, which share their main-loop cost
    objects (and so their working set): each distinct cost goes through
    the roofline once.  The caller keeps the costs alive while the memo
    is in use."""
    working_set = 6.0 * n_q_seg * d * itemsize
    timing = TileTiming(h2d_bytes=h2d_bytes, d2h_bytes=d2h_bytes)
    for name in KERNEL_ORDER:
        cost = costs[name]
        key = (id(cost), id(device))
        kt = None if memo is None else memo.get(key)
        if kt is None:
            size = precalc_itemsize if name == "precalculation" else itemsize
            kt = kernel_time(cost, device, size, working_set=working_set)
            if memo is not None:
                memo[key] = kt
        timing.kernels[name] = kt
    return timing


def single_tile_timing(
    n_r_seg: int,
    n_q_seg: int,
    d: int,
    m: int,
    device: "DeviceSpec | str",
    itemsize: int,
    config: LaunchConfig | None = None,
    precalc_itemsize: int | None = None,
    compensated: bool = False,
    index_itemsize: int = 8,
) -> TileTiming:
    """Full analytic timing of a single tile (Pseudocode 1) at any scale."""
    device = get_device(device)
    config = config or LaunchConfig.tuned_for(device)
    precalc_itemsize = precalc_itemsize or itemsize
    costs = single_tile_costs(
        n_r_seg, n_q_seg, d, m, itemsize, config,
        precalc_itemsize=precalc_itemsize, compensated=compensated,
    )
    return tile_timing(
        costs, device, d, n_q_seg, itemsize, precalc_itemsize,
        *transfer_bytes(n_r_seg, n_q_seg, d, m, itemsize,
                        index_itemsize=index_itemsize),
    )


#: Workspace row planes the main loop keeps live, priced in half-plane
#: units (each plane is double-buffered in row halves by the streaming
#: recurrence).  The vector path streams 4 — the QT and D planes, each
#: double-buffered — while the tensor-core panel kernel holds ~3: its
#: FP32 pad/accumulate/scan fragments cover 16-row MMA chunks rather
#: than full row planes, so the capacity model must not charge it the
#: vector path's footprint (it over-splits on OOM otherwise).
WORKSPACE_HALF_PLANES = {"vector": 4, "tensor_core": 3}


def workspace_bytes(
    n_r_seg: int,
    n_q_seg: int,
    d: int,
    itemsize: int,
    main_loop: str = "vector",
    mirror: bool = False,
) -> int:
    """Device footprint of a tile's intermediates beyond the raw inputs:
    the eight precalculated vectors, the main loop's workspace planes
    (backend-dependent — see :data:`WORKSPACE_HALF_PLANES`), and the
    running P/I output planes (int64 indices).  ``mirror`` adds the
    second, row-indexed P/I pair a symmetric self-join tile writes."""
    s = itemsize
    precalc = (4 * n_r_seg + 4 * n_q_seg) * d * s
    half_planes = WORKSPACE_HALF_PLANES.get(main_loop, 4)
    planes = half_planes * n_q_seg * d * s // 2
    outputs = n_q_seg * d * (s + 8)
    if mirror:
        outputs += n_r_seg * d * (s + 8)
    return int(precalc + planes + outputs)


def transfer_time(nbytes: float, device: DeviceSpec) -> float:
    """Host<->device copy time over the PCIe link."""
    if device.pcie_bandwidth <= 0:
        return 0.0
    return nbytes / device.pcie_bandwidth


def cpu_baseline_time(n_r_seg: int, n_q_seg: int, d: int) -> float:
    """Modelled (MP)^N runtime on the 16-core Skylake baseline (Fig. 6).

    ``t = n_r * n_q * d * c * (1 + 0.35 * log2(d))`` — quadratic in the
    number of segments, linear in dimensionality with a logarithmic sort
    factor, independent of m; exactly the complexity behaviour Fig. 6
    reports for the reference code.
    """
    log_d = math.log2(max(d, 2))
    return (
        float(n_r_seg)
        * float(n_q_seg)
        * d
        * cal.CPU_CELL_TIME
        * (1.0 + cal.CPU_SORT_FACTOR * log_d)
    )
