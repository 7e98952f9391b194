"""Tile backends: how one tile actually gets executed.

The dispatcher (:mod:`repro.engine.dispatch`) is backend-agnostic: it
hands a :class:`~repro.engine.plan.ExecutionPlan` tile to a
:class:`TileBackend` and gets back a :class:`TileExecution` carrying the
modelled :class:`~repro.gpu.perfmodel.TileTiming` and (for numeric
backends) the tile's :class:`TileOutput`.  Two backends exist:

* :class:`NumericBackend` — Pseudocode 1 for real: check each tile's
  device footprint (row and column slices plus the workspace) against
  its GPU in one allocator call, then gather the slices and run the four
  kernels via :func:`run_tile`.  For self-join *diagonal* tiles
  (identical row/col sample ranges on a shared layout) the query slice
  reuses the reference upload — one upload instead of two, counted once
  in the footprint — and the saved H2D bytes are recorded on the
  execution.
* :class:`AnalyticBackend` — no data at all: per-tile timings from the
  roofline cost model (:func:`~repro.gpu.perfmodel.single_tile_timing`),
  enabling paper-scale projections (n = 2^16 and beyond) and the
  multi-node deployment model.

Tile batches.  :meth:`NumericBackend.run` also takes a *stack* of
same-shape tiles — the dispatcher groups queued tiles by ``(n_rows,
n_cols, mirror, execution mode)`` — and :func:`run_tile` runs them as
one main loop over a leading tile axis: one Eq. (1) recurrence over the
stacked ``d * T`` dimension rows, one sort/scan over the stacked panel
and one update reducing each tile on its own, every tile with its own
precalc restart, seeds, offsets and exclusion mask.  Outputs are
bit-identical to one-tile calls, and costs stay per logical tile (the
dist_calc, sort/scan and update costs of same-shape tiles are equal, so
they are charged once and shared), so the modelled clock does not
move; the roofline converts each distinct cost to a timing once per
stack.  A stack is sized by its scratch, not its row width:
:meth:`NumericBackend.stack_limit` stacks tiles up to a ``T * d *
width`` row plane of ``SUPER_STEP_ELEMENTS / 32`` elements — one rule
for both main loops — and :func:`super_step_rows` gives a vector-path
stack a super-step block no larger than the one a tile of it uses
alone, or ``SUPER_STEP_ELEMENTS / 8`` elements if that is larger — so
the stack takes more, shorter steps instead of holding more scratch
(the tensor-core loop keeps its fixed ``TC_PANEL_ROWS`` panels).  A
tile whose row plane is already that wide runs as a batch of one.  The
stack's precalculation is prepared in one plane-cache call, then each
tile's device footprint is reserved and released on its own GPU in
batch order before the stacked numerics run, so out-of-memory decisions
are those of tiles dispatched one at a time.
A single tile is a batch of one; there is no second path.

Staging.  A tile's footprint is its row slice, its column slice (not
for a diagonal tile, which shares the row upload) and its workspace
(:func:`workspace_bytes`), taken in that order and released together.
One :meth:`~repro.gpu.memory.DeviceMemory.reserve_transient` call under
one lock acquisition checks the three cumulative sums against the
capacity and raises the high-water mark, with no device array, copy or
handle: the slices are gathered straight from the plan layouts into
the stacks :func:`run_tile` reads.  Out-of-memory decisions, the
high-water mark and a staged
:class:`~repro.gpu.memory.DeviceOutOfMemoryError` (``requested`` is the
part that did not fit) are those of uploading the slices and reserving
the workspace one by one; that staging lives on as the test oracle in
``tests/staging_oracle.py``.

This module is also the home of the tile *primitive* itself
(:func:`run_tile`, :class:`TileOutput`, :func:`tile_timing_from_output`).
"""

from __future__ import annotations

import math
import threading
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Protocol, runtime_checkable

import numpy as np

from ..gpu.kernel import KernelCost, LaunchConfig
from ..gpu.memory import DeviceOutOfMemoryError
from ..gpu.perfmodel import (
    KERNEL_ORDER,
    TileTiming,
    dist_calc_cost,
    single_tile_timing,
    sort_scan_cost,
    tc_dist_calc_cost,
    tile_timing,
    transfer_bytes,
    update_cost,
    workspace_bytes,
)
from ..gpu.simulator import SimulatedGPU
from ..kernels.dist_calc import DistCalcKernel
from ..kernels.precalc import PreparedPrecalc
from ..kernels.sort_scan import SortScanKernel
from ..kernels.tc_gemm import TC_PANEL_ROWS, TcGemmKernel
from ..kernels.update import INDEX_DTYPE, UpdateKernel
from ..kernels.workspace import WorkspacePool
from ..precision.modes import TENSOR_CORE_MODES, PrecisionMode, PrecisionPolicy
from .plan import ExecutionPlan, Tile

__all__ = [
    "TileOutput",
    "TileExecution",
    "TileBackend",
    "NumericBackend",
    "TensorCoreBackend",
    "AnalyticBackend",
    "WorkspacePool",
    "backend_for",
    "run_tile",
    "tile_timing_from_output",
    "workspace_bytes",
    "KERNEL_ORDER",
    "SUPER_STEP_ELEMENTS",
    "super_step_rows",
]

#: Elements of one main-loop super-step, ``planes * block * width``:
#: :func:`super_step_rows` sizes every vector-path block from it, and
#: the tile stacks derive from it too.  Measured on a shared 2-core x86
#: host, one and two threads: 512-wide, d = 8 tiles run fastest at 32
#: rows (this budget) and 1.2-1.5x slower at 128, while 384-wide, d = 3
#: tiles run 3-11% faster at 64-128 rows than at 32 — the element count
#: of a step decides, not its row count.
#:
#: Stacks.  :meth:`NumericBackend.stack_limit` stacks same-shape tiles
#: up to a row plane ``T * d * width`` of ``SUPER_STEP_ELEMENTS // 32``
#: (4096) elements, and a stack's block is at most the larger of the
#: block one of its tiles uses alone and ``SUPER_STEP_ELEMENTS // 8``
#: (2^14) elements.  Scratch is leased per block, so peak memory follows
#: the block, not the stack width.  Measured on a shared 2-core x86 host
#: (``benchmarks/e2e``, 15 s runs, 10 alternating pairs): 38/39-wide,
#: d = 2 tiles stack 52-53 deep instead of 6, and ``batch_tiles``
#: (100-tile jobs) rose 17.8 -> 24.3 ops/s with peak RSS 67.6 -> 66.7 MB;
#: the 4-tile ``service_mixed`` jobs (531-element row planes) now stack
#: too, 60.7 -> 77.4 ops/s.  A 4096-element plane with stacks keeping
#: the full block budget raised ``batch_tiles`` peak RSS 10%, and a
#: fixed 2^14 block for every stack slowed ``service_mixed`` 15%: its
#: single tiles run best at full blocks.
SUPER_STEP_ELEMENTS = 1 << 17


def super_step_rows(steps: int, width: int, planes: int, tiles: int = 1) -> int:
    """Rows (columns, when transposed) per main-loop super-step of a
    stack of ``tiles`` tiles of ``planes = d`` dimension rows each.

    A single tile takes as many rows as keep its ``(planes, block,
    width)`` block within :data:`SUPER_STEP_ELEMENTS`, at least one and
    at most the ``steps`` the loop takes.  A stack spends at most the
    larger of that block's elements and ``SUPER_STEP_ELEMENTS // 8`` on
    its ``(planes * tiles, block, width)`` block — the same, short rows
    for a wide stack instead of more scratch — and at least one row."""
    alone = max(1, min(steps, SUPER_STEP_ELEMENTS // (planes * width)))
    if tiles == 1:
        return alone
    budget = max(alone * planes * width, SUPER_STEP_ELEMENTS // 8)
    return max(1, min(steps, budget // (planes * tiles * width)))


@lru_cache(maxsize=64)
def _cached_arange(n: int) -> np.ndarray:
    """Read-only ``np.arange(n)``, cached per length — the exclusion-zone
    column-index vector is the same for every row and every tile of a
    given width, so it is built once instead of per ``run_tile`` call."""
    idx = np.arange(n)
    idx.setflags(write=False)
    return idx


@dataclass
class TileOutput:
    """Numerical output + hardware costs of one executed tile."""

    profile: np.ndarray  # (d, n_q_seg), storage dtype, dimension-wise layout
    indices: np.ndarray  # (d, n_q_seg), int64, *global* reference positions
    costs: dict[str, KernelCost] = field(default_factory=dict)
    h2d_bytes: float = 0.0
    d2h_bytes: float = 0.0
    #: Mirrored contribution of a symmetric self-join tile (row-wise
    #: reduce of the same distance panels, indexed by tile-local row;
    #: indices are global *column* positions).  ``None`` unless the tile
    #: ran with ``mirror=True``.
    mirror_profile: np.ndarray | None = None
    mirror_indices: np.ndarray | None = None


def _exclusion_mask(across, along, zone, near, far):
    """The ``(T, rows, width)`` exclusion mask ``|across - along| <=
    zone`` of one super-step, written into prefixes of the flat bool
    buffers ``near`` and ``far``; ``None`` when no entry of the step is
    excluded (every tile's rows are more than ``zone`` from its
    columns), so the update skips the masking pass."""
    lo, hi = along[:, :1] - zone, along[:, -1:] + zone  # (T, 1)
    if not ((across[:, -1:] >= lo) & (across[:, :1] <= hi)).any():
        return None
    shape = (*along.shape, across.shape[1])
    size = math.prod(shape)
    mask, below = near[:size].reshape(shape), far[:size].reshape(shape)
    np.less_equal(across[:, None, :], (along + zone)[:, :, None], out=mask)
    np.greater_equal(across[:, None, :], (along - zone)[:, :, None], out=below)
    mask &= below
    return mask


def _runs_transposed(
    n_r_seg: int, n_q_seg: int, tensor_core: bool, mirror: bool
) -> bool:
    """The main loop's orientation rule: a tall tile (``n_q < n_r``) runs
    along its short side — super-steps over query columns, each panel
    reduced row-wise.  The shape alone decides; the output is
    bit-identical either way.  Mirrored tiles keep the row-major panels
    their second, row-wise reduce needs, and the panel kernel is
    row-major by design."""
    return not (tensor_core or mirror) and n_q_seg < n_r_seg


def run_tile(
    tr_dev: np.ndarray,
    tq_dev: np.ndarray,
    m: int,
    policy: PrecisionPolicy,
    launch: LaunchConfig,
    *,
    precalc: PreparedPrecalc,
    row_offset=0,
    col_offset=0,
    exclusion_zone: int | None = None,
    workspace: "WorkspacePool | None" = None,
    main_loop: str = "vector",
    mirror: bool = False,
) -> "TileOutput | list[TileOutput]":
    """Execute the kernels of one tile: the numerics, then one charge.

    ``tr_dev``/``tq_dev`` are (d, len) device-layout arrays in the storage
    dtype.  ``row_offset``/``col_offset`` locate the tile inside the global
    distance matrix (indices recorded in the output are global).
    ``exclusion_zone`` (for self-joins) suppresses matches with
    ``|global_row - global_col| <= zone``.  The sort/scan is the
    cooperative bitonic kernel, skipped at d == 1, where it is the
    identity.

    The main loop runs in super-steps of ``B`` reference rows, ``B``
    from :func:`super_step_rows` (one element budget for every tile
    shape, a smaller one per row for a stack): ``dist_calc`` fills the row-major ``(B, d, n_q)``
    QT workspace it owns (sequential recurrence, every row one
    contiguous plane) and converts the block in place into one
    ``(d, B, n_q)`` distance buffer; the column-independent sort/scan
    runs in place on that buffer as one ``(d, B*n_q)`` plane, and the
    update masks it in place and reduces the block before one merge
    into the running profile.  The output is bit-for-bit identical for
    every block size, and the kernels are pure numerics: after the loop
    the tile is charged once, for the logical row-major tile, through
    the cost functions of :mod:`repro.gpu.perfmodel`, so no cost can
    depend on the block size or orientation.  The per-row kernel
    methods are the test oracle only.  A tall tile —
    ``n_q_seg < n_r_seg`` — runs the same loop transposed: super-steps
    of ``B`` query columns against every reference row, each panel
    reduced row-wise, with the precalc roles
    swapped (:meth:`~repro.kernels.precalc.PrecalcResult.transposed`)
    and the rounded operations kept in row-major order, so the output is
    again bit-identical.

    ``workspace`` is the worker's :class:`WorkspacePool`, reused across
    calls (a private one when omitted).  Every block-sized buffer of
    either main loop is leased from it: the QT workspace and the distance
    buffer (:meth:`DistCalcKernel.lease`) or the tensor-core panel
    buffers (:meth:`TcGemmKernel.lease`) and the fused scan's output
    (here), the product buffers and the half path's temporaries
    (``dist_calc``) or the operand quantiser's (``tc_gemm``), the scan's
    stage temporary (``sort_scan``), the two exclusion-mask buffers
    (here) and the argmin's transposed keys (``update``).  Block buffers
    are 0.5-1 MB, above glibc's mmap threshold, so allocated fresh they
    would be mapped and page-faulted every super-step; leased, a worker
    allocates nothing per super-step or per tile once it has run its
    largest shape.

    **Tile axis.**  ``tr_dev``/``tq_dev`` may also be ``(T, d, len)``
    stacks of ``T`` same-shape tiles, with ``row_offset``/``col_offset``
    holding one entry per tile; the call then returns one
    :class:`TileOutput` per tile, in order.  The stack runs as one main
    loop over ``d * T`` dimension rows (the stacked
    :class:`~repro.kernels.precalc.PrecalcResult` layout): one Eq. (1)
    recurrence per super-step, one sort/scan over the stacked panel and
    one update that reduces every tile on its own.  Each tile keeps its
    own precalc restart, seeds, offsets and exclusion mask, so each
    output is bit-identical to running that tile alone.  The dist_calc,
    sort/scan and update costs of same-shape tiles are equal, so they
    are charged once and shared by every output; each tile keeps its
    own precalc cost.  A 2-D call is a stack of one, on either main
    loop.

    ``precalc`` is the :class:`~repro.kernels.precalc.PreparedPrecalc`
    of the whole stack, assembled by the plan's
    :class:`~repro.engine.precalc_cache.PlaneCache` (a caller outside a
    plan takes it from :meth:`~repro.engine.plan.JobSpec.
    whole_grid_precalc`): its stacked result is bound directly and its
    per-tile costs are each tile's precalculation cost.  The tile still
    needs both series resident for the main loop, so H2D accounting and
    the memory footprint count both uploads.

    ``main_loop`` selects the main-loop execution path: ``"vector"`` (the
    paper's row-blocked recurrence) or ``"tensor_core"`` (the
    packed-panel chained-GEMM kernel of :class:`~repro.kernels.tc_gemm.
    TcGemmKernel`).  The tensor-core path never transposes (its unit of
    work *is* the row-major panel), keeps the distance panel in the FP32
    accumulator through a fused sort/scan (``SortScanKernel(mma_scan=
    True)``) and reduce-then-store update, and is only valid for the
    ``TENSOR_CORE_MODES`` — callers route ineligible jobs back to
    ``"vector"`` (see :func:`backend_for`).  It is *not* bit-identical
    to the vector path: FP32 accumulation is the point.

    ``mirror=True`` (symmetric self-join tiles) additionally reduces
    every distance panel row-wise: the returned output carries a second
    ``(d, n_r_seg)`` profile/index pair — the transposed contribution of
    the lower-triangle twin this tile replaces (D(i, j) = D(j, i)), with
    indices recording global *column* positions.  The exclusion mask is
    symmetric in global coordinates, so the same lifted panel feeds both
    reduces.
    """
    single = tr_dev.ndim == 2
    if single:
        tr_dev, tq_dev = tr_dev[None], tq_dev[None]
        row_offset, col_offset = [row_offset], [col_offset]
    n_tiles, d = tr_dev.shape[:2]
    n_r_seg = tr_dev.shape[2] - m + 1
    n_q_seg = tq_dev.shape[2] - m + 1
    if n_r_seg < 1 or n_q_seg < 1:
        raise ValueError(f"m={m} leaves no segments for tile of shape "
                         f"{tr_dev.shape[1:]} x {tq_dev.shape[1:]}")
    if main_loop not in ("vector", "tensor_core"):
        raise ValueError(
            f"main_loop must be 'vector' or 'tensor_core', got {main_loop!r}"
        )
    tensor_core = main_loop == "tensor_core"
    if tensor_core and policy.mode not in TENSOR_CORE_MODES:
        eligible = ", ".join(mode.value for mode in TENSOR_CORE_MODES)
        raise ValueError(
            f"tensor-core main loop requires one of ({eligible}), got"
            f" {policy.mode.value}; route ineligible modes to the vector"
            f" path (backend_for does)"
        )

    pool = workspace if workspace is not None else WorkspacePool()
    kernel = TcGemmKernel if tensor_core else DistCalcKernel
    dist = kernel(config=launch, policy=policy, pool=pool)
    # The tensor-core path hands the sort stage the FP32 accumulator
    # panel; mma_scan consumes it without intermediate half roundings.
    sort_scan = SortScanKernel(config=launch, policy=policy, pool=pool,
                               mma_scan=tensor_core)
    update = UpdateKernel(config=launch, policy=policy, pool=pool)
    skip_sort = d == 1  # the sort/scan of one value is the identity

    pre, precalc_costs = precalc.result, precalc.costs
    row_offsets = np.asarray(row_offset, dtype=INDEX_DTYPE)
    col_offsets = np.asarray(col_offset, dtype=INDEX_DTYPE)
    transposed = _runs_transposed(n_r_seg, n_q_seg, tensor_core, mirror)
    if transposed:
        dist.bind(pre.transposed(), transposed=True)
        steps, width = n_q_seg, n_r_seg
        step_offsets, width_offsets = col_offsets, row_offsets
    else:
        dist.bind(pre)
        steps, width = n_r_seg, n_q_seg
        step_offsets, width_offsets = row_offsets, col_offsets
    update.allocate(d, n_q_seg, mirror_rows=n_r_seg if mirror else None,
                    tiles=n_tiles)

    across = _cached_arange(width) + width_offsets[:, None]  # (T, width)
    with ExitStack() as scratch:
        # The panel height is numerics-visible (FP16 store at each panel
        # boundary), so the tensor-core loop runs fixed TC_PANEL_ROWS
        # panels whatever the stack.
        if tensor_core:
            block = max(1, min(TC_PANEL_ROWS, steps))
        else:
            block = super_step_rows(steps, width, d, n_tiles)
        qt_ws = scratch.enter_context(dist.lease(block))
        if tensor_core and not skip_sort:
            # mma_scan's inclusive averages: a matmul cannot scan the
            # panel in place.
            averages = scratch.enter_context(
                pool.lease((d * n_tiles * block * width,), np.float32))
        if exclusion_zone is not None:
            near = scratch.enter_context(pool.lease((n_tiles * block * width,), bool))
            far = scratch.enter_context(pool.lease((n_tiles * block * width,), bool))
        for s0 in range(0, steps, block):
            b = min(block, steps - s0)
            dist_blk = dist.run_block(s0, b, qt_ws)
            if skip_sort:
                avg_blk = dist_blk
            else:
                # Dimension-major rows: the (d * T, b, width) block is the
                # (d, T * b * width) plane of the column-wise sort/scan,
                # which the vector path sorts and scans in place.
                plane = dist_blk.reshape(d, n_tiles * b * width)
                out = plane
                if tensor_core:
                    out = averages[: plane.size].reshape(plane.shape)
                avg_blk = sort_scan.run(plane, out=out)
            mask = None
            if exclusion_zone is not None:
                along = _cached_arange(steps)[s0 : s0 + b] + step_offsets[:, None]
                mask = _exclusion_mask(across, along, exclusion_zone, near, far)
            update.run_block(avg_blk.reshape(d, n_tiles, b, width), s0,
                             row_offset=row_offsets, mask=mask,
                             col_offset=col_offsets, transposed=transposed,
                             in_place=True)
    # One charge for the logical row-major tile, whatever the orientation,
    # block size and stack, so the modelled clock — and the service,
    # which schedules on it — sees the same tile whichever way it ran.
    # Same-shape tiles cost the same: every output shares these objects.
    size = policy.itemsize
    dist_cost = (
        tc_dist_calc_cost(n_r_seg, n_q_seg, d, size, launch, block) if tensor_core
        else dist_calc_cost(n_r_seg, n_q_seg, d, size, launch)
    )
    shared = {
        "dist_calc": dist_cost,
        "sort_&_incl_scan": sort_scan_cost(n_r_seg, n_q_seg, d, size, launch),
        "update_mat_prof": update_cost(n_r_seg, n_q_seg, d, size, launch, mirror),
    }
    h2d_bytes, d2h_bytes = transfer_bytes(
        n_r_seg, n_q_seg, d, m, size, mirror, INDEX_DTYPE.itemsize
    )
    outputs = []
    for t, precalc_cost in enumerate(precalc_costs):
        mirror_profile = mirror_indices = None
        if mirror:
            mirror_profile = np.ascontiguousarray(update.mirror_profile[:, t])
            mirror_indices = np.ascontiguousarray(update.mirror_indices[:, t])
        outputs.append(TileOutput(
            profile=np.ascontiguousarray(update.profile[:, t]),
            indices=np.ascontiguousarray(update.indices[:, t]),
            costs={"precalculation": precalc_cost, **shared},
            h2d_bytes=h2d_bytes,
            d2h_bytes=d2h_bytes,
            mirror_profile=mirror_profile,
            mirror_indices=mirror_indices,
        ))
    return outputs[0] if single else outputs


def tile_timing_from_output(
    output: TileOutput, policy: PrecisionPolicy, device, memo: dict | None = None
) -> TileTiming:
    """Convert an executed tile's recorded costs to modelled timings
    (:func:`~repro.gpu.perfmodel.tile_timing`, ``memo`` included)."""
    d, n_q_seg = output.profile.shape
    return tile_timing(
        output.costs, device, d, n_q_seg, policy.itemsize,
        policy.precalc.itemsize, output.h2d_bytes, output.d2h_bytes, memo,
    )


@dataclass
class TileExecution:
    """One tile's run as seen by the dispatcher and accumulator."""

    tile: Tile
    timing: TileTiming
    output: TileOutput | None = None  # None for analytic backends
    gpu_id: int = -1  # filled in by the dispatcher
    h2d_saved_bytes: float = 0.0  # diagonal-tile shared-upload savings
    mode: "PrecisionMode | None" = None  # precision the tile executed at
    precalc_saved_flops: float = 0.0  # plane work amortised away for this tile


@runtime_checkable
class TileBackend(Protocol):
    """Executes one tile of a plan on one simulated GPU.

    A backend that also defines ``stack_limit(plan, tile) -> int`` is
    handed stacked batches of same-shape tiles as sequences (see
    :meth:`NumericBackend.run`); batches of one always come as a tile.
    """

    def run(self, plan: ExecutionPlan, tile: Tile, gpu: SimulatedGPU) -> TileExecution:
        ...


class NumericBackend:
    """Real numerics: per tile one footprint check, then
    :func:`run_tile` over the batch.

    Parameters
    ----------
    lock:
        Context manager serialising allocator traffic (the service shares
        one GPU pool across worker threads; numerics stay outside it).
    discount_shared_h2d:
        When a self-join diagonal tile reuses the reference upload for
        its query slice, also subtract the second upload from the
        modelled H2D bytes.  ``compute_multi_tile`` enables this; the
        single-tile path keeps the paper's original both-series transfer
        accounting for continuity with the calibrated figures.
    """

    #: Main-loop execution path handed to :func:`run_tile`; the
    #: tensor-core subclass overrides it.
    main_loop: str = "vector"
    #: The :attr:`~repro.core.result.MatrixProfileResult.backend` it reports.
    name: str = "numeric"

    def __init__(self, lock=None, discount_shared_h2d: bool = False):
        self._lock = lock if lock is not None else nullcontext()
        self.discount_shared_h2d = discount_shared_h2d
        # Host workspace pools are per worker thread: the main loop
        # reuses its block buffers across super-steps and tiles without
        # any cross-worker contention.
        self._workspaces = threading.local()

    def ensure_serialised_allocator(self) -> None:
        """Install a real lock around allocator traffic if none was given
        (called by the dispatcher before running tiles on worker threads)."""
        if isinstance(self._lock, nullcontext):
            self._lock = threading.RLock()

    def _workspace_pool(self) -> WorkspacePool:
        pool = getattr(self._workspaces, "pool", None)
        if pool is None:
            pool = WorkspacePool()
            self._workspaces.pool = pool
        return pool

    def _main_loop(self, policy: PrecisionPolicy) -> str:
        # Per-plan eligibility: an escalated plan may have widened the
        # mode past the tensor-core formats (FP16 -> FP32 on a sick
        # tile), in which case *that* execution silently takes the
        # vector path — escalation composes without special-casing.
        if policy.mode not in TENSOR_CORE_MODES:
            return "vector"
        return self.main_loop

    def stack_limit(self, plan: ExecutionPlan, tile: Tile) -> int:
        """How many tiles shaped like ``tile`` one :meth:`run` call of
        ``plan`` stacks: as many as keep the stacked per-row plane
        ``T * d * width`` within ``SUPER_STEP_ELEMENTS // 32`` elements
        (see :data:`SUPER_STEP_ELEMENTS`), and at least one.  One rule
        for every tile, on either main loop; ``width`` is the side the
        loop runs across (the rows of a transposed tile)."""
        spec = plan.spec
        tensor_core = self._main_loop(spec.policy) == "tensor_core"
        mirror = getattr(tile, "mirror", False)
        transposed = _runs_transposed(tile.n_rows, tile.n_cols, tensor_core, mirror)
        width = tile.n_rows if transposed else tile.n_cols
        return max(1, SUPER_STEP_ELEMENTS // 32 // (spec.d * width))

    def run(self, plan: ExecutionPlan, tile, gpu):
        """Execute one tile, or a stacked batch of same-shape tiles.

        With a single :class:`Tile` and :class:`SimulatedGPU` this is a
        batch of one: it returns the :class:`TileExecution` or raises
        what stopped the tile.  With equal-length sequences of tiles
        (same shape and mirror flag, at most :meth:`stack_limit`) and
        their GPUs it returns one outcome per tile, in order: the
        tile's execution, or the :class:`DeviceOutOfMemoryError` its
        footprint check raised.

        Staging runs in this order.  One plane-cache ``prepare`` call
        assembles the whole batch's precalculation, taking any plane
        charge claims in tile order (host-side, before any device
        memory is touched).  Then every tile is staged on its own, in
        order, exactly as a one-tile call stages it: one check of its
        whole footprint on its GPU — the capacity checks and high-water
        mark of its uploads and workspace, released again before the
        next tile is staged — so a batch takes the same out-of-memory
        decisions as tiles dispatched one at a time.  The prepared rows
        of tiles that ran out of memory are dropped (their claims stay
        taken, as a one-tile call's would), and the staged tiles'
        slices are gathered into ``(T, d, len)`` stacks and run as one
        stack through :func:`run_tile`.
        """
        if isinstance(tile, Tile):
            (outcome,) = self._run_stack(plan, [tile], [gpu])
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome
        return self._run_stack(plan, list(tile), list(gpu))

    def _stage(self, plan: ExecutionPlan, tile: Tile, gpu: SimulatedGPU,
               main_loop: str) -> bool:
        """Take one tile's device footprint.

        Returns whether the tile is a self-join diagonal tile sharing one
        upload; raises :class:`DeviceOutOfMemoryError` if the footprint
        does not fit (see the module docstring)."""
        spec = plan.spec
        m = spec.m
        r0, r1 = tile.sample_range_rows(m)
        c0, c1 = tile.sample_range_cols(m)
        # Self-join diagonal tile: row and column slices are the same
        # samples of the same layout — upload once, bind twice.
        shared = plan.tq_layout is plan.tr_layout and (r0, r1) == (c0, c1)
        parts = [spec.d * (r1 - r0) * plan.tr_layout.dtype.itemsize]
        if not shared:
            parts.append(spec.d * (c1 - c0) * plan.tq_layout.dtype.itemsize)
        parts.append(workspace_bytes(
            tile.n_rows,
            tile.n_cols,
            spec.d,
            spec.policy.itemsize,
            main_loop=main_loop,
            mirror=getattr(tile, "mirror", False),
        ))
        with self._lock:
            gpu.memory.reserve_transient(parts)
        return shared

    def _run_stack(self, plan: ExecutionPlan, tiles: list, gpus: list) -> list:
        spec = plan.spec
        policy = spec.policy
        config = spec.config
        main_loop = self._main_loop(policy)
        # Amortised precalculation: assembled host-side before any device
        # allocation, so a device OOM cannot strand a half-built plane
        # cache and the (locked) plane build never holds device memory.
        prepared = plan.precalc_cache.prepare(plan, tiles)
        outcomes: list = [None] * len(tiles)
        ks, shared = [], []
        for k, (tile, gpu) in enumerate(zip(tiles, gpus)):
            try:
                shared.append(self._stage(plan, tile, gpu, main_loop))
                ks.append(k)
            except DeviceOutOfMemoryError as exc:
                outcomes[k] = exc
        if not ks:
            return outcomes
        prepared = prepared.select(ks)
        # Gather the staged tiles' slices straight into the stacks.
        first = tiles[ks[0]]
        tr = np.empty((len(ks), spec.d, first.n_rows + spec.m - 1),
                      dtype=plan.tr_layout.dtype)
        tq = np.empty((len(ks), spec.d, first.n_cols + spec.m - 1),
                      dtype=plan.tq_layout.dtype)
        for t, k in enumerate(ks):
            r0, r1 = tiles[k].sample_range_rows(spec.m)
            c0, c1 = tiles[k].sample_range_cols(spec.m)
            tr[t] = plan.tr_layout[:, r0:r1]
            tq[t] = plan.tq_layout[:, c0:c1]
        outputs = run_tile(
            tr,
            tq,
            spec.m,
            policy,
            config.launch,
            row_offset=[tiles[k].row_start for k in ks],
            col_offset=[tiles[k].col_start for k in ks],
            exclusion_zone=spec.exclusion_zone,
            workspace=self._workspace_pool(),
            precalc=prepared,
            main_loop=main_loop,
            mirror=getattr(first, "mirror", False),
        )
        timings: dict = {}
        for k, output, precalc_saved, diag in zip(ks, outputs, prepared.saved_flops, shared):
            saved = 0.0
            if diag and self.discount_shared_h2d:
                saved = float((tiles[k].n_cols + spec.m - 1) * spec.d * policy.itemsize)
                output.h2d_bytes -= saved
            outcomes[k] = TileExecution(
                tile=tiles[k],
                timing=tile_timing_from_output(output, policy, gpus[k].spec, timings),
                output=output,
                h2d_saved_bytes=saved,
                mode=policy.mode,
                precalc_saved_flops=precalc_saved,
            )
        return outcomes


class TensorCoreBackend(NumericBackend):
    """Numeric backend running the tensor-core main loop.

    Identical to :class:`NumericBackend` in allocation, upload and cost
    plumbing; only the main loop differs — :func:`run_tile` executes
    :class:`~repro.kernels.tc_gemm.TcGemmKernel` super-steps with the
    fused FP32 sort/scan/update epilogue instead of the vector
    recurrence.  Tiles whose (possibly escalated) precision mode falls
    outside ``TENSOR_CORE_MODES`` transparently run the vector path, so
    health-check escalation up the precision ladder composes unchanged.

    Use :func:`backend_for` to build one from a :class:`~repro.core.
    config.RunConfig` — it owns the eligibility routing and the recorded
    fallback reason.
    """

    main_loop = "tensor_core"
    name = "tensor_core"


def backend_for(
    config,
    *,
    lock=None,
    discount_shared_h2d: bool = False,
) -> "tuple[NumericBackend, str | None]":
    """The numeric backend a :class:`~repro.core.config.RunConfig` asks
    for, plus the fallback reason when the request cannot be honoured.

    ``config.backend == "tensor_core"`` yields a
    :class:`TensorCoreBackend` when the precision mode has a tensor-core
    formulation (``TENSOR_CORE_MODES``: FP16 storage, wide precalc) *and*
    the modelled device has tensor cores; otherwise — and for the default
    ``"numeric"`` — a plain :class:`NumericBackend` with ``reason``
    explaining the downgrade (``None`` when the request was honoured).
    Callers surface the reason on
    :attr:`~repro.core.result.MatrixProfileResult.backend_fallback_reason`.
    """
    kwargs = dict(lock=lock, discount_shared_h2d=discount_shared_h2d)
    requested = getattr(config, "backend", "numeric")
    if requested != "tensor_core":
        return NumericBackend(**kwargs), None
    mode = config.policy.mode
    if mode not in TENSOR_CORE_MODES:
        eligible = ", ".join(m.value for m in TENSOR_CORE_MODES)
        return NumericBackend(**kwargs), (
            f"mode {mode.value} has no tensor-core formulation"
            f" (eligible: {eligible})"
        )
    if not getattr(config.device, "has_tensor_cores", False):
        return NumericBackend(**kwargs), (
            f"device {config.device.name} has no tensor cores"
        )
    return TensorCoreBackend(**kwargs), None


class AnalyticBackend:
    """Roofline-model timings only — no data touched.

    Serves ``model_multi_tile`` and the multi-node deployment model: the
    tile's dimensions and the precision policy fully determine the
    modelled cost, so paper-scale problems plan in microseconds.
    """

    name = "numeric"  # it prices the vector loop

    def run(self, plan: ExecutionPlan, tile: Tile, gpu: SimulatedGPU) -> TileExecution:
        spec = plan.spec
        policy = spec.policy
        timing = single_tile_timing(
            tile.n_rows,
            tile.n_cols,
            spec.d,
            spec.m,
            gpu.spec,
            policy.itemsize,
            config=spec.config.launch,
            precalc_itemsize=policy.precalc.itemsize,
            compensated=policy.compensated,
        )
        return TileExecution(tile=tile, timing=timing, mode=policy.mode)
