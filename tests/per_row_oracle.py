"""Per-row reference execution — the test oracle of the row-blocked main loop.

Every caller under ``src/`` runs Pseudocode 1 through one row-blocked
loop (:func:`repro.engine.backends.run_tile` and the block kernels).
This module chains the per-row kernel methods the way the pseudocode
reads — the tile's prepared precalc, then for every reference row
``DistCalcKernel.run(i)``, the stage-by-stage :func:`bitonic_sort`
(defined here) / ``fanin_inclusive_scan`` networks (skipped at d = 1)
and ``UpdateKernel.run`` / ``masked_run`` — and charges every kernel per
row.  ``per_row_tile(..., sort_strategy="batch")`` swaps in the
rejected batch sort (``tests/sort_scan_batch.py``), the design
ablation of ``benchmarks/bench_ablation_design.py``.  None of it goes through the blocked loop, so the
suites compare the blocked loop (any block size, either orientation)
against it bit for bit: profile, index, mirror outputs and every kernel
cost.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache

import numpy as np

from repro.core.config import RunConfig, default_exclusion_zone
from repro.engine import backends
from repro.engine import plan as plan_module
from repro.engine.backends import TileOutput
from repro.gpu.perfmodel import KERNEL_ORDER, sort_scan_cost
from repro.kernels.dist_calc import DistCalcKernel
from repro.kernels.layout import to_device_layout, validate_series
from repro.kernels.sort_scan import SortScanKernel, fanin_inclusive_scan
from repro.kernels.update import INDEX_DTYPE, UpdateKernel
from repro.precision.modes import DTYPE_MAX

from .precalc_oracle import PerTileCache, PrecalcKernel
from .sort_scan_batch import BatchSortScanKernel


@lru_cache(maxsize=64)
def _bitonic_network(p: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Compare-exchange passes of the ``p``-input bitonic network.

    The network depends only on the padded size ``p``, so the index
    arrays — for each pass the lower/upper partner rows and the
    per-pair ascending flag column — are built once and cached instead
    of being rebuilt on every sort.  Arrays are marked
    read-only; a pass is ``(i_lo, i_hi, ascending[:, None])``.
    """
    passes = []
    idx = np.arange(p)
    size = 2
    while size <= p:
        stride = size // 2
        while stride >= 1:
            partner = idx ^ stride
            lower = idx < partner
            i_lo = idx[lower]
            i_hi = partner[lower]
            asc = ((idx & size) == 0)[lower][:, None]
            for arr in (i_lo, i_hi, asc):
                arr.setflags(write=False)
            passes.append((i_lo, i_hi, asc))
            stride //= 2
        size *= 2
    return tuple(passes)


def bitonic_sort(plane: np.ndarray, count_stages: bool = False):
    """Bitonic-sort each column of ``plane`` (axis 0) ascending.

    ``plane`` is (d, n) and is padded to the next power of two with the
    dtype's largest finite value (padding sorts to the bottom and is
    stripped before returning).  Returns the sorted (d, n) array, plus the
    stage count when ``count_stages`` is set.

    The network is the standard iterative formulation: for each ``size``
    (2, 4, ..., p) and each ``stride`` (size/2 ... 1) a full compare-
    exchange pass runs; on the device every pass ends with a group
    synchronisation.
    """
    d, n = plane.shape
    p = 1 << (d - 1).bit_length()
    dtype = plane.dtype
    pad_value = DTYPE_MAX.get(np.dtype(dtype), np.inf)
    if p != d:
        padding = np.full((p - d, n), pad_value, dtype=dtype)
        work = np.concatenate([plane, padding], axis=0)
    else:
        work = plane.copy()

    stages = 0
    for i_lo, i_hi, asc in _bitonic_network(p):
        # For each pair (i, i^stride) with i < partner, keep min at i
        # when the subsequence is ascending, max otherwise.
        a = work[i_lo]
        b = work[i_hi]
        swap = np.where(asc, a > b, a < b)
        a_new = np.where(swap, b, a)
        b_new = np.where(swap, a, b)
        work[i_lo] = a_new
        work[i_hi] = b_new
        stages += 1

    out = work[:d]
    if count_stages:
        return out, stages
    return out


def inclusive_average(plane: np.ndarray, dtype) -> np.ndarray:
    """Eq. (2) through the stage-by-stage networks: bitonic sort, fan-in
    inclusive scan, divide row ``k`` by ``k + 1`` — each rounded to
    ``dtype``."""
    dtype = np.dtype(dtype)
    d = plane.shape[0]
    scanned = fanin_inclusive_scan(bitonic_sort(plane.astype(dtype, copy=False)), dtype)
    divisors = np.arange(1, d + 1, dtype=np.float64)[:, None].astype(dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        return (scanned / divisors).astype(dtype)


def per_row_tile(
    tr_dev,
    tq_dev,
    m,
    policy,
    launch,
    *,
    precalc,
    row_offset=0,
    col_offset=0,
    exclusion_zone=None,
    sort_strategy="bitonic",
    workspace=None,
    main_loop="vector",
    mirror=False,
) -> TileOutput:
    """One tile, one reference row at a time; drop-in for ``run_tile``
    (``workspace`` is accepted and ignored).  ``sort_strategy="batch"``
    sorts and scans each row with :class:`BatchSortScanKernel` instead
    of the cooperative networks.  A
    ``(T, d, len)`` stack runs tile by tile and returns one output per
    tile, like ``run_tile``'s tile axis; a stack's ``precalc`` is split
    into its tiles' rows."""
    if tr_dev.ndim == 3:
        n_tiles = tr_dev.shape[0]
        return [
            per_row_tile(
                tr_dev[t], tq_dev[t], m, policy, launch,
                row_offset=row_offset[t], col_offset=col_offset[t],
                exclusion_zone=exclusion_zone, sort_strategy=sort_strategy,
                precalc=precalc.select([t]),
                main_loop=main_loop, mirror=mirror,
            )
            for t in range(n_tiles)
        ]
    if main_loop != "vector":
        raise ValueError("the per-row oracle covers the vector main loop only")
    d = tr_dev.shape[0]
    n_r_seg = tr_dev.shape[1] - m + 1
    n_q_seg = tq_dev.shape[1] - m + 1
    (precalc_cost,) = precalc.costs
    pre = precalc.result
    dist = DistCalcKernel(config=launch, policy=policy)
    dist.bind(pre)
    if sort_strategy == "batch":
        sort_scan = BatchSortScanKernel(config=launch, policy=policy)
    else:
        sort_scan = SortScanKernel(config=launch, policy=policy)
    update = UpdateKernel(config=launch, policy=policy)
    update.allocate(d, n_q_seg, mirror_rows=n_r_seg if mirror else None)
    skip_sort = d == 1
    cols_global = np.arange(n_q_seg) + col_offset
    for i in range(n_r_seg):
        plane = dist.run(i)
        if skip_sort:
            averaged = plane
        elif sort_strategy == "batch":
            averaged = sort_scan.run(plane)
        else:
            averaged = inclusive_average(plane, policy.compute)
            sort_scan._charge(sort_scan_cost(1, n_q_seg, d, policy.itemsize, launch))
        if exclusion_zone is None:
            update.run(averaged, i, row_offset=row_offset, col_offset=col_offset)
        else:
            mask = (np.abs(cols_global - (i + row_offset)) <= exclusion_zone)[None, :]
            update.masked_run(averaged, i, mask, row_offset=row_offset, col_offset=col_offset)

    itemsize = policy.itemsize
    d2h_bytes = float(n_q_seg * d * (itemsize + INDEX_DTYPE.itemsize))
    if mirror:
        d2h_bytes += float(n_r_seg * d * (itemsize + INDEX_DTYPE.itemsize))
    kernels = (precalc_cost, dist.cost, sort_scan.cost, update.cost)
    return TileOutput(
        profile=update.profile,
        indices=update.indices,
        costs={label: replace(c, name=label) for label, c in zip(KERNEL_ORDER, kernels)},
        h2d_bytes=float((tr_dev.shape[1] + tq_dev.shape[1]) * d * itemsize),
        d2h_bytes=d2h_bytes,
        mirror_profile=update.mirror_profile,
        mirror_indices=update.mirror_indices,
    )


@contextmanager
def per_row_engine():
    """Run every numeric-backend tile — batch plans, streams, resumed
    journals — through :func:`per_row_tile` while the block is active."""
    original = backends.run_tile
    backends.run_tile = per_row_tile
    try:
        yield
    finally:
        backends.run_tile = original


@contextmanager
def per_tile_precalc():
    """Plans built while the block is active get a
    :class:`~tests.precalc_oracle.PerTileCache`, so every tile runs
    ``PrecalcKernel`` on its own slices instead of slicing the
    plan-level planes."""
    original = plan_module.PrecalcPlaneCache
    plan_module.PrecalcPlaneCache = lambda **_: PerTileCache()
    try:
        yield
    finally:
        plan_module.PrecalcPlaneCache = original


def per_row_left_right(series, m, config: RunConfig, k=1):
    """``apps.chains.left_right_profile`` row by row: one plane per
    reference row, merged into the left and right profiles with
    ``masked_run``.  Returns ``(left_p, left_i, right_p, right_i)`` for
    column ``k - 1``."""
    policy = config.policy
    zone = config.exclusion_zone
    if zone is None:
        zone = default_exclusion_zone(m)
    dev = to_device_layout(validate_series(series, "series"), policy.storage)
    d, n_seg = dev.shape[0], dev.shape[1] - m + 1
    dist = DistCalcKernel(config=config.launch, policy=policy)
    dist.bind(PrecalcKernel(config=config.launch, policy=policy).run(dev, dev, m))
    left = UpdateKernel(config=config.launch, policy=policy)
    right = UpdateKernel(config=config.launch, policy=policy)
    left.allocate(d, n_seg)
    right.allocate(d, n_seg)
    cols = np.arange(n_seg)
    for i in range(n_seg):
        averaged = inclusive_average(dist.run(i), policy.compute)
        left.masked_run(averaged, i, (cols <= i + zone)[None, :])
        right.masked_run(averaged, i, (cols >= i - zone)[None, :])
    col = k - 1
    return left.profile[col], left.indices[col], right.profile[col], right.indices[col]


class PerRowSortScan(SortScanKernel):
    """``SortScanKernel`` running the stage-by-stage networks on one
    logical row per call."""

    def run(self, plane, out=None):
        d, n_q = plane.shape
        self._charge(sort_scan_cost(1, n_q, d, self.policy.itemsize, self.config))
        return inclusive_average(plane, self.policy.compute)


class PerRowUpdate(UpdateKernel):
    """``UpdateKernel`` whose block merge is ``rows`` consecutive
    ``run``/``masked_run`` calls (row-major blocks only)."""

    def run_block(self, block, row0, row_offset=0, mask=None, col_offset=0,
                  transposed=False):
        if transposed:
            raise ValueError("the per-row oracle covers row-major blocks only")
        for r in range(block.shape[1]):
            plane = np.ascontiguousarray(block[:, r, :])
            if mask is None:
                self.run(plane, row0 + r, row_offset=row_offset, col_offset=col_offset)
            else:
                self.masked_run(plane, row0 + r, mask[r : r + 1], row_offset=row_offset,
                                col_offset=col_offset)
