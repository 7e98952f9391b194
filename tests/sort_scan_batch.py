"""Batch-based sort + scan — the design alternative the paper rejected.

An ablation, not a main-loop path: ``tests/per_row_oracle.per_row_tile(
..., sort_strategy="batch")`` runs it row by row, and
``benchmarks/bench_ablation_design.py`` measures it there.

Section III-A: "Compared to the more intuitive batch-based
parallelization, where only one thread performs a single sort and scan,
our choice [cooperative bitonic] results in better utilization of the GPU
resources".  Section IV adds that the custom bitonic sort also beat CUB
and ModernGPU segmented sorts.

This module implements that alternative for real so the comparison is an
executable ablation, not a claim: one logical thread per query column
performs an insertion sort over the d dimension values followed by a
sequential inclusive scan.  Numerically the output is identical to the
cooperative kernel (sorting is exact; the sequential scan's rounding
differs from the fan-in order in reduced precision).  The cost accounting
reflects the design's weaknesses: per-thread serial work with uncoalesced
(dimension-strided) accesses and zero cooperative synchronisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.gpu.kernel import Kernel, KernelCost
from repro.kernels.sort_scan import _divisor_column, _sort_network_inplace
from repro.kernels.workspace import WorkspacePool
from repro.precision.modes import PrecisionPolicy

__all__ = [
    "BatchSortScanKernel",
    "insertion_sort_columns",
    "sequential_inclusive_scan",
    "sort_columns_exact",
]


def insertion_sort_columns(plane: np.ndarray, count_ops: bool = False):
    """Insertion-sort each column of ``plane`` along axis 0.

    Emulates one device thread per column walking its d values.  The
    element moves are counted (the cost model charges them as serial,
    uncoalesced accesses).  Vectorised across columns per step, so the
    Python cost stays manageable while the *operation count* matches the
    serial algorithm.
    """
    d, n = plane.shape
    work = plane.copy()
    ops = 0
    for i in range(1, d):
        # Standard insertion step, vectorised over columns: repeatedly
        # bubble row i down while it is smaller than its predecessor.
        j = i
        while j > 0:
            swap = work[j] < work[j - 1]
            if not np.any(swap):
                break
            upper = np.where(swap, work[j], work[j - 1])
            lower = np.where(swap, work[j - 1], work[j])
            work[j - 1] = upper
            work[j] = lower
            ops += int(swap.sum())
            j -= 1
        ops += n  # the comparison walk itself
    if count_ops:
        return work, ops
    return work


def sequential_inclusive_scan(plane: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Per-column sequential inclusive scan with per-step rounding.

    This is the summation order a single thread produces — *different*
    rounding from the cooperative fan-in scan in reduced precision.
    """
    work = plane.astype(dtype, copy=True)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, work.shape[0]):
            work[t] = (work[t] + work[t - 1]).astype(dtype)
    return work


@dataclass
class BatchSortScanKernel(Kernel):
    """The batch strategy's sort/scan of one distance plane ``(d, n_q)``,
    one logical thread per column."""

    policy: PrecisionPolicy = field(kw_only=True)

    def run(self, plane: np.ndarray) -> np.ndarray:
        """The inclusive averages of one logical row's plane, as
        :meth:`~repro.kernels.sort_scan.SortScanKernel.run` returns them
        (identical values in FP64; the sequential scan rounds differently
        in reduced precision); charges the row.

        Batch-strategy accounting: every touched element (the insertion
        sort's moves, read and written, plus one scan pass) is a serial,
        dimension-strided access.  A warp's 32 threads hit 32 distinct
        cache lines per step (one useful element per 64-byte sector: 8x
        waste in FP64), and the per-thread dependent compare-swap chain
        serialises issue for roughly another 2x — an effective-traffic
        multiplier of 16.  No cooperative syncs exist to hide."""
        dtype = self.policy.compute
        d, n_q = plane.shape
        sorted_plane, moves = insertion_sort_columns(
            plane.astype(dtype, copy=False), count_ops=True
        )
        scanned = sequential_inclusive_scan(sorted_plane, dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            averaged = (scanned / _divisor_column(d, dtype)).astype(dtype)
        size = self.policy.storage.itemsize
        touched = float(moves * 2 + d * n_q)
        sector_waste = 16.0
        self._charge(KernelCost(
            name=self.cost.name,
            bytes_dram=touched * size * sector_waste,
            bytes_l2=touched * size * sector_waste,
            flops=touched,
            launches=1,
            loop_rounds=math.ceil(n_q / self.config.total_threads),
        ))
        return averaged


def _sort_f16_inplace(plane: np.ndarray, pool: WorkspacePool) -> np.ndarray:
    """Value-exact in-place per-column sort of a contiguous half plane,
    as ``uint16`` radix keys: IEEE half bit patterns order like their
    values once negative patterns are flipped (the classic radix-key
    transform).  The flip pattern of each element is built in a leased
    ``uint16`` temporary, whose first row then serves as the network's
    row temporary."""
    sign, rest = np.uint16(0x8000), np.uint16(0x7FFF)
    u = plane.view(np.uint16)
    with pool.lease(u.shape, np.uint16) as flip:
        # Keys: negative patterns -> ~u, non-negative -> u | 0x8000.
        np.right_shift(u, np.uint16(15), out=flip)
        flip *= rest
        flip += sign
        u ^= flip
        _sort_network_inplace(u, flip[0])
        # Back: keys with the top bit set were non-negative halves.
        np.right_shift(u, np.uint16(15), out=flip)
        flip ^= np.uint16(1)
        flip *= rest
        flip += sign
        u ^= flip
    return plane


def sort_columns_exact(plane: np.ndarray) -> np.ndarray:
    """Ascending per-column sort of a copy of ``plane`` whose output
    *values* are identical to the bitonic network's — any correct
    ascending sort of a NaN-free column yields the same value sequence.

    Every dtype runs the kernel's min/max network
    (``_sort_network_inplace``); halves go through radix keys.  Columns
    must be NaN-free."""
    if plane.dtype != np.float16:
        return _sort_network_inplace(plane.copy())
    return _sort_f16_inplace(plane.copy(), WorkspacePool())

