"""The ``sort_&_incl_scan`` kernel (Pseudocode 1, line 5).

For every query column ``j`` of the current distance plane, the ``d``
per-dimension distances are sorted ascending and then progressively
averaged (Eq. 2): ``D''[j, k]`` is the mean of the ``k+1`` smallest
distances, realised as an inclusive scan divided by ``k+1``.

The paper's kernel uses a custom **bitonic sort** — O(log^2 d) stages of
compare-exchange networks, chosen over CUB/ModernGPU for performance — and
an O(log d) **fan-in (Hillis–Steele) inclusive scan**, both executed
cooperatively by a thread group per column with coarse-grained
synchronisation between stages (Section III-A, IV).

:func:`fanin_inclusive_scan` runs the *same network* as the device scan:
every stage is one vectorised numpy operation across all columns, rounded
in the mode's compute dtype, so the fan-in summation order (which on real
hardware differs from a sequential cumsum) is reproduced bit for bit.
Sorting is exact (comparisons don't round).  :class:`SortScanKernel`
produces the bits of the stage-by-stage bitonic network through one
value-exact compare-exchange network for every precision — Batcher's
odd-even merge sort over float values, with ``np.sort`` only above 16
rows — and, for half precision, runs on float32 carriers (see
``_f16fast``): the same network, with the fan-in stages and the
division rounded to half in float32; the cost model charges the bitonic
network's stages (``repro.gpu.perfmodel.sort_scan_cost``).  The stage-by-stage
bitonic network itself is the test oracle, in ``tests/per_row_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..gpu.kernel import Kernel
from ..precision.modes import PrecisionPolicy
from ._f16fast import F16_OVERFLOW, round_f16, split_f16
from .workspace import WorkspacePool

__all__ = ["SortScanKernel", "fanin_inclusive_scan"]


@lru_cache(maxsize=64)
def _divisor_column(d: int, dtype: np.dtype) -> np.ndarray:
    """The (d, 1) inclusive-average divisor column ``[1, 2, ..., d]`` in
    ``dtype``, cached per (d, dtype) instead of rebuilt per run."""
    col = (np.arange(1, d + 1, dtype=np.float64)[:, None]).astype(dtype)
    col.setflags(write=False)
    return col


#: Largest ``d`` sorted by the Batcher odd-even merge network (19
#: comparators at d=8); larger planes fall back to ``np.sort``.
_BATCHER_MAX_D = 16


@lru_cache(maxsize=64)
def _batcher_pairs(d: int) -> tuple[tuple[int, int], ...]:
    """Compare-exchange pairs of Batcher's odd-even merge sorting network
    for ``d`` inputs, in execution order.

    Built for the next power of two and filtered to comparators whose
    wires both lie below ``d`` — the dropped wires would carry +inf
    padding, which never swaps downward, so the filtered network sorts
    any ``d`` inputs (verified exhaustively by the zero-one principle in
    the tests).  At ``d = 8`` this is the optimal 19-comparator network.
    """
    p = 1 << (d - 1).bit_length()
    pairs: list[tuple[int, int]] = []

    def merge(lo: int, n: int, r: int) -> None:
        step = r * 2
        if step < n:
            merge(lo, n, step)
            merge(lo + r, n, step)
            for i in range(lo + r, lo + n - r, step):
                pairs.append((i, i + r))
        else:
            pairs.append((lo, lo + r))

    def sort(lo: int, hi: int) -> None:
        if hi - lo >= 1:
            mid = lo + (hi - lo) // 2
            sort(lo, mid)
            sort(mid + 1, hi)
            merge(lo, hi - lo + 1, 1)

    sort(0, p - 1)
    return tuple((i, j) for (i, j) in pairs if j < d)


def _sort_network_inplace(plane: np.ndarray, lo: np.ndarray | None = None) -> np.ndarray:
    """Ascending in-place sort of each column of a ``(d, n)`` plane along
    axis 0 through Batcher's network (:func:`_batcher_pairs`).

    Each compare-exchange is a vectorised min/max over two whole rows,
    which for small ``d`` is far cheaper than ``np.sort`` striding down
    ``n`` short columns.  ``plane`` holds float32/float64 values (half
    values in float32 carriers) or integer radix keys; float columns
    must be NaN-free and free of ``-0.0``, so that min/max and
    ``np.sort`` agree on every value (distance planes are, by
    construction).  ``lo`` is an optional
    ``(n,)`` row temporary of the plane's dtype.  Above
    ``_BATCHER_MAX_D`` rows the plane goes to ``np.sort``.
    """
    d = plane.shape[0]
    if d > _BATCHER_MAX_D:
        plane[...] = np.sort(plane, axis=0)
        return plane
    if lo is None:
        lo = np.empty_like(plane[0])
    for i, j in _batcher_pairs(d):
        np.minimum(plane[i], plane[j], out=lo)
        np.maximum(plane[i], plane[j], out=plane[j])
        plane[i] = lo
    return plane


def _fanin_scan_inplace(plane: np.ndarray, tmp: np.ndarray, half: bool = False) -> None:
    """:func:`fanin_inclusive_scan` in place on a float32/float64 plane:
    the same additions in the same order, each stage's sums staged in
    ``tmp`` (``(d - 1, n)`` or larger) and rounded to the plane's dtype.

    ``half=True`` runs half precision on a float32 carrier plane:
    numpy's half add *is* a float32 add followed by one rounding to
    half, and :func:`~._f16fast.split_f16` applies that rounding to each
    stage's sums, straight back into the plane.  The sums of a sorted,
    saturated distance plane are non-negative, finite and on the half
    grid, where the split is exact except that a sum rounding to
    ``+inf`` comes out as a finite value of ``2^16`` or more — and stays
    there through the later stages, as ``+inf`` would.  No check is
    needed: the divide step of :class:`SortScanKernel` turns every such
    value into ``+inf`` first.
    """
    d = plane.shape[0]
    offset = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while offset < d:
            seg = tmp[: d - offset]
            if half:
                dst = plane[offset:]
                np.add(dst, plane[:-offset], out=seg)
                split_f16(seg, dst, dst)
            else:
                np.add(plane[offset:], plane[:-offset], out=seg)
                plane[offset:] = seg
            offset *= 2


def fanin_inclusive_scan(plane: np.ndarray, dtype: np.dtype, count_stages: bool = False):
    """Hillis–Steele inclusive scan along axis 0 with per-stage rounding.

    ``out[t] = sum(plane[0..t])`` evaluated in ``ceil(log2 d)`` fan-in
    stages; each stage's additions round to ``dtype``.
    """
    d = plane.shape[0]
    work = plane.astype(dtype, copy=True)
    stages = 0
    offset = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while offset < d:
            shifted = work[:-offset]
            work[offset:] = (work[offset:] + shifted).astype(dtype)
            stages += 1
            offset *= 2
    if count_stages:
        return work, stages
    return work


@lru_cache(maxsize=16)
def _scan_tri_f32(d: int) -> np.ndarray:
    """Lower-triangular all-ones (d, d) float32 matrix — Eq. (2)'s
    inclusive scan as a single MMA operand (``d <= 16`` fits one
    fragment row, so the chain has length one)."""
    tri = np.tril(np.ones((d, d), dtype=np.float32))
    tri.setflags(write=False)
    return tri


@dataclass
class SortScanKernel(Kernel):
    """Sort + inclusive-average of one distance plane (d, n_q)."""

    policy: PrecisionPolicy = field(kw_only=True)

    #: Fused tensor-core mode: accept the float32 distance fragment from
    #: ``TcGemmKernel``, sort it with native float min/max, and run
    #: Eq. (2)'s fan-in scan as one lower-triangular MMA with FP32
    #: accumulation (``d <= 16`` is a single fragment row; the chained
    #: form of ``TcGemmKernel`` applies above that).  The inclusive
    #: average divides in float32 — no half rounding happens here at
    #: all; the single narrow store is the update kernel's profile
    #: merge.  The cost model charges it as the vector sort/scan (the
    #: network/stage conventions stay, conservatively).
    mma_scan: bool = field(default=False, kw_only=True)
    #: Where the stage temporaries come from: a caller shares its
    #: worker's pool, a kernel built alone gets its own.
    pool: WorkspacePool = field(default_factory=WorkspacePool, kw_only=True,
                                repr=False)

    def run(self, plane: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Returns D'' — the (d, n_q) plane of inclusive averages, where row
        ``k`` holds the mean of the k+1 best per-dimension distances.

        The sort is value-exact (Batcher's min/max network) and the
        half-precision scan and division run on float32 carriers with
        per-stage rounding, so the output is bit-for-bit what the
        stage-by-stage bitonic sort and :func:`fanin_inclusive_scan`
        networks produce — those remain the test oracle.  Both networks are
        column-independent, so a row-blocked caller passes a block of
        logical distance rows — of a stack of tiles, too — side by side
        as one ``(d, rows*n_q)`` plane.  Nothing is charged: the caller
        charges the tile.

        The result is written into ``out``, a contiguous ``(d, n)``
        array of ``plane``'s dtype, or into a fresh one when ``out`` is
        ``None``; ``plane`` itself is left untouched unless it *is*
        ``out``.  The vector main loop passes its distance buffer as
        both, so the sort, the scan and the divide run in place there,
        with the stage temporaries leased from :attr:`pool`; the
        tensor-core loop passes a leased float32 ``out`` beside its panel
        (see :meth:`_run_mma`).  At half precision the main loop's planes
        are float32 carriers (see ``_f16fast``); any other plane is
        rounded to half, widened into a leased carrier, and the result
        narrowed back into a half ``out``.
        """
        dtype = self.policy.compute
        d = plane.shape[0]
        if (
            self.mma_scan
            and plane.dtype == np.float32
            and dtype == np.float16
        ):
            return self._run_mma(plane, out)
        if dtype == np.float16 and plane.dtype != np.float32:
            half = plane.astype(dtype, copy=False)
            if out is None:
                out = np.empty_like(half)
            with self.pool.lease(plane.shape, np.float32) as work:
                np.copyto(work, half)
                self._sort_scan_f16(work)
                np.copyto(out, work)
            return out
        if out is None:
            out = plane.astype(np.float32 if dtype == np.float16 else dtype, copy=True)
        elif out is not plane:
            np.copyto(out, plane)
        if dtype == np.float16:
            self._sort_scan_f16(out)
        else:
            with self.pool.lease((max(d - 1, 1), out.shape[1]), dtype) as tmp:
                _sort_network_inplace(out, tmp[0])
                _fanin_scan_inplace(out, tmp)
            with np.errstate(over="ignore", invalid="ignore"):
                np.divide(out, _divisor_column(d, dtype), out=out)
        return out

    def _sort_scan_f16(self, plane: np.ndarray) -> None:
        """The half-precision sort, scan and divide, in place on the
        float32 carrier ``plane``: the min/max network sorts the carriers
        as the FP32 path sorts its planes, the fan-in stages round with
        the Veltkamp split, and rows ``k >= 1`` are divided by ``k + 1``
        in float32 and rounded by :func:`~._f16fast.round_f16` — numpy's
        half division is that float32 quotient rounded once.  Scan sums
        of ``2^16`` or more (and the NaN an infinite input leaves) stand
        for ``+inf`` and become it before the division; the last row
        holds the largest sums, so one look at it decides."""
        pool = self.pool
        d, n = plane.shape
        with pool.lease((max(d - 1, 1), n), np.float32) as tmp:
            _sort_network_inplace(plane, tmp[0])
            _fanin_scan_inplace(plane, tmp, half=True)
        if d == 1:
            return
        sums = plane[1:]
        if not sums[-1].max() < F16_OVERFLOW:
            with pool.lease(sums.shape, np.bool_) as overflow:
                np.less(sums, F16_OVERFLOW, out=overflow)
                np.logical_not(overflow, out=overflow)  # NaN included
                np.copyto(sums, np.float32(np.inf), where=overflow)
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(sums, _divisor_column(d, np.dtype(np.float32))[1:], out=sums)
        round_f16(sums, pool)

    def _run_mma(self, plane: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """Fused tensor-core sort+scan on the FP32 distance fragment.

        ``plane`` is treated as scratch (it is ``TcGemmKernel``'s panel)
        and sorted in place; the scanned inclusive averages land in
        ``out`` — a float32 array of the plane's shape that is not the
        plane (the scan is a matmul), or a fresh one when ``None``; its
        first row serves as the network's row temporary before the scan
        overwrites it.  Saturated distance planes are non-negative and
        NaN-free, so the min/max network sorts them exactly.
        """
        d = plane.shape[0]
        if out is None:
            out = np.empty_like(plane)
        _sort_network_inplace(plane, out[0])
        np.matmul(_scan_tri_f32(d), plane, out=out)
        np.divide(out, _divisor_column(d, np.dtype(np.float32)), out=out)
        return out
