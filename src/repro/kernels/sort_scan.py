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
odd-even merge sort over float values or, for halves, uint16 radix keys,
with ``np.sort`` only above 16 rows — and, for half precision, a
float32-domain scan; the cost model charges the bitonic network's
stages (``repro.gpu.perfmodel.sort_scan_cost``).  The stage-by-stage
bitonic network itself is the test oracle, in ``tests/per_row_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..gpu.kernel import Kernel
from ..precision.modes import PrecisionPolicy
from ._f16fast import f16_keys19, round_f16_nonneg_inplace
from .workspace import WorkspacePool

__all__ = ["SortScanKernel", "fanin_inclusive_scan"]


@lru_cache(maxsize=64)
def _divisor_column(d: int, dtype: np.dtype) -> np.ndarray:
    """The (d, 1) inclusive-average divisor column ``[1, 2, ..., d]`` in
    ``dtype``, cached per (d, dtype) instead of rebuilt per run."""
    col = (np.arange(1, d + 1, dtype=np.float64)[:, None]).astype(dtype)
    col.setflags(write=False)
    return col


_U16_SIGN = np.uint16(0x8000)
_U16_REST = np.uint16(0x7FFF)

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
    ``n`` short columns.  ``plane`` holds float32/float64 values or the
    uint16 radix keys of halves; float columns must be NaN-free and free
    of ``-0.0``, so that min/max and ``np.sort`` agree on every value
    (distance planes are, by construction).  ``lo`` is an optional
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


def _sort_f16_inplace(plane: np.ndarray, pool: WorkspacePool) -> np.ndarray:
    """Value-exact in-place per-column sort of a contiguous half plane.

    numpy's ``float16`` comparisons run a scalar convert-to-float loop,
    so halves are sorted as ``uint16`` keys: IEEE half bit patterns
    order like their values once negative patterns are flipped (the
    classic radix-key transform).  The flip pattern of each element is
    built in a leased ``uint16`` temporary, whose first row then serves
    as the network's row temporary.
    """
    u = plane.view(np.uint16)
    with pool.lease(u.shape, np.uint16) as flip:
        # Keys: negative patterns -> ~u, non-negative -> u | 0x8000.
        np.right_shift(u, np.uint16(15), out=flip)
        flip *= _U16_REST
        flip += _U16_SIGN
        u ^= flip
        _sort_network_inplace(u, flip[0])
        # Back: keys with the top bit set were non-negative halves.
        np.right_shift(u, np.uint16(15), out=flip)
        flip ^= np.uint16(1)
        flip *= _U16_REST
        flip += _U16_SIGN
        u ^= flip
    return plane


def _sort_columns_exact(plane: np.ndarray) -> np.ndarray:
    """Ascending per-column sort of a copy of ``plane`` whose output
    *values* are identical to the bitonic network's — any correct
    ascending sort of a NaN-free column yields the same value sequence,
    so only the emulation fidelity (stage-by-stage execution) is given
    up, never a bit of the result.

    Every dtype runs :func:`_sort_network_inplace`; halves go through
    the radix keys of :func:`_sort_f16_inplace`.  Columns must be
    NaN-free (distance planes are by construction; the network's
    behaviour under NaN is unspecified anyway).
    """
    if plane.dtype != np.float16:
        return _sort_network_inplace(plane.copy())
    return _sort_f16_inplace(plane.copy(), WorkspacePool())


def _divide_lut_f16(k: int) -> np.ndarray:
    """All 65536 half values divided by ``k`` and rounded, as one table.

    ``x / k`` is a unary function of ``x`` for a fixed divisor, and half
    precision has only 2^16 values — so the whole inclusive-average
    division collapses to a gather.  Built with the very numpy ops of the
    stage-by-stage division, hence bit-identical by construction (NaN
    payloads included).
    """
    vals = np.arange(65536, dtype=np.uint16).view(np.float16)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return (vals / np.float16(k)).astype(np.float16)


#: The span of 19-bit keys (:func:`f16_keys19`) the divide tables cover.
#: Scan sums of a sorted distance plane are non-negative, NaN-free and
#: half-valued, so their keys are 0 (``+0``), ``103 << 10`` (2^-24, the
#: smallest subnormal half) to ``(142 << 10) | 1023`` (65504), or
#: ``255 << 10`` (``+inf``).  The two ends are never halves: key
#: ``102 << 10`` is 2^-25, which rounds to ``+0``, and key ``143 << 10``
#: is 2^16, which rounds to ``+inf`` — so a gather clipped to the span
#: sends ``+0`` and ``+inf`` to entries holding exactly those quotients.
_DIV_KEY_LO = 102 << 10
_DIV_KEY_HI = 143 << 10


@lru_cache(maxsize=16)
def _divide_table_f16(d: int) -> np.ndarray:
    """The divide-by-k tables for k = 1..d over the reachable keys
    ``_DIV_KEY_LO`` to ``_DIV_KEY_HI``, interleaved row-minor: entry
    ``(key - _DIV_KEY_LO) * d + k - 1`` holds the half quotient of the
    key's value by ``k``.  One flat gather with ``key * d + row -
    _DIV_KEY_LO * d`` indices (:func:`_divide_index_offsets`) divides a
    whole ``(d, n)`` plane, and ``np.take(..., mode="clip")`` sends every
    row's ``+0`` to the first entry (0 / 1) and every row's ``+inf`` to
    the last (inf / d), with no per-row clamp.  About 84 KB per divisor.
    """
    keys = np.arange(_DIV_KEY_LO, _DIV_KEY_HI + 1, dtype=np.uint32)
    with np.errstate(over="ignore"):
        halves = (keys << np.uint32(13)).view(np.float32).astype(np.float16)
    idx = halves.view(np.uint16)
    table = np.empty((keys.size, d), dtype=np.float16)
    for k in range(d):
        table[:, k] = _divide_lut_f16(k + 1)[idx]
    table = table.ravel()
    table.setflags(write=False)
    return table


def _fanin_scan_inplace(plane: np.ndarray, tmp: np.ndarray, round_stage=None) -> None:
    """:func:`fanin_inclusive_scan` in place on a float32/float64 plane:
    the same additions in the same order, each stage's sums staged in
    ``tmp`` (``(d - 1, n)`` or larger) and rounded to the plane's dtype.

    Half precision runs in float32 storage: numpy's half add *is* a
    float32 add followed by one RNE conversion per element (scalar
    loop), so ``round_stage`` — ``round_f16_nonneg_inplace``, whose
    domain the sorted, saturated distances are — applies that
    conversion to each stage's sums, vectorised, and every stage's bits
    match.  The plane then ends half-valued (gather keys via
    :func:`f16_keys19`).
    """
    d = plane.shape[0]
    offset = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while offset < d:
            seg = tmp[: d - offset]
            np.add(plane[offset:], plane[:-offset], out=seg)
            if round_stage is not None:
                round_stage(seg)
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
def _divide_index_offsets(d: int) -> np.ndarray:
    """The ``(d, 1)`` column ``k - _DIV_KEY_LO * d`` that turns row
    ``k``'s keys, times ``d``, into indices of :func:`_divide_table_f16`."""
    col = np.arange(d, dtype=np.intp)[:, None] - _DIV_KEY_LO * d
    col.setflags(write=False)
    return col


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

        The sort is value-exact (Batcher's min/max network, over radix
        keys for halves) and the half-precision scan and division run in
        the float32 domain with per-stage rounding and a divide-by-k
        table, so the output is bit-for-bit what the stage-by-stage
        bitonic sort and :func:`fanin_inclusive_scan` networks produce —
        those remain the test oracle.  Both networks are
        column-independent, so a row-blocked caller passes a block of
        logical distance rows — of a stack of tiles, too — side by side
        as one ``(d, rows*n_q)`` plane.  Nothing is charged: the caller
        charges the tile.

        The result is written into ``out``, a contiguous compute-dtype
        ``(d, n)`` array, or into a fresh one when ``out`` is ``None``;
        ``plane`` itself is left untouched unless it *is* ``out``.  The
        vector main loop passes its distance buffer as both, so the sort,
        the scan and the divide run in place there, with the stage
        temporaries leased from :attr:`pool`; the tensor-core loop passes
        a leased float32 ``out`` beside its panel (see :meth:`_run_mma`).
        """
        dtype = self.policy.compute
        d = plane.shape[0]
        if (
            self.mma_scan
            and plane.dtype == np.float32
            and dtype == np.float16
        ):
            return self._run_mma(plane, out)
        if out is None:
            out = plane.astype(dtype, copy=True)
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
        """The half-precision sort, scan and divide, in place on
        ``plane``: the scan runs in a leased float32 copy, and the
        divide-by-k table gathers straight back into ``plane`` through
        leased ``intp`` keys (``np.take`` would convert narrower keys to
        a fresh ``intp`` array)."""
        pool = self.pool
        d, n = plane.shape
        _sort_f16_inplace(plane, pool)
        with pool.lease(plane.shape, np.float32) as work, \
                pool.lease((max(d - 1, 1), n), np.float32) as tmp:
            np.copyto(work, plane)
            _fanin_scan_inplace(
                work, tmp, lambda seg: round_f16_nonneg_inplace(seg, pool)
            )
            with pool.lease(plane.shape, np.intp) as keys:
                f16_keys19(work, out=keys)
                keys *= d
                keys += _divide_index_offsets(d)
                np.take(_divide_table_f16(d), keys, out=plane, mode="clip")

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
