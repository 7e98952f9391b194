"""The ``dist_calc`` kernel (Pseudocode 1, line 4).

Computes one row (plane) of the 3-d distance matrix from the previous row
using the mean-centred streaming dot product, Eq. (1) of the paper::

    QT[i,j,k] = QT[i-1,j-1,k] + df_r[i,k]*dg_q[j,k] + df_q[j,k]*dg_r[i,k]
    D[i,j,k]  = sqrt( 2*m * (1 - QT[i,j,k] * inv_r[i,k] * inv_q[j,k]) )

Each device thread evaluates one ``(j, k)`` element of the new plane; the
update costs two FMAs per element per dimension ("only four floating-point
operations per dimension in each iteration").  All arithmetic rounds to the
mode's compute dtype after every operation, exactly like the ``__half``
intrinsics path of the CUDA implementation.

Overflow handling: half-precision QT values beyond 65504 become ``inf`` in
the FMA pipeline (the large-deviation failure mode of Section V-B); the
resulting non-finite distances are saturated to the dtype's largest finite
value so that the downstream sort and min-merge remain well defined — they
then simply never win a nearest-neighbour slot.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..gpu.kernel import Kernel
from ..gpu.perfmodel import dist_calc_cost
from ..precision.arithmetic import rp_fma
from ..precision.modes import DTYPE_MAX, PrecisionPolicy
from ._f16fast import f16_keys19, f16_lut19, round_f16_inplace
from .precalc import PrecalcResult
from .workspace import WorkspacePool

__all__ = ["DistCalcKernel"]


@lru_cache(maxsize=32)
def _qt_to_dist_lut_f16(m: int) -> np.ndarray:
    """The half-precision correlation -> distance map as a 65536-entry
    table: ``saturate(sqrt(2m * max(1 - corr, 0)))``.

    Everything after ``corr`` is a unary function of ``corr``, and half
    precision has only 2^16 values, so the row-blocked path replaces the
    whole per-element chain (five software-emulated half ufunc passes)
    with a single gather.  The table is built by running the *original*
    op sequence over every representable half — bit-identical to the
    per-row path by construction, NaN and infinity patterns included.
    """
    dtype = np.dtype(np.float16)
    vals = np.arange(65536, dtype=np.uint16).view(np.float16)
    one = np.float16(1)
    two_m = np.float16(2 * m)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = (one - vals).astype(np.float16)
        np.maximum(gap, np.float16(0), out=gap)
        dist = np.sqrt((two_m * gap).astype(np.float16)).astype(np.float16)
    limit = np.float16(DTYPE_MAX[dtype])
    out = np.where(np.isfinite(dist), dist, limit).astype(np.float16)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _qt_to_dist_lut19_f16(m: int) -> np.ndarray:
    """:func:`_qt_to_dist_lut_f16` re-keyed to the 19-bit float32 key
    space, so correlations held as half-valued float32 gather their
    distances without materialising a half array first."""
    return f16_lut19(_qt_to_dist_lut_f16(m))


@dataclass
class DistCalcKernel(Kernel):
    """Streaming distance-row computation for one tile.

    Holds the running QT plane between invocations (the diagonal-wise
    dependency of Eq. (1)); call :meth:`run` with consecutive row indices
    ``i = 0, 1, ..., n_r_seg-1``, or :meth:`run_block` with consecutive
    blocks of them.
    """

    policy: PrecisionPolicy = field(kw_only=True)
    #: Where the block buffers come from (:meth:`lease`, the product
    #: buffers, the half path's temporaries): a caller shares its
    #: worker's pool, a kernel built alone gets its own.
    pool: WorkspacePool = field(default_factory=WorkspacePool, kw_only=True,
                                repr=False)

    def bind(self, pre: PrecalcResult, transposed: bool = False) -> None:
        """Attach a tile's precalculation outputs and reset the recurrence.

        ``transposed=True`` marks ``pre`` as :meth:`PrecalcResult.
        transposed`: :meth:`run_block` then walks query columns, and every
        rounded operation whose order depends on the roles — the two
        FMAs of Eq. (1) and the two normaliser multiplies — is applied
        in the row-major order, so each QT and distance element is the
        bit pattern the row-major walk produces.

        ``pre`` may be the stacked result of ``T`` same-shape tiles (see
        :class:`PrecalcResult`), whose ``d * T`` dimension rows then run
        their recurrences side by side.
        """
        dtype = self.policy.compute
        self.pre = pre
        self.transposed = transposed
        self.qt = None  # current row's QT plane, (d, n_q_seg)
        self._two_m = dtype.type(2 * pre.m)
        self._one = dtype.type(1)
        # Cache compute-dtype views of the per-row vectors (storage and
        # compute dtypes coincide in every mode, so these are no-copy).
        self._df_r = pre.df_r.astype(dtype, copy=False)
        self._dg_r = pre.dg_r.astype(dtype, copy=False)
        self._inv_r = pre.inv_r.astype(dtype, copy=False)
        self._df_q = pre.df_q.astype(dtype, copy=False)
        self._dg_q = pre.dg_q.astype(dtype, copy=False)
        self._inv_q = pre.inv_q.astype(dtype, copy=False)
        self._qt_col0 = pre.qt_col0.astype(dtype, copy=False)
        self._blk_ready = False  # wide mirrors built lazily by run_block
        self._dist_buf = None  # the leased distance buffer, see lease()

    def workspace_shape(self, rows: int) -> tuple[int, int, int]:
        """Shape of the QT workspace :meth:`run_block` fills for blocks of
        up to ``rows`` rows: row-major ``(rows, d * T, width)``, so every
        recurrence row is one contiguous ``(d * T, width)`` plane rather
        than ``d * T`` chunks spaced a block apart."""
        planes, width = self._inv_q.shape
        return (rows, planes, width)

    @contextmanager
    def lease(self, rows: int):
        """Lease the super-step buffers for blocks of up to ``rows`` rows
        from :attr:`pool`; yields the QT workspace
        (:meth:`workspace_shape`).  While the lease is open,
        :meth:`run_block` writes its distances into one leased
        ``(d * T, rows, width)`` buffer — a contiguous prefix per block,
        overwritten by the next block — instead of a fresh array."""
        planes, width = self._inv_q.shape
        dtype = self.policy.compute
        with self.pool.lease(self.workspace_shape(rows), dtype) as qt, \
                self.pool.lease((planes * rows * width,), dtype) as dist:
            self._dist_buf = dist
            try:
                yield qt
            finally:
                self._dist_buf = None

    def _ensure_block_state(self) -> None:
        """Build the wide-dtype operand mirrors and small scratch the
        inlined block recurrence uses (see :meth:`_advance_qt_block`).

        ``rp_fma`` evaluates each FMA in the next-wider format and rounds
        once; the block path runs the identical pipeline but hoists the
        operand widening out of the row loop and reuses preallocated
        scratch, so the per-row cost is just the arithmetic itself.
        """
        if self._blk_ready:
            return
        dtype = self.policy.compute
        wide = np.dtype(np.float32) if dtype == np.float16 else np.dtype(np.float64)
        d, n_q = self._inv_q.shape
        self._wide = wide
        # The mirrors are only read, so at FP64 (wide == compute) they
        # alias the bound vectors instead of copying them.
        self._df_r_w = self._df_r.astype(wide, copy=False)
        self._dg_r_w = self._dg_r.astype(wide, copy=False)
        self._df_q_w = self._df_q.astype(wide, copy=False)
        self._dg_q_w = self._dg_q.astype(wide, copy=False)
        self._inv_r_w = self._inv_r.astype(wide, copy=False)
        self._inv_q_w = self._inv_q.astype(wide, copy=False)
        self._blk_step_q = np.empty((d, n_q - 1), dtype=dtype)
        self._blk_last = np.empty((d, n_q), dtype=dtype)  # the recurrence state
        self._blk_ready = True

    def _advance_qt_block(self, i0: int, rows: int, ws: np.ndarray) -> None:
        """Fill ``ws[r]`` with the QT planes of rows ``i0..i0+rows-1``.

        The same sequential Eq. (1) recurrence as :meth:`_advance_qt`
        (two wide-evaluated, once-rounded FMAs per row) with the
        ``rp_fma`` wrapper inlined: quantisation happens through
        cast-assignments into preallocated buffers — numpy assignment
        rounds to the destination dtype exactly like ``astype`` — and
        each FMA's ``c`` operand is added in its narrow dtype directly
        (numpy promotes it through an exact widening cast inside the
        add), so no per-row widening passes or temporaries remain.  When
        the wide dtype *is* the compute dtype (FP64) there is nothing to
        round, and both adds write straight into the row.  Bit-identical
        to the per-row path.
        """
        self._ensure_block_state()
        dtype, wide = self.policy.compute, self._wide
        step_q = self._blk_step_q
        planes, width = self._inv_q.shape
        # The previous QT row, in compute dtype: the last row of the
        # preceding block (saved by run_block) or, within the block, the
        # row just written.
        prev = self.qt
        with np.errstate(over="ignore", invalid="ignore"), \
                self.pool.lease((rows, planes, width - 1), wide) as prod1, \
                self.pool.lease((rows, planes, width - 1), wide) as prod2:
            # The a*b products of both FMAs depend only on the row index,
            # not on the running QT state — hoist them out of the
            # sequential loop as two vectorised block multiplies
            # (element-wise, so the same wide products bit-for-bit).
            rows_r = slice(i0, i0 + rows)
            np.multiply(
                self._df_r_w[:, rows_r].T[:, :, None],
                self._dg_q_w[None, :, 1:],
                out=prod1,
            )
            np.multiply(
                self._df_q_w[None, :, 1:],
                self._dg_r_w[:, rows_r].T[:, :, None],
                out=prod2,
            )
            # Column 0 never enters the recurrence of rows inside this
            # block (row r reads prev[:, :-1], i.e. the *previous* row's
            # column 0) — pre-write the whole strip in one assignment.
            ws[:rows, :, 0] = self._qt_col0[:, rows_r].T
            # Eq. (1) adds df_r*dg_q first; with the roles swapped that
            # product is prod2.
            first, second = (prod2, prod1) if self.transposed else (prod1, prod2)
            fused = wide == dtype
            for r in range(rows):
                row = ws[r]
                if i0 + r == 0:
                    row[...] = self.pre.qt_row0
                elif fused:
                    tail = row[:, 1:]
                    np.add(first[r], prev[:, :-1], out=tail)
                    np.add(second[r], tail, out=tail)
                else:
                    t = first[r]  # consumed once, so += in place is fine
                    np.add(t, prev[:, :-1], out=t)  # c widened in the add
                    step_q[...] = t  # single rounding of the fused a*b + c
                    t = second[r]
                    np.add(t, step_q, out=t)  # exact widening in the add
                    row[:, 1:] = t  # single rounding of the second FMA
                prev = row

    def _advance_qt(self, i: int, out: np.ndarray, qt_prev: np.ndarray | None) -> None:
        """Write row ``i``'s QT plane into ``out`` (Eq. 1 recurrence)."""
        if i == 0:
            out[...] = self.pre.qt_row0
            return
        if qt_prev is None:
            raise RuntimeError("rows must be visited in order starting at 0")
        dtype = self.policy.compute
        # Two rounded FMAs per element, matching the __hfma2 pipeline:
        # QT[i, j] = QT[i-1, j-1] + df_r[i]*dg_q[j] + df_q[j]*dg_r[i].
        step = rp_fma(
            self._df_r[:, i : i + 1],
            self._dg_q[:, 1:],
            qt_prev[:, :-1],
            dtype,
        )
        out[:, 1:] = rp_fma(
            self._df_q[:, 1:],
            self._dg_r[:, i : i + 1],
            step,
            dtype,
        )
        # j = 0 has no top-left predecessor: take the precalculated
        # first-column entry.  (Written after the FMAs so ``out`` may
        # alias ``qt_prev``.)
        out[:, 0] = self._qt_col0[:, i]

    def _normalisers(self, inv_rows, inv_cols):
        """The two normaliser factors in Eq. (1)'s rounding order: the
        reference norm ``inv_r`` first, then the query norm ``inv_q``
        (under a transposed binding these index the columns and the
        rows respectively)."""
        return (inv_cols, inv_rows) if self.transposed else (inv_rows, inv_cols)

    def _distances_block_f16(
        self, ws: np.ndarray, i0: int, rows: int, out: np.ndarray
    ) -> None:
        """Half-precision :meth:`_distances` of the ``(rows, d * T,
        width)`` QT block ``ws`` into the ``(d * T, rows, width)``
        buffer ``out``, with the two genuine binary multiplies evaluated
        the way numpy's half ufuncs define them — float32 product (exact,
        both operands are half-valued) followed by one RNE rounding to
        half — but vectorised (``_f16fast``), and the unary tail
        collapsed into a single gather (``_qt_to_dist_lut19_f16``) into
        ``out``.  Bit-identical to the per-row chain; degenerate planes
        (half subnormals, NaNs from inf * 0) divert to the scalar
        rounding inside ``round_f16_inplace`` and still match.  The
        float32 correlations, the rounding temporaries and the gather
        keys are leased from :attr:`pool`.
        """
        self._ensure_block_state()
        pool = self.pool
        first, second = self._normalisers(
            self._inv_r_w[:, i0 : i0 + rows, None], self._inv_q_w[:, None, :]
        )
        with np.errstate(over="ignore", invalid="ignore"), \
                pool.lease(out.shape, np.float32) as corr:
            # The layout transpose rides the first multiply.
            np.multiply(ws.transpose(1, 0, 2), first, out=corr)
            round_f16_inplace(corr, pool)
            corr *= second
            round_f16_inplace(corr, pool)
            with pool.lease(out.shape, np.intp) as keys:
                f16_keys19(corr, out=keys)
                np.take(_qt_to_dist_lut19_f16(self.pre.m), keys, out=out, mode="clip")

    def _distances_block(
        self, ws: np.ndarray, i0: int, rows: int, out: np.ndarray
    ) -> None:
        """:meth:`_distances` of the ``(rows, d * T, width)`` QT block
        ``ws`` into the ``(d * T, rows, width)`` buffer ``out``, every
        step a ufunc writing ``out`` in place; the layout transpose rides
        the first multiply.  The same operations in the same order as
        :meth:`_distances` — every ``astype`` there is a same-dtype copy
        — and ``fmin`` against the limit is its saturation: it maps NaN
        and ``+inf`` to the limit and keeps every finite distance (which
        is never above the limit, nor ``-inf``)."""
        dtype = self.policy.compute
        first, second = self._normalisers(
            self._inv_r[:, i0 : i0 + rows, None], self._inv_q[:, None, :]
        )
        limit = dtype.type(DTYPE_MAX[np.dtype(dtype)])
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(ws.transpose(1, 0, 2), first, out=out)
            np.multiply(out, second, out=out)
            np.subtract(self._one, out, out=out)
            # Rounding can push corr slightly above 1 for perfect matches;
            # clamp so sqrt stays real (SCAMP does the same).
            np.maximum(out, dtype.type(0), out=out)
            np.multiply(self._two_m, out, out=out)
            np.sqrt(out, out=out)
            np.fmin(out, limit, out=out)

    def _distances(self, qt: np.ndarray, inv_r: np.ndarray) -> np.ndarray:
        """One ``(d, n_q)`` QT row -> saturated z-normalised distances;
        element-wise, the per-row reference of the block conversions."""
        dtype = self.policy.compute
        first, second = self._normalisers(inv_r, self._inv_q)
        with np.errstate(over="ignore", invalid="ignore"):
            corr = ((qt * first).astype(dtype) * second).astype(dtype)
            gap = (self._one - corr).astype(dtype)
            # Rounding can push corr slightly above 1 for perfect matches;
            # clamp so sqrt stays real (SCAMP does the same).
            np.maximum(gap, dtype.type(0), out=gap)
            dist = np.sqrt((self._two_m * gap).astype(dtype)).astype(dtype)
        limit = dtype.type(DTYPE_MAX[np.dtype(dtype)])
        return np.where(np.isfinite(dist), dist, limit).astype(dtype)

    def run(self, i: int) -> np.ndarray:
        """Compute distance plane for reference row ``i``; returns (d, n_q)."""
        dtype = self.policy.compute
        if i == 0:
            self.qt = self.pre.qt_row0.astype(dtype, copy=True)
        else:
            qt_new = None if self.qt is None else np.empty_like(self.qt)
            self._advance_qt(i, qt_new, self.qt)
            self.qt = qt_new
        dist = self._distances(self.qt, self._inv_r[:, i : i + 1])
        d, n_q = dist.shape
        self._charge(dist_calc_cost(1, n_q, d, self.policy.itemsize,
                                    self.config))
        return dist

    def run_block(self, i0: int, rows: int, workspace: np.ndarray) -> np.ndarray:
        """Compute distance planes for rows ``i0 .. i0+rows-1`` at once.

        ``workspace`` is a compute-dtype QT buffer of
        :meth:`workspace_shape` for at least ``rows`` rows; the
        sequential recurrence fills its first ``rows`` contiguous row
        planes (no per-row temporaries), and the QT -> distance
        conversion then runs once over the whole block.  Every operation
        is element-wise, so the result is bit-for-bit identical to
        ``rows`` consecutive :meth:`run` calls.  Nothing is charged: the
        caller charges the tile.  Returns the ``(d, rows, n_q)``
        distance block — ``d`` counts the ``d * T`` rows of a
        stacked binding — in the leased buffer of an open :meth:`lease`
        (which the caller may then overwrite in place), else in a fresh
        array.  The product buffers of the recurrence and the half
        path's temporaries are leased from :attr:`pool` for the call.
        """
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        if i0 != 0 and self.qt is None:
            raise RuntimeError("rows must be visited in order starting at 0")
        planes, width = self._inv_q.shape
        self._advance_qt_block(i0, rows, workspace)
        # The workspace is reused by the caller; keep the recurrence state
        # in a private copy of the last row.
        np.copyto(self._blk_last, workspace[rows - 1])
        self.qt = self._blk_last
        if self._dist_buf is None:
            dist = np.empty((planes, rows, width), dtype=self.policy.compute)
        else:
            dist = self._dist_buf[: planes * rows * width].reshape(planes, rows, width)
        if self.policy.compute == np.float16:
            self._distances_block_f16(workspace[:rows], i0, rows, dist)
        else:
            self._distances_block(workspace[:rows], i0, rows, dist)
        return dist
