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

At half precision the row-blocked path (:meth:`DistCalcKernel.run_block`)
holds every value in a float32 *carrier* and rounds with the Veltkamp
split of ``_f16fast``: each FMA is a float32 add and a split, one range
check per super-step finds the rare roundings outside the split's exact
domain, and only the diagonals they sit on are recomputed with the exact
rounding (Eq. (1) links QT[i, j] to QT[i-1, j-1] alone).  The distances
gather from a float32 table over the keys a half correlation can reach.
The per-row methods keep numpy ``float16`` arithmetic: they are the
oracle the carrier path matches bit for bit.

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
from ._f16fast import F16_OVERFLOW, f16_exact, f16_flagged, split_f16
from .precalc import PrecalcResult
from .workspace import WorkspacePool

__all__ = ["DistCalcKernel"]


def _qt_to_dist_f16(corr: np.ndarray, m: int) -> np.ndarray:
    """The half-precision correlation -> distance chain of
    :meth:`DistCalcKernel._distances` on a half array ``corr``:
    ``saturate(sqrt(2m * max(1 - corr, 0)))``, every step rounded to
    half.  Everything after ``corr`` is a unary function of ``corr``, so
    the row-blocked path gathers it from :func:`_qt_to_dist_table_f16`
    and runs this chain only on the few elements the table does not
    cover."""
    one = np.float16(1)
    two_m = np.float16(2 * m)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = (one - corr).astype(np.float16)
        np.maximum(gap, np.float16(0), out=gap)
        dist = np.sqrt((two_m * gap).astype(np.float16)).astype(np.float16)
    limit = np.float16(DTYPE_MAX[np.dtype(np.float16)])
    return np.where(np.isfinite(dist), dist, limit).astype(np.float16)


def _nan_or_beyond(a: np.ndarray, limit: float) -> bool:
    """Whether ``a`` holds a NaN or a magnitude of at least ``limit``:
    a max and a min, no temporaries."""
    top = a.max()
    return bool(np.isnan(top) or top >= limit or a.min() <= -limit)


def _qt_to_dist_lut_f16(m: int) -> np.ndarray:
    """:func:`_qt_to_dist_f16` of every representable half, as a
    65536-entry table indexed by the half's bit pattern."""
    return _qt_to_dist_f16(np.arange(65536, dtype=np.uint16).view(np.float16), m)


#: Distances gather on correlations scaled by 2^DIST_SCALE_EXP (an
#: exact scale, folded into the second normaliser).  At this scale a
#: correlation's float32 bits, arithmetic-shifted by 13, give keys
#: ``k`` whose magnitudes ``|k|`` fall in two disjoint spans: positive
#: halves in ``[_DIST_KEY_LO, 2^17)`` and negative ones in ``(2^17,
#: 2^18 - _DIST_KEY_LO]``.  ``_DIST_KEY_LO`` is the scaled key of
#: 2^-25, which rounds to ``+0``, and ``2^18 - _DIST_KEY_LO`` that of
#: ``-2^-25``, so a gather clipped to the span sends ``+0`` and ``-0``
#: (``|k|`` = 0 and 2^18) to entries holding their distance.
DIST_SCALE_EXP = -15
_DIST_KEY_LO = (102 + DIST_SCALE_EXP) << 10
_DIST_KEY_SPAN = (1 << 18) - 2 * _DIST_KEY_LO + 1

#: A super-step with more flagged roundings than this many per row
#: recomputes its rows from the first flag on with the exact rounding
#: instead of walking the flagged diagonals one element at a time.
#: Timed against each other on the same flagged super-steps (d = 3,
#: m = 32, inputs that leave half precision), the walk was the faster
#: repair up to 8-11 flags per row and the redo from 16-22 on.
_DENSE_REPAIR = 12


@lru_cache(maxsize=32)
def _qt_to_dist_table_f16(m: int) -> np.ndarray:
    """The float32-valued distance of every half correlation whose
    scaled key (see ``DIST_SCALE_EXP``) lies in the span: entry ``|k| -
    _DIST_KEY_LO``.  About 330 KB per ``m``.  Zeros and normal halves
    are what the gather reads; the entries of subnormals, infinities and
    NaN go unused — those correlations fail the range check and get
    :func:`_qt_to_dist_f16` directly (``+inf`` and NaN need different
    distances, so no one end entry could hold both)."""
    # Built in place in a few span-sized buffers: the table is built
    # inside a job, where its temporaries add to the peak memory.
    key = np.arange(_DIST_KEY_LO, _DIST_KEY_LO + _DIST_KEY_SPAN, dtype=np.int32)
    negative = key > (1 << 17)
    np.subtract(1 << 18, key, out=key, where=negative)  # the magnitude's key
    key -= DIST_SCALE_EXP << 10  # unscaled
    key <<= 13  # float32 bits
    bits = key.view(np.uint32)
    np.bitwise_or(bits, np.uint32(0x80000000), out=bits, where=negative)
    with np.errstate(over="ignore"):
        halves = bits.view(np.float32).astype(np.float16)
    table = _qt_to_dist_lut_f16(m)[halves.view(np.uint16)].astype(np.float32)
    table.setflags(write=False)
    return table


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

    @property
    def carrier(self) -> np.dtype:
        """The dtype of the block path's buffers: half values live in
        float32 carriers (see ``_f16fast``), wider ones as themselves."""
        dtype = self.policy.compute
        return np.dtype(np.float32) if dtype == np.float16 else dtype

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
        than ``d * T`` chunks spaced a block apart.  Its dtype is
        :attr:`carrier`."""
        planes, width = self._inv_q.shape
        return (rows, planes, width)

    @contextmanager
    def lease(self, rows: int):
        """Lease the super-step buffers for blocks of up to ``rows`` rows
        from :attr:`pool`; yields the QT workspace
        (:meth:`workspace_shape`, in :attr:`carrier` dtype).  While the
        lease is open, :meth:`run_block` writes its distances into one
        leased ``(d * T, rows, width)`` buffer — a contiguous prefix per
        block, overwritten by the next block — instead of a fresh
        array."""
        planes, width = self._inv_q.shape
        dtype = self.carrier
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
        scratch, so the per-row cost is just the arithmetic itself.  At
        half precision the wide format is the carrier, so the mirrors
        are the carriers of the bound vectors.
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
        carrier = self.carrier
        self._qt_row0_c = self.pre.qt_row0.astype(carrier, copy=False)
        self._qt_col0_c = self._qt_col0.astype(carrier, copy=False)
        if dtype == np.float16:
            # Normalisers pre-scaled for the distance gather's keys
            # (exact: a power-of-two scale of half values).
            scale = np.float32(2.0 ** DIST_SCALE_EXP)
            self._inv_r_s = self._inv_r_w * scale
            self._inv_q_s = self._inv_q_w * scale
        # The split scratch (half) or the rounded first FMA (FP32).
        self._blk_step_q = np.empty((d, n_q - 1), dtype=carrier)
        if dtype == np.float16:
            # The exact rows of a dense repair (_redo_rows_exact).
            self._blk_half_rows = (np.empty((d, n_q - 1), dtype=dtype),
                                   np.empty((d, n_q - 1), dtype=dtype))
        self._blk_last = np.empty((d, n_q), dtype=carrier)  # the recurrence state
        self._blk_ready = True

    def _advance_qt_block(self, i0: int, rows: int, ws: np.ndarray) -> None:
        """Fill ``ws[r]`` with the QT planes of rows ``i0..i0+rows-1``.

        The same sequential Eq. (1) recurrence as :meth:`_advance_qt`
        (two wide-evaluated, once-rounded FMAs per row) with the
        ``rp_fma`` wrapper inlined.  At FP32 the quantisation happens
        through cast-assignments into preallocated buffers — numpy
        assignment rounds to the destination dtype exactly like
        ``astype`` — and each FMA's ``c`` operand is added in its narrow
        dtype directly (numpy promotes it through an exact widening cast
        inside the add), so no per-row widening passes or temporaries
        remain.  When the wide dtype *is* the compute dtype (FP64) there
        is nothing to round, and both adds write straight into the row.

        At half precision everything is a float32 carrier: each FMA is a
        float32 add and a Veltkamp split (:func:`~._f16fast.split_f16`)
        — the first FMA's rounded result stays in its product buffer,
        the second's goes straight into the row — with no range check in
        the row loop.  One check per super-step over those step values
        and the QT block then finds the rare roundings outside the
        split's exact domain, and :meth:`_repair_diagonals` redoes the
        diagonals they sit on.  Bit-identical to the per-row path.
        """
        self._ensure_block_state()
        dtype, wide = self.policy.compute, self._wide
        half = dtype == np.float16
        step_q = self._blk_step_q
        planes, width = self._inv_q.shape
        # The previous QT row: the last row of the preceding block (saved
        # by run_block) or, within the block, the row just written.
        prev = self.qt
        with np.errstate(over="ignore", invalid="ignore"), \
                self.pool.lease((rows, planes, width - 1), wide) as prod1, \
                self.pool.lease((rows, planes, width - 1), wide) as prod2:
            # The a*b products of both FMAs depend only on the row index,
            # not on the running QT state — hoist them out of the
            # sequential loop as two vectorised block multiplies
            # (element-wise, so the same wide products bit-for-bit).
            rows_r = slice(i0, i0 + rows)
            self._block_products(rows_r, prod1, prod2)
            # Column 0 never enters the recurrence of rows inside this
            # block (row r reads prev[:, :-1], i.e. the *previous* row's
            # column 0) — pre-write the whole strip in one assignment.
            ws[:rows, :, 0] = self._qt_col0_c[:, rows_r].T
            # Eq. (1) adds df_r*dg_q first; with the roles swapped that
            # product is prod2.
            first, second = (prod2, prod1) if self.transposed else (prod1, prod2)
            fused = wide == dtype
            for r in range(rows):
                row = ws[r]
                if i0 + r == 0:
                    row[...] = self._qt_row0_c
                elif fused:
                    tail = row[:, 1:]
                    np.add(first[r], prev[:, :-1], out=tail)
                    np.add(second[r], tail, out=tail)
                elif half:
                    t = first[r]
                    np.add(t, prev[:, :-1], out=t)
                    split_f16(t, step_q, t)  # the step stays in first[r]
                    t2 = second[r]
                    np.add(t2, t, out=t2)
                    tail = row[:, 1:]
                    split_f16(t2, tail, tail)
                else:
                    t = first[r]  # consumed once, so += in place is fine
                    np.add(t, prev[:, :-1], out=t)  # c widened in the add
                    step_q[...] = t  # single rounding of the fused a*b + c
                    t = second[r]
                    np.add(t, step_q, out=t)  # exact widening in the add
                    row[:, 1:] = t  # single rounding of the second FMA
                prev = row
            if half:
                # Row 0 of the tile is the seed row, and column 0 the
                # seed column: neither went through the split.
                lo = 1 if i0 == 0 else 0
                steps, block = first[lo:rows], ws[lo:rows, :, 1:]
                flat = [f16_flagged(part, self.pool) for part in (steps, block)]
                count = flat[0].size + flat[1].size
                if count > _DENSE_REPAIR * rows:
                    per_row = planes * (width - 1)
                    first_row = lo + min(int(f[0]) // per_row for f in flat if f.size)
                    self._block_products(rows_r, prod1, prod2)
                    self._redo_rows_exact(i0, first_row, rows, ws, first, second)
                elif count:
                    r_f, p_f, c_f = (np.concatenate(axis) for axis in zip(*(
                        np.unravel_index(f, steps.shape) for f in flat)))
                    self._repair_diagonals(i0, ws[:rows], r_f + lo, p_f, c_f + 1)

    def _block_products(self, rows_r: slice, prod1: np.ndarray, prod2: np.ndarray) -> None:
        """The a*b products of Eq. (1)'s two FMAs for the rows ``rows_r``:
        ``prod1 = df_r * dg_q`` and ``prod2 = df_q * dg_r``, in the wide
        dtype (exact for halves: 22 significant bits fit float32's 24)."""
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

    def _redo_rows_exact(self, i0, r0, rows, ws, first, second) -> None:
        """Recompute the half-precision QT rows ``r0..rows-1`` of the
        block with the exact ``astype`` rounding (cast-assignments
        through the half row buffers), from the products ``first`` and
        ``second``: the repair for a super-step whose flags are too many
        to walk diagonal by diagonal (inputs that overflow or underflow
        half precision wholesale)."""
        step16, row16 = self._blk_half_rows
        for r in range(r0, rows):
            if i0 + r == 0:
                continue
            prev = ws[r - 1] if r > 0 else self.qt
            t = first[r]
            np.add(t, prev[:, :-1], out=t)
            step16[...] = t
            t = second[r]
            np.add(t, step16, out=t)
            row16[...] = t
            ws[r, :, 1:] = row16

    def _repair_diagonals(self, i0, ws, r_f, p_f, c_f) -> None:
        """Redo, with the exact rounding, the diagonals of the QT block
        ``ws`` (the super-step's rows) whose split roundings fell outside
        the exact domain.

        Eq. (1) links QT[i, j] only to QT[i-1, j-1], so a wrong rounding
        spoils its own diagonal from there on and nothing else.  Every
        flagged step or QT value — block row ``r_f``, plane ``p_f``,
        column ``c_f`` — marks its diagonal from its row on.  Each
        diagonal is walked element by element from its first flag: the
        element is recomputed from the (already repaired) element
        above-left with the ``astype`` rounding, and the walk skips to
        the diagonal's next flag once the recomputed value equals the
        stored one bit for bit — from there on the stored values were
        computed from the same inputs.  The repaired last row is what
        the next super-step starts from."""
        rows, _, width = ws.shape
        flags: dict = {}
        for r, p, c in zip(r_f.tolist(), p_f.tolist(), c_f.tolist()):
            flags.setdefault((p, c - r), set()).add(r)
        prev_row = self.qt
        df_r, dg_r, df_q, dg_q = self._df_r_w, self._dg_r_w, self._df_q_w, self._dg_q_w
        bits = np.uint32
        with np.errstate(over="ignore", invalid="ignore"):
            for (p, off), marked in flags.items():
                marked = sorted(marked)
                r, k = marked[0], 1
                while r < rows and off + r < width:
                    col = off + r
                    above = ws[r - 1, p, col - 1] if r > 0 else prev_row[p, col - 1]
                    i = i0 + r
                    a, b = df_r[p, i] * dg_q[p, col], df_q[p, col] * dg_r[p, i]
                    if self.transposed:
                        a, b = b, a
                    step = np.float32(np.float16(a + above))
                    qt = np.float32(np.float16(b + step))
                    if qt.view(bits) != ws[r, p, col].view(bits):
                        ws[r, p, col] = qt
                        r += 1
                        continue
                    while k < len(marked) and marked[k] <= r:
                        k += 1
                    if k == len(marked):
                        break
                    r = marked[k]

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
        width)`` carrier QT block ``ws`` into the ``(d * T, rows,
        width)`` carrier buffer ``out``.

        The two genuine binary multiplies run the way numpy's half ufuncs
        define them — float32 product (exact: both operands are
        half-valued) and one rounding to half, here a Veltkamp split —
        and the unary tail collapses into one gather of float32
        distances (:func:`_qt_to_dist_table_f16`).  The second multiply
        uses the normaliser pre-scaled by ``2^DIST_SCALE_EXP``, so the
        rounded correlation arrives scaled for the gather's keys.

        A split outside its exact domain is wrong in one of two ways
        (see ``_f16fast``): below 2^-14 in magnitude, where the exact
        rounding lies too, or as an overflow or NaN.  Every correlation
        of magnitude up to 2^-12 has the distance of 0 (``1 - corr``
        rounds to 1), and the table holds that distance for all their
        keys, so a small wrong rounding changes no distance unless it
        is the first product's and the second normaliser exceeds 4.
        Hence the rule: a max and a min of each rounded product look for
        NaN and overflow, and the first product is also checked for
        small values when the second normaliser exceeds 4.  A product
        that fails gets :func:`~._f16fast.f16_flagged`, and the flagged
        elements take the exact chain (``astype`` roundings and
        :func:`_qt_to_dist_f16`); everywhere else the gathered distance
        is the chain's.  Bit-identical to the per-row chain.  The
        correlations, the check's scratch and the gather keys are leased
        from :attr:`pool`.
        """
        self._ensure_block_state()
        pool = self.pool
        first, second = self._normalisers(
            self._inv_r_w[:, i0 : i0 + rows, None], self._inv_q_w[:, None, :]
        )
        scaled = self._normalisers(
            self._inv_r_s[:, i0 : i0 + rows, None], self._inv_q_s[:, None, :]
        )[1]
        with np.errstate(over="ignore", invalid="ignore"), \
                pool.lease(out.shape, np.float32) as corr:
            # The layout transpose rides the first multiply.
            np.multiply(ws.transpose(1, 0, 2), first, out=corr)
            split_f16(corr, out, out)
            flagged = []
            if not second.max() <= 4 or _nan_or_beyond(out, F16_OVERFLOW):
                flagged.append(f16_flagged(out, pool))
            np.multiply(out, scaled, out=corr)
            split_f16(corr, out, out)
            if _nan_or_beyond(out, F16_OVERFLOW * 2.0**DIST_SCALE_EXP):
                flagged.append(f16_flagged(out, pool, DIST_SCALE_EXP))
            with pool.lease(out.shape, np.intp) as keys:
                np.right_shift(out.view(np.int32), 13, out=keys)
                np.abs(keys, out=keys)
                keys -= _DIST_KEY_LO
                np.take(_qt_to_dist_table_f16(self.pre.m), keys, out=out, mode="clip")
            if flagged:
                # An element flagged twice is redone twice, identically.
                idx = np.concatenate(flagged)
                p, r, j = np.unravel_index(idx, out.shape)
                corr1 = f16_exact(ws[r, p, j] * np.broadcast_to(first, out.shape)[p, r, j])
                corr2 = corr1 * np.broadcast_to(second, out.shape)[p, r, j]
                out.reshape(-1)[idx] = _qt_to_dist_f16(corr2.astype(np.float16), self.pre.m)

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

        ``workspace`` is a :attr:`carrier`-dtype QT buffer of
        :meth:`workspace_shape` for at least ``rows`` rows (take it from
        :meth:`lease`); the
        sequential recurrence fills its first ``rows`` contiguous row
        planes (no per-row temporaries), and the QT -> distance
        conversion then runs once over the whole block.  Every operation
        is element-wise, so the result is bit-for-bit identical to
        ``rows`` consecutive :meth:`run` calls — at half precision as
        float32 carriers of those bits.  Nothing is charged: the caller
        charges the tile.  Returns the ``(d, rows, n_q)`` :attr:`carrier`
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
        if workspace.dtype != self.carrier:
            raise TypeError(
                f"run_block needs a {self.carrier} workspace (see lease()), "
                f"got {workspace.dtype}"
            )
        planes, width = self._inv_q.shape
        self._advance_qt_block(i0, rows, workspace)
        # The workspace is reused by the caller; keep the recurrence state
        # in a private copy of the last row.
        np.copyto(self._blk_last, workspace[rows - 1])
        self.qt = self._blk_last
        if self._dist_buf is None:
            dist = np.empty((planes, rows, width), dtype=self.carrier)
        else:
            dist = self._dist_buf[: planes * rows * width].reshape(planes, rows, width)
        if self.policy.compute == np.float16:
            self._distances_block_f16(workspace[:rows], i0, rows, dist)
        else:
            self._distances_block(workspace[:rows], i0, rows, dist)
        return dist
