"""Tensor-core main loop: the ``dist_calc`` recurrence as chained GEMMs.

The streaming recurrence of Eq. (1),

    QT[i, j] = QT[i-1, j-1] + df_r[i]*dg_q[j] + df_q[j]*dg_r[i]

advances one row per step, which on hardware costs one kernel launch per
row and keeps the FMA pipes at vector-FP16 rates.  This kernel executes a
whole ``TC_PANEL_ROWS x n_q`` panel per super-step on the (simulated)
tensor-core unit instead, following the playbook of Curless (*Mixed
Precision Euclidean Distance Using Tensor Cores*) and Navarro et al.
(*Tensor Cores for Arithmetic Reductions*):

1. **Rank-2 update GEMM.**  The per-row update term
   ``u[t, j] = df_r[i0+t]*dg_q[j] + df_q[j]*dg_r[i0+t]`` over the whole
   panel is exactly a k=2 GEMM with FP16 operands (``df``/``dg`` are
   storage-dtype halves) and an FP32 accumulator — each product of two
   halves is exact in float32, so the batched ``(T, 2) @ (2, n_q)``
   matmul below *is* the WMMA result bit-for-bit.

2. **Diagonal shear.**  In diagonal coordinates ``q = j - t`` the
   recurrence decouples: ``QT[i0+t, q+t] = QT[i0-1, q-1] + sum_{s<=t}
   U[s, q]`` with ``U[s, q] = u[s, q+s]``.  The shear is a zero-copy
   strided view of the zero-padded update panel; the base row is
   *independent of t*, so it folds into the accumulator's initial value.

3. **Chained-MMA prefix sum.**  The column prefix over ``t`` is a matmul
   with the lower-triangular all-ones matrix, evaluated in chained
   ``MMA_K``-row chunks whose running carry lives in the FP32 accumulator
   fragment (Navarro's chained-reduction trick).  To enter the chain each
   update term is first demoted to FP16 — the *per-operation operand
   rounding* of WMMA semantics — but every addition thereafter rounds in
   FP32.  That flips the error structure of the vector half loop: the
   per-step ``eps16`` growth becomes a constant, and only an ``eps32``
   growth term remains (see ``precision.errors.tc_gemm_error_bound``).

4. **Corner chains.**  Diagonals entering through column 0 *inside* the
   block (``j <= t``) restart from the precalculated ``qt_col0`` entries;
   they form a second sheared panel, ``TC_PANEL_ROWS`` wide, fed through
   the same chained prefix with ``qt_col0`` as the initial carry.

5. **Fused FP32 epilogue.**  The panel's QT values end the chain in the
   FP32 accumulator, so the correlation -> distance conversion runs in
   float32 *before* anything is stored: on hardware the normalisation
   multiplies and the square root execute on the accumulator fragment in
   registers, and the distance panel flows to the sort stage through
   shared memory without a half round-trip.  Only two narrow stores
   remain per chain: the block-boundary QT row and (after sort/update)
   the winning profile entry.  The distance block this kernel returns is
   therefore float32 — ``SortScanKernel`` (``mma_scan``) and
   ``UpdateKernel`` consume it in that form, and the cost model
   (``repro.gpu.perfmodel.tc_dist_calc_cost``) keeps charging
   storage-dtype planes (the modelled device still moves FP16;
   register-file conversions are free on hardware).

Every step is batched over the leading plane axis, so a stack of tiles
runs its ``d * T`` planes side by side on the vector path's stacked,
leased main loop, each bit-identical to its tile run alone.

Only the FP16-storage wide-precalc modes (Mixed, FP16C) are eligible —
see ``precision.modes.TENSOR_CORE_MODES``; the backend falls back to the
vector path for everything else.  The result is numerically *different*
from the vector modes (that is the point: FP32 accumulation), so the
tensor-core path is a distinct cache-key axis, not a bit-identical
rewrite.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..gpu.perfmodel import MMA_K
from ..precision.modes import DTYPE_MAX, TENSOR_CORE_MODES
from .dist_calc import DistCalcKernel
from .precalc import PrecalcResult

__all__ = ["TcGemmKernel", "TC_PANEL_ROWS", "MMA_K"]

#: Panel height of the tensor-core main loop: reference rows per chained-
#: GEMM super-step.  The panel boundary is where the FP32 accumulator is
#: stored back to FP16, so the height is part of the numerics and is
#: fixed here rather than derived from the host's super-step budget.
TC_PANEL_ROWS = 32

#: FP16 saturation value used by the fused epilogue (the storage format's
#: largest finite value, kept in float32).
_F16_LIMIT = np.float32(DTYPE_MAX[np.dtype(np.float16)])

# Bit thresholds of the float32 -> float16 quantiser below: |x| < 2^-14
# (the result is an FP16 subnormal) and |x| >= 65520 (the result
# overflows to infinity; 65520 is the exact rounding boundary).
_MAG_MASK = np.uint32(0x7FFFFFFF)
_SUBNORMAL_LIM = np.uint32(0x38800000)
_OVERFLOW_LIM = np.uint32(0x477FF000)
#: Round-to-grid constant: adding then subtracting 0.75 rounds any
#: |x| < 2^-14 to the FP16 subnormal grid (2^-24) with RNE, exactly.
_GRID_C = np.float32(0.75)


@lru_cache(maxsize=16)
def _ltri_f32(k: int) -> np.ndarray:
    """Lower-triangular all-ones (k, k) float32 matrix — the inclusive
    prefix-sum operator ``S = L @ U``.  Ones and zeros are exact halves,
    so using it as an FP16 MMA operand loses nothing."""
    tri = np.tril(np.ones((k, k), dtype=np.float32))
    tri.setflags(write=False)
    return tri


@lru_cache(maxsize=32)
def _corner_indices(T: int, n_q: int, pad_w: int):
    """Gather indices and mask for the corner chains of a ``T x n_q``
    panel whose padded update panel is ``pad_w`` wide.

    * ``idx_w``: ``W[s, a] = Pd[s, max(s-a, 0)]`` — the corner shear;
      clipped indices land on the padded panel's all-zero column 0, which
      is exactly the ``s <= a`` zero prefix the corner chain needs.
    * ``idx_corner`` + ``mask_corner``: ``out[t, j] = P[t, t-j]`` where
      ``1 <= j <= t`` (P is the corner chain's prefix panel).
    """
    s = np.arange(T, dtype=np.intp)[:, None]
    a = np.arange(T, dtype=np.intp)[None, :]
    idx_w = (s * pad_w + np.maximum(s - a, 0)).ravel()
    t = np.arange(T, dtype=np.intp)[:, None]
    cj = min(T, n_q)
    jc = np.arange(cj, dtype=np.intp)[None, :]
    idx_corner = (t * T + np.clip(t - jc, 0, T - 1)).ravel()
    mask_corner = ((jc >= 1) & (jc <= t))[None, :, :]
    out = (idx_w, idx_corner, mask_corner)
    for arr in out:
        arr.setflags(write=False)
    return out


@dataclass
class TcGemmKernel(DistCalcKernel):
    """Packed-panel tensor-core execution of the ``dist_calc`` main loop.

    Reuses the parent's operand binding and tile axis but replaces the
    sequential per-row recurrence of :meth:`run_block` with the sheared
    chained-GEMM panel described in the module docstring.  :meth:`run_block` returns the distance block
    as *float32* (the fused epilogue's accumulator contents); pair it
    with ``SortScanKernel(mma_scan=True)`` and the stock
    ``UpdateKernel``, which reduce the wide panel before the single FP16
    store.
    """

    def bind(self, pre: PrecalcResult) -> None:
        """:meth:`DistCalcKernel.bind` for the row-major panel walk (it
        never runs transposed), one tile or a stack."""
        if self.policy.mode not in TENSOR_CORE_MODES:
            eligible = ", ".join(m.value for m in TENSOR_CORE_MODES)
            raise ValueError(
                f"tensor-core main loop requires an FP16-storage wide-precalc"
                f" mode ({eligible}), got {self.policy.mode.value}"
            )
        super().bind(pre)
        self._scratch = None  # the panel buffers of an open lease()

    def _ensure_block_state(self) -> None:
        if self._blk_ready:
            return
        super()._ensure_block_state()
        self._qt_col0_w = self._qt_col0.astype(self._wide)
        # The fused epilogue folds the 2m distance scale into the row
        # normaliser: D^2 = 2m - QT * (2m * inv_r) * inv_q.
        self._two_m_w = np.float32(2 * self.pre.m)
        self._inv_r_2m = (self._inv_r_w * self._two_m_w).astype(np.float32)

    @contextmanager
    def lease(self, rows: int):
        """Lease the float32 panels for panels of up to ``rows`` rows from
        :attr:`pool` while open; yields ``None`` (the QT lives in the
        accumulator panels, not a workspace).  :meth:`run_block` then
        returns its distances in the leased ``"out"`` panel.  The rank-2
        GEMM's right operand is written once here, zero-padded so the
        batched matmul emits the sheared panel's zero border (column 0
        and the wrap-around columns) for free."""
        self._ensure_block_state()
        planes, n_q = self._inv_q.shape
        width = n_q + rows
        sizes = {
            "B": 2 * width,
            "A": rows * 2,
            "pad": rows * width,
            "cornerW": rows * rows,
            "scanS": rows * ((rows - 1) + (n_q - 1)),
            "scanP": rows * rows,
            "chunk": min(MMA_K, rows) * (n_q - 1),
            "out": rows * n_q,
        }
        with ExitStack() as stack:
            bufs = {
                kind: stack.enter_context(self.pool.lease((planes * size,), np.float32))
                for kind, size in sizes.items()
            }
            B = bufs["B"].reshape(planes, 2, width)
            B.fill(0.0)
            B[:, 0, 1:n_q] = self._dg_q_w[:, 1:]
            B[:, 1, 1:n_q] = self._df_q_w[:, 1:]
            bufs["B"] = B
            self._scratch = bufs
            try:
                yield None
            finally:
                self._scratch = None

    def _buf(self, kind: str, T: int, cols: int) -> np.ndarray:
        """The leased ``(d * tiles, T, cols)`` float32 panel ``kind``: a
        contiguous prefix of its buffer, fully overwritten by each use."""
        planes = self._inv_q.shape[0]
        return self._scratch[kind][: planes * T * cols].reshape(planes, T, cols)

    def _quantise_f16(self, buf: np.ndarray) -> None:
        """In-place float32 -> FP16-valued float32 quantisation (RNE) —
        the operand rounding that loads ``buf`` into MMA fragments.

        Equivalent to ``buf.astype(float16).astype(float32)`` except the
        sign of a negative zero may flip (irrelevant: the values feed
        additions only).  Normal-range values round via the classic
        mantissa bit trick; subnormal results via an exact add/subtract
        against 0.75, which forces RNE onto the 2^-24 grid — both fully
        vectorised, unlike the boolean-gather fallback of
        ``_f16fast.round_f16_inplace``, whose cost explodes as soon as a
        single update term lands below 2^-14 (common for df*dg products).
        Overflow/NaN/inf entries take a gathered scalar fallback, rare by
        the same magnitude argument.  The four temporaries are leased
        from :attr:`pool` per call, like the half path's rounding
        temporaries.
        """
        pool = self.pool
        with pool.lease(buf.shape, np.uint32) as mag, \
                pool.lease(buf.shape, np.uint32) as gbuf, \
                pool.lease(buf.shape, np.float32) as tmp32, \
                pool.lease(buf.shape, bool) as small:
            v = buf.view(np.uint32)
            np.bitwise_and(v, _MAG_MASK, out=mag)
            top = mag.max()
            ext_mask = ext_vals = None
            if top >= _OVERFLOW_LIM:
                ext_mask = mag >= _OVERFLOW_LIM
                with np.errstate(over="ignore"):
                    ext_vals = buf[ext_mask].astype(np.float16).astype(np.float32)
            np.less(mag, _SUBNORMAL_LIM, out=small)
            has_small = bool(small.any())
            if has_small:
                np.add(buf, _GRID_C, out=tmp32)
                np.subtract(tmp32, _GRID_C, out=tmp32)
            # RNE bit trick for the normal range, in place.
            np.right_shift(v, np.uint32(13), out=gbuf)
            np.bitwise_and(gbuf, np.uint32(1), out=gbuf)
            np.add(gbuf, v, out=gbuf)
            np.add(gbuf, np.uint32(0x0FFF), out=gbuf)
            np.bitwise_and(gbuf, np.uint32(0xFFFFE000), out=v)
            if has_small:
                np.copyto(buf, tmp32, where=small)
            if ext_mask is not None:
                buf[ext_mask] = ext_vals

    def _panel(
        self, i_start: int, T: int, base_f16: np.ndarray, out: np.ndarray
    ) -> None:
        """Write the QT planes of rows ``i_start .. i_start+T-1``, given
        the previous row ``base_f16``, into the ``(d * tiles, T, n_q)``
        float32 panel ``out`` (the FP32 accumulator contents)."""
        d, n_q = self._inv_q.shape
        if n_q == 1:
            out[:, :, 0] = self._qt_col0_w[:, i_start : i_start + T]
            return

        # Rank-2 update GEMM: exact FP16xFP16 products accumulated in
        # FP32, then one demotion to FP16 — the operand quantisation
        # feeding the prefix chain's MMA fragments.  The zero-padded
        # right operand makes the matmul emit the sheared panel's zero
        # border for free.
        A = self._buf("A", T, 2)
        A[:, :, 0] = self._df_r_w[:, i_start : i_start + T]
        A[:, :, 1] = self._dg_r_w[:, i_start : i_start + T]
        B = self._scratch["B"][:, :, : n_q + T]
        pad = self._buf("pad", T, n_q + T)
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(A, B, out=pad)
            self._quantise_f16(pad)

        # Diagonal shear as a zero-copy strided view:
        # main[k, s, q'] = pad[k, s, q'+1+s].
        sd, sr, sc = pad.strides
        main_v = as_strided(
            pad[:, :, 1:], shape=(d, T, n_q - 1), strides=(sd, sr + sc, sc)
        )
        idx_w, idx_corner, mask_corner = _corner_indices(T, n_q, n_q + T)
        cornerW = self._buf("cornerW", T, T)
        np.take(pad.reshape(d, -1), idx_w, axis=1, out=cornerW.reshape(d, -1))

        # Chained-MMA prefix: MMA_K-row chunks, FP32 carry in the
        # accumulator fragment.  The base QT row (main diagonals) and the
        # qt_col0 entries (corner diagonals) seed the carries.  The scan
        # buffer carries T-1 left-padding columns so the un-shear below
        # is a strided copy instead of a gather.
        SB = self._buf("scanS", T, (T - 1) + (n_q - 1))
        real = SB[:, :, T - 1 :]
        scanP = self._buf("scanP", T, T)
        tmpc = self._buf("chunk", min(MMA_K, T), n_q - 1)
        carry_s = base_f16.astype(np.float32)[:, None, : n_q - 1]
        carry_p = self._qt_col0_w[:, None, i_start : i_start + T]
        with np.errstate(over="ignore", invalid="ignore"):
            for c0 in range(0, T, MMA_K):
                r = min(MMA_K, T - c0)
                tri = _ltri_f32(r)
                chunk = tmpc[:, :r]
                np.matmul(tri, main_v[:, c0 : c0 + r], out=chunk)
                np.add(chunk, carry_s, out=chunk)
                real[:, c0 : c0 + r] = chunk
                carry_s = real[:, c0 + r - 1 : c0 + r]
                np.matmul(tri, cornerW[:, c0 : c0 + r], out=scanP[:, c0 : c0 + r])
                np.add(
                    scanP[:, c0 : c0 + r], carry_p, out=scanP[:, c0 : c0 + r]
                )
                carry_p = scanP[:, c0 + r - 1 : c0 + r]

        # Un-shear back to row coordinates: strided copy for the main
        # diagonals, gathered overlay for the corner chains, and the
        # direct column-0 strip.
        ssd, ssr, ssc = SB.strides
        un_v = as_strided(
            SB[:, :, T - 1 :], shape=(d, T, n_q - 1), strides=(ssd, ssr - ssc, ssc)
        )
        np.copyto(out[:, :, 1:], un_v)
        cj = min(T, n_q)
        corner_vals = self._buf("cornerW", T, cj)  # the shear is consumed
        np.take(scanP.reshape(d, -1), idx_corner, axis=1, out=corner_vals.reshape(d, -1))
        np.copyto(out[:, :, :cj], corner_vals, where=mask_corner)
        out[:, :, 0] = self._qt_col0_w[:, i_start : i_start + T]

    def run_block(self, i0: int, rows: int, workspace: np.ndarray | None) -> np.ndarray:
        """Tensor-core super-step: one packed-panel launch for ``rows``
        reference rows; nothing is charged (the caller charges the tile).
        ``workspace`` (the vector path's QT block buffer)
        is unused — the panel lives in the FP32 accumulator scratch and
        only the block-boundary row is demoted to FP16 storage.  Returns
        the ``(d, rows, n_q)`` *float32* distance block (see the module
        docstring on the fused epilogue) — ``d`` counting the ``d * T``
        rows of a stacked binding — in the leased buffer of an
        open :meth:`lease`, else in a fresh array."""
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        if i0 != 0 and self.qt is None:
            raise RuntimeError("rows must be visited in order starting at 0")
        if self._scratch is None:
            with self.lease(rows):
                return self.run_block(i0, rows, workspace).copy()
        n_q = self._inv_q.shape[1]
        out_w = self._buf("out", rows, n_q)
        if i0 == 0:
            out_w[:, 0] = self.pre.qt_row0
            if rows > 1:
                self._panel(1, rows - 1, self.pre.qt_row0, out_w[:, 1:])
        else:
            self._panel(i0, rows, self.qt, out_w)
        with np.errstate(over="ignore", invalid="ignore"):
            # Block-boundary FP16 store: the only narrow QT rounding per
            # chain.
            self.qt = out_w[:, rows - 1].astype(self.policy.compute)
            # Fused FP32 epilogue on the accumulator fragment:
            # D = sqrt(2m - QT * (2m * inv_r) * inv_q), saturated.
            np.multiply(out_w, self._inv_r_2m[:, i0 : i0 + rows, None], out=out_w)
            np.multiply(out_w, self._inv_q_w[:, None, :], out=out_w)
            np.subtract(self._two_m_w, out_w, out=out_w)
            np.maximum(out_w, np.float32(0.0), out=out_w)
            np.sqrt(out_w, out=out_w)
            top = np.max(out_w)
            if not np.isfinite(top) or top > _F16_LIMIT:
                fin = np.isfinite(out_w)
                np.invert(fin, out=fin)
                np.copyto(out_w, _F16_LIMIT, where=fin)
                np.minimum(out_w, _F16_LIMIT, out=out_w)
        return out_w
