"""Vectorised half-precision rounding for the row-blocked fast path.

numpy's ``float16`` ufuncs are scalar C loops: every element is widened
to ``float32``, computed there, and rounded back to half.  That makes
each half-precision operation ~7x slower than the same ``float32``
vector op.  The row-blocked kernels therefore evaluate half arithmetic
the way the hardware pipeline (and numpy itself) defines it — a
``float32`` vector op followed by one round-to-nearest-even conversion
to half — but keep the values *in* ``float32`` storage and perform the
conversion with integer bit manipulation instead of the scalar loop:

* a ``float32`` value is half-valued iff its mantissa bits below bit 13
  are zero (half has 10 explicit mantissa bits against single's 23), so
  rounding to half precision in the normal half range is
  ``(bits + 0xFFF + lsb) & ~0x1FFF`` — textbook RNE with the carry into
  the exponent handling the mantissa wrap for free;
* magnitudes that carry to >= 2^16 overflow to infinity, exactly like
  ``astype(float16)``;
* subnormal-half magnitudes and zeros round via an exact add/subtract
  against 0.75 that lands them on the 2^-24 subnormal grid with RNE
  (the same vectorised quantiser as ``TcGemmKernel``); only
  overflow-adjacent magnitudes and NaNs take the ``astype`` round trip.

Both entry points are verified against ``astype(np.float16)`` — the
checks in ``tests/test_row_blocking.py`` sample the full bit range and
every boundary (subnormal limits, 65504/65520, infinities, NaNs).
"""

from __future__ import annotations

import numpy as np

from .workspace import WorkspacePool

__all__ = [
    "round_f16_inplace",
    "round_f16_nonneg_inplace",
    "f16_lut19",
    "f16_keys19",
]

_MAG_MASK = np.uint32(0x7FFFFFFF)
_SIGN_MASK = np.uint32(0x80000000)
_MIN_NORM16 = np.uint32(0x38800000)  # 2^-14, smallest normal half, as f32 bits
_INF_F32 = np.uint32(0x7F800000)
_CARRY_INF = np.uint32(0x47800000)  # 65536.0f: rounded magnitudes here and up -> inf
_NEAR_INF = np.uint32(0x477F0000)  # conservative "might round to inf" threshold
#: 65520.0f — the smallest magnitude whose RNE half rounding overflows to
#: inf; from here up (and for NaNs) the gathered ``astype`` fallback runs.
_OVERFLOW_LIM = np.uint32(0x477FF000)
#: Adding then subtracting 0.75 forces RNE onto the half-subnormal 2^-24
#: grid: for |x| < 2^-14 the sum lands in [0.75 - 2^-14, 0.75 + 2^-14],
#: where the float32 mantissa ulp is exactly 2^-24, and the subtraction
#: is exact by Sterbenz.
_GRID_C = np.float32(0.75)


def _rne_trick_inplace(u: np.ndarray, pool: WorkspacePool) -> None:
    """Round the f32 bit patterns in ``u`` (uint32 view) to half-valued
    patterns, round-to-nearest-even.  Domain: zeros, infinities and
    magnitudes in the normal half range (carry to inf handled by the
    callers); subnormal-half magnitudes and NaNs must not be present."""
    with pool.lease(u.shape, np.uint32) as odd:
        np.right_shift(u, np.uint32(13), out=odd)
        odd &= np.uint32(1)
        odd += np.uint32(0x0FFF)
        u += odd
    u &= np.uint32(0xFFFFE000)


def _carry_fix_inplace(u: np.ndarray, mag_hint: int) -> None:
    """Replace rounded magnitudes >= 2^16 with signed infinity (the
    overflow behaviour of the half conversion).  Skipped entirely when
    ``mag_hint`` shows no element can be near the boundary."""
    if mag_hint < int(_NEAR_INF):
        return
    mag = u & _MAG_MASK
    np.copyto(u, (u & _SIGN_MASK) | _INF_F32, where=mag >= _CARRY_INF)


def round_f16_nonneg_inplace(buf: np.ndarray, pool: WorkspacePool | None = None) -> None:
    """In-place ``buf = buf.astype(float16).astype(float32)`` for
    non-negative, NaN-free float32 data whose values are either zero,
    exactly representable in half (e.g. sums of two subnormal-range
    halves, which land on the half grid and pass through the trick
    unchanged), or in the normal/overflow half range.

    This is the scan-stage case: sums of sorted, saturated distances.
    The temporary comes from ``pool`` (a private one when omitted).
    """
    u = buf.view(np.uint32)
    mag_hint = int(u.max()) if u.size else 0
    _rne_trick_inplace(u, pool or WorkspacePool())
    _carry_fix_inplace(u, mag_hint)


def round_f16_inplace(buf: np.ndarray, pool: WorkspacePool | None = None) -> None:
    """In-place ``buf = buf.astype(float16).astype(float32)`` for any
    float32 data.

    The bit trick covers the normal half range; half-subnormal
    magnitudes and zeros (any correlation within ~6e-5 of zero lands
    here, so a large block almost always contains a few) round via an
    exact add/subtract against ``_GRID_C`` that forces RNE onto the
    2^-24 subnormal grid — fully vectorised, where the old
    boolean-gather patch degraded as soon as a single update term fell
    below 2^-14.  The trick returns ``+0.0`` for magnitudes that round
    to zero, so the original sign bit is OR-ed back (IEEE rounding never
    flips a sign), keeping ``-0.0`` and negative underflow bit-exact.
    Only overflow-adjacent magnitudes (>= 65520, which RNE sends to inf)
    and NaNs still take the gathered scalar ``astype`` round trip, rare
    in saturated distance data.  The block-sized temporaries come from
    ``pool`` (a private one when omitted).
    """
    pool = pool or WorkspacePool()
    u = buf.view(np.uint32)
    with pool.lease(buf.shape, np.uint32) as mag, \
            pool.lease(buf.shape, np.bool_) as small:
        np.bitwise_and(u, _MAG_MASK, out=mag)
        top = int(mag.max()) if mag.size else 0
        ext_mask = ext_vals = None
        if top >= int(_OVERFLOW_LIM):
            ext_mask = mag >= _OVERFLOW_LIM
            with np.errstate(over="ignore", invalid="ignore"):
                ext_vals = buf[ext_mask].astype(np.float16).astype(np.float32)
        np.less(mag, _MIN_NORM16, out=small)
        if not small.any():
            _rne_trick_inplace(u, pool)
        else:
            with pool.lease(buf.shape, np.float32) as grid:
                # errstate: a signaling NaN elsewhere in the buffer would
                # raise "invalid" here; NaN entries are patched by the ext
                # gather.
                with np.errstate(invalid="ignore"):
                    np.add(buf, _GRID_C, out=grid)
                    grid -= _GRID_C
                # Only the small entries are copied back, so the sign can
                # be OR-ed into the whole grid (``mag`` is spent).
                sign = np.bitwise_and(u, _SIGN_MASK, out=mag)
                grid_bits = grid.view(np.uint32)
                grid_bits |= sign
                _rne_trick_inplace(u, pool)
                np.copyto(buf, grid, where=small)
    if ext_mask is not None:
        buf[ext_mask] = ext_vals


def f16_keys19(buf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The 19-bit table key (sign + exponent + 10 mantissa bits) of each
    half-valued float32 element — distinct half values give distinct
    keys, so a 2^19 table gathers any per-value map in one pass.
    ``out`` may be an ``intp`` array, the index dtype ``np.take`` uses
    without converting."""
    return np.right_shift(buf.view(np.uint32), np.uint32(13), out=out)


def f16_lut19(lut16: np.ndarray) -> np.ndarray:
    """Re-key a 65536-entry half-indexed table to the 19-bit float32 key
    space of :func:`f16_keys19` (entries at unreachable keys stay 0)."""
    vals = np.arange(65536, dtype=np.uint16).view(np.float16)
    keys = vals.astype(np.float32).view(np.uint32) >> np.uint32(13)
    table = np.zeros(1 << 19, dtype=lut16.dtype)
    table[keys] = lut16
    table.setflags(write=False)
    return table
