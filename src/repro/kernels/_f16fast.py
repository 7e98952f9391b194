"""Half precision on float32 carriers.

numpy's ``float16`` ufuncs are scalar C loops: every element is widened
to ``float32``, computed there, and rounded back to half, and a
``float32 -> float16`` cast is a scalar loop too.  The row-blocked
kernels therefore hold half-precision values in ``float32`` arrays
("carriers": every element is a half value) and evaluate each half
operation the way numpy defines it — one ``float32`` vector op — followed
by one vectorised rounding to half precision:

* **Veltkamp splitting.**  With ``C = 2^13 + 1``, ``c = x * C`` and
  ``hi = c - (c - x)`` in float32, ``hi`` is ``x`` rounded to the 11
  significant bits of a half, round-to-nearest-even.  For every float32
  with ``|x|`` in ``[2^-14, 2^16)`` (the normal half range plus the
  values that round to infinity) this equals
  ``x.astype(float16).astype(float32)`` bit for bit, except that values
  rounding to infinity come out as finite magnitudes ``>= 2^16``
  (:func:`split_f16`, three ufuncs).
* **Range check.**  Outside that domain — half subnormals, zeros that a
  tiny ``x`` rounds to, overflow, infinities and NaN — the split is
  wrong, and recognisably so on its *result*: ``0 < |hi| <= 2^-14``,
  ``|hi| >= 2^16`` or NaN.  Exact zeros are exact.  One
  ``bitwise_and`` of the magnitude bits and a min and a max decide
  whether a whole buffer is clean; only a buffer that is not pays for
  the positions to redo with the exact ``astype`` round trip
  (:func:`f16_flagged`, :func:`f16_exact`).

:func:`round_f16` is the whole primitive (it runs the same check on the
split's first product, so it needs no copy of its input); the kernels
that can defer the check — the QT recurrence checks once per super-step
and repairs only the affected diagonals — use the pieces.  ``tests/test_f16_carrier.py``
checks the split against ``astype`` on every float32 exponent, every
tie pattern and every boundary.
"""

from __future__ import annotations

import numpy as np

from .workspace import WorkspacePool

__all__ = [
    "F16_OVERFLOW",
    "split_f16",
    "f16_flagged",
    "f16_exact",
    "round_f16",
    "round_f16_with",
]

#: Veltkamp's splitting constant for 11 of float32's 24 significant bits.
_SPLIT = np.float32(2**13 + 1)
_MAG_MASK = np.uint32(0x7FFFFFFF)
#: 2^-14 (the smallest normal half) and 2^16 as float32 bit patterns:
#: a split result ``hi`` is exact iff ``hi == 0`` or ``2^-14 < |hi| < 2^16``.
_NORMAL_BITS = 0x38800000
_OVERFLOW_BITS = 0x47800000
#: 2^16: a split result this large stands for an overflow to infinity.
F16_OVERFLOW = np.float32(2.0**16)


def _limits(exp: int) -> tuple[np.uint32, np.uint32]:
    """The exact-domain bounds as magnitude bits, for values scaled by
    ``2^exp`` (a power-of-two scale moves both by ``exp`` exponent
    steps)."""
    return (np.uint32(_NORMAL_BITS + (exp << 23)),
            np.uint32(_OVERFLOW_BITS + (exp << 23)))


#: The same bounds on the split's first product ``c = x * (2^13 + 1)``:
#: rounding is monotone, so every ``x`` outside ``[2^-14, 65520)`` has a
#: ``c`` at most ``C * 2^-14`` (exact) or at least ``RN(C * 65520)`` —
#: or NaN — and :func:`round_f16` can find them before ``x`` is gone.
_PRODUCT_LIMITS = (
    np.float32(_SPLIT * np.float32(2.0**-14)).view(np.uint32),
    np.float32(_SPLIT * np.float32(65520.0)).view(np.uint32),
)


def split_f16(x: np.ndarray, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Round the float32 array ``x`` to half precision by Veltkamp
    splitting, in three ufuncs: ``c = x * (2^13 + 1)``, then ``out = c -
    (c - x)``.  ``c`` is float32 scratch of ``x``'s shape; ``out`` may be
    ``x`` (rounded in place) or ``c`` (the scratch becomes the result),
    and ``x`` is overwritten either way.  Exact except where
    :func:`f16_flagged` says.  Callers silence float errors."""
    np.multiply(x, _SPLIT, out=c)
    np.subtract(c, x, out=x)
    np.subtract(c, x, out=out)
    return out


def _out_of_range(v: np.ndarray, mag: np.ndarray, lo: np.uint32, top: np.uint32):
    """Whether any element of ``v`` has ``0 < |v| <= lo`` and whether any
    has ``|v| >= top`` or is NaN (bounds as magnitude bits).  Four
    passes — the magnitude bits, their max, minus one (zeros wrap to the
    top) and the min — leaving ``mag`` holding the bits minus one."""
    np.bitwise_and(v.view(np.uint32), _MAG_MASK, out=mag)
    if v.size == 0:
        return False, False
    big = bool(mag.max() >= top)
    np.subtract(mag, np.uint32(1), out=mag)
    return bool(mag.min() < lo), big


def _positions(mag: np.ndarray, pool: WorkspacePool, lo: np.uint32, top: np.uint32,
               big: bool) -> np.ndarray:
    """The flat positions :func:`_out_of_range` found, from the ``mag`` it
    left (bits minus one); the overflow side, rare, only when ``big``."""
    with pool.lease(mag.shape, np.bool_) as flags:
        np.less(mag, lo, out=flags)
        if big:
            with pool.lease(mag.shape, np.bool_) as over:
                np.add(mag, np.uint32(1), out=mag)
                flags |= np.greater_equal(mag, top, out=over)
        return np.flatnonzero(flags)


def f16_flagged(hi: np.ndarray, pool: WorkspacePool, exp: int = 0) -> np.ndarray:
    """The flat positions (C order of ``hi``'s shape) of the split
    result ``hi`` (values scaled by ``2^exp``) that may be rounded
    wrongly: ``0 < |hi| <= 2^-14``, ``|hi| >= 2^16`` (both scaled) or
    NaN — none when every element is zero or strictly between.  A clean
    buffer costs four passes (the magnitude bits, their max, minus one
    and the min); the block-sized scratch is leased from ``pool``."""
    lo, top = _limits(exp)
    with pool.lease(hi.shape, np.uint32) as mag:
        small, big = _out_of_range(hi, mag, lo, top)
        if not (small or big):
            return np.empty(0, dtype=np.intp)
        return _positions(mag, pool, lo, top, big)


def f16_exact(x: np.ndarray) -> np.ndarray:
    """``x.astype(float16).astype(float32)``: the exact rounding, for
    the few elements the split gets wrong."""
    with np.errstate(over="ignore", invalid="ignore"):
        return x.astype(np.float16).astype(np.float32)


def round_f16(x: np.ndarray, pool: WorkspacePool, out: np.ndarray | None = None) -> np.ndarray:
    """``out = x.astype(float16).astype(float32)`` for any float32 ``x``,
    bit for bit: :func:`split_f16` with the range check on its first
    product, so the few elements outside the exact domain are found —
    and their ``x`` kept — before the split overwrites anything, then
    rounded exactly.  ``out`` defaults to ``x`` (rounded in place); a
    distinct ``out`` leaves ``x`` untouched.  The scratch is leased from
    ``pool``."""
    with np.errstate(over="ignore", invalid="ignore"), \
            pool.lease(x.shape, np.float32) as c, \
            pool.lease(x.shape, np.uint32) as mag:
        return round_f16_with(x, c, mag, pool, out)


def round_f16_with(x: np.ndarray, c: np.ndarray, mag: np.ndarray, pool: WorkspacePool,
                   out: np.ndarray | None = None) -> np.ndarray:
    """:func:`round_f16` with its float32 and uint32 scratch ``c`` and
    ``mag`` (of ``x``'s shape) supplied by the caller — for loops of
    small arrays, where leasing would cost more than the rounding.
    Callers silence float errors."""
    if out is None:
        out = x
    lo, top = _PRODUCT_LIMITS
    np.multiply(x, _SPLIT, out=c)
    small, big = _out_of_range(c, mag, lo, top)
    if small or big:
        idx = _positions(mag, pool, lo, top, big)
        kept = x.flat[idx]
    np.subtract(c, x, out=out)
    np.subtract(c, out, out=out)
    if small or big:
        out.flat[idx] = f16_exact(kept)
    return out
