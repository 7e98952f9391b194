"""The ``precalculation`` kernel (Pseudocode 1, line 2).

The numerics of everything the main iteration loop needs before its
first row (Section II-B / III-A):

* windowed means ``mu`` and inverse centred norms ``inv = 1/||T_i - mu_i||``
  (the paper's ``dr^-1`` / ``dq^-1`` up to the constant ``m`` folded in),
* the streaming-update coefficient vectors ``df`` and ``dg``,
* the first row and first column of the correlation matrix ``QT`` via a
  naive (non-streaming) centred dot product.

Windowed sums are realised with *cumulative summations* exactly as the
paper describes ("this kernel computes the variables df, dg, ... using
cumulative summations").  In FP16 those running sums are where the severe
cancellation originates; the Mixed mode lifts them to FP32, and FP16C
additionally applies Kahan compensation (Section III-C).

The routines here compute whole planes and batches of seeds; the one
plane cache that assembles a stack of tiles' precalculation from them —
for batch plans and streams alike — is
:class:`~repro.engine.precalc_cache.PlaneCache`; the modelled charge of
that work is ``repro.gpu.perfmodel.seed_cost`` and ``plane_cost``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..gpu.perfmodel import plane_cost, seed_cost
from ..precision.modes import PrecisionPolicy

__all__ = [
    "PrecalcResult",
    "PreparedPrecalc",
    "seed_qt_rows",
    "fft_seed_qt_rows",
]


@dataclass
class PrecalcResult:
    """Device-resident precalculation outputs, all in dimension-wise layout.

    Shapes: ``*_r`` arrays are ``(d, n_r_seg)``, ``*_q`` are ``(d, n_q_seg)``,
    ``qt_row0`` is ``(d, n_q_seg)`` (correlation of reference segment 0 with
    every query segment) and ``qt_col0`` is ``(d, n_r_seg)`` (every reference
    segment with query segment 0).  Storage dtype follows the precision
    policy; the main loop never needs the wider precalc dtype again.

    A stack of ``T`` same-shape tiles is one result over ``d * T`` rows:
    row ``k * T + t`` is dimension ``k`` of tile ``t``.  Every main-loop
    operation is element-wise per dimension row, so the stack runs each
    tile's own recurrence from its own seeds; the dimension-major order
    lets a ``(d * T, rows, n)`` distance block reshape to the
    ``(d, T * rows * n)`` sort/scan plane without a copy.
    """

    m: int
    mu_r: np.ndarray
    inv_r: np.ndarray
    df_r: np.ndarray
    dg_r: np.ndarray
    mu_q: np.ndarray
    inv_q: np.ndarray
    df_q: np.ndarray
    dg_q: np.ndarray
    qt_row0: np.ndarray
    qt_col0: np.ndarray

    @property
    def n_r_seg(self) -> int:
        return self.mu_r.shape[1]

    @property
    def n_q_seg(self) -> int:
        return self.mu_q.shape[1]

    @property
    def d(self) -> int:
        return self.mu_r.shape[0]

    @classmethod
    def gathered(cls, m: int, r: dict, q: dict, tiles, row_seeds, col_seeds) -> "PrecalcResult":
        """Same-shape tiles' results gathered from full-series planes,
        in the stacked layout (see the class docstring).

        ``r``/``q`` map ``mu``/``inv``/``df``/``dg`` to a role's
        ``(d, N)`` storage planes; tile ``t`` reads columns ``row_start:
        row_stop`` of ``r`` and ``col_start:col_stop`` of ``q``.
        ``row_seeds[t]`` is ``(band, start)``: the tile's ``qt_row0`` is
        ``band[:, start:start + n_cols]``, and ``col_seeds`` likewise
        for ``qt_col0``.  Each plane is one gather, and so is each seed
        direction, over its distinct bands laid side by side.
        ``df``/``dg`` get the tile-local ``df[0] = dg[0] = 0`` of a fresh
        tile: column 0 of every stacked row is some tile's first column.
        The values are those of each tile's slices of the same planes,
        bit for bit: the gather only copies.
        """
        n_rows, n_cols = tiles[0].n_rows, tiles[0].n_cols
        row_idx = np.array([t.row_start for t in tiles])[:, None] + np.arange(n_rows)
        col_idx = np.array([t.col_start for t in tiles])[:, None] + np.arange(n_cols)

        def gather(plane, idx):
            out = plane.take(idx, axis=1)  # (d, T, len)
            return out.reshape(-1, idx.shape[1])

        def seeds(bands, n):
            # The distinct bands side by side, so one gather serves all.
            offsets: dict = {}
            arrays, starts, width = [], [], 0
            for band, start in bands:
                offset = offsets.get(id(band))
                if offset is None:
                    offset = offsets[id(band)] = width
                    arrays.append(band)
                    width += band.shape[1]
                starts.append(offset + start)
            flat = arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=1)
            return gather(flat, np.array(starts)[:, None] + np.arange(n))

        planes = {}
        for side, role, idx in (("r", r, row_idx), ("q", q, col_idx)):
            for name in ("mu", "inv", "df", "dg"):
                planes[f"{name}_{side}"] = gather(role[name], idx)
            planes[f"df_{side}"][:, 0] = 0
            planes[f"dg_{side}"][:, 0] = 0
        return cls(
            m=m, **planes,
            qt_row0=seeds(row_seeds, n_cols),
            qt_col0=seeds(col_seeds, n_rows),
        )

    def select(self, tiles: int, keep) -> "PrecalcResult":
        """The stacked result of tiles ``keep`` (positions, in order) of
        this stack of ``tiles`` tiles."""
        keep = list(keep)

        def pick(plane):
            d = plane.shape[0] // tiles
            return plane.reshape(d, tiles, -1)[:, keep].reshape(d * len(keep), -1)

        return PrecalcResult(
            m=self.m,
            **{f.name: pick(getattr(self, f.name)) for f in fields(self) if f.name != "m"},
        )

    def transposed(self) -> "PrecalcResult":
        """The same tile seen with query and reference roles swapped.

        The ``_r``/``_q`` planes trade places and so do the seeds:
        QT[i, 0] (``qt_col0``) becomes the first row, QT[0, j]
        (``qt_row0``) the first column.  The corner QT[0, 0] is taken
        from ``qt_row0`` — the row-major recurrence reads it from there
        and never reads ``qt_col0[:, 0]``, which a non-diagonal tile
        computes separately and may round differently.
        """
        row0 = self.qt_col0.copy()
        row0[:, 0] = self.qt_row0[:, 0]
        return PrecalcResult(
            m=self.m,
            mu_r=self.mu_q, inv_r=self.inv_q, df_r=self.df_q, dg_r=self.dg_q,
            mu_q=self.mu_r, inv_q=self.inv_r, df_q=self.df_r, dg_q=self.dg_r,
            qt_row0=row0,
            qt_col0=self.qt_row0,
        )


class _Accumulator:
    """Sequential (optionally Kahan-compensated) accumulator in ``dtype``.

    Models one device thread's register accumulation: every addition
    rounds to the target format; with compensation enabled the classic
    Kahan recurrence runs entirely in that format.
    """

    def __init__(self, shape: tuple[int, ...], dtype: np.dtype, compensated: bool):
        self.dtype = dtype
        self.value = np.zeros(shape, dtype=dtype)
        if compensated:
            self.comp = np.zeros(shape, dtype=dtype)
            # Persistent Kahan scratch: the y/total intermediates live for
            # the whole accumulation instead of being reallocated per add.
            self._y = np.empty(shape, dtype=dtype)
            self._total = np.empty(shape, dtype=dtype)
        else:
            self.comp = None

    def add(self, term: np.ndarray) -> None:
        # Guard against accidental promotion only when it would actually
        # occur — every in-repo caller already hands in ``dtype`` terms,
        # so the common path skips the astype entirely.
        if term.dtype != self.dtype:
            term = term.astype(self.dtype)
        if self.comp is None:
            np.add(self.value, term, out=self.value)
        else:
            y, total = self._y, self._total
            np.subtract(term, self.comp, out=y)
            np.add(self.value, y, out=total)
            np.subtract(total, self.value, out=self.comp)
            np.subtract(self.comp, y, out=self.comp)
            # Swap buffers: the old value array becomes next round's
            # ``total`` scratch.
            self.value, self._total = total, self.value


def _window_stats(
    series: np.ndarray, m: int, policy: PrecisionPolicy
) -> tuple[np.ndarray, np.ndarray]:
    """Windowed means and inverse centred norms, per-window accumulation.

    ``series`` is (d, len) in the precalc dtype.  Each output element is
    accumulated over its own m samples ("each thread computes ... the
    corresponding cumulative summations for each element", Section III-A)
    with a two-pass centred second moment — so the rounding error is the
    length-m dot-product error of the precalc format, which FP16C further
    compresses with Kahan compensation.
    """
    dtype = policy.precalc
    d, length = series.shape
    n_seg = length - m + 1

    acc = _Accumulator((d, n_seg), dtype, policy.compensated)
    for t in range(m):
        acc.add(series[:, t : t + n_seg])
    with np.errstate(over="ignore", invalid="ignore"):
        mu = (acc.value / dtype.type(m)).astype(dtype)

    acc2 = _Accumulator((d, n_seg), dtype, policy.compensated)
    # Reused per-iteration scratch: same subtract/multiply ufuncs as the
    # temporaries they replace, so the rounding is bit-identical.
    diff = np.empty((d, n_seg), dtype=dtype)
    sq = np.empty((d, n_seg), dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(m):
            np.subtract(series[:, t : t + n_seg], mu, out=diff)
            np.multiply(diff, diff, out=sq)
            acc2.add(sq)
    cent_sq = acc2.value
    # Flat windows give non-positive centred energy after rounding; clamp to
    # the smallest normal so the reciprocal stays finite (ill-conditioned
    # regions then produce the large errors Section V-B describes).
    tiny = np.finfo(dtype).tiny
    cent_sq = np.maximum(cent_sq, dtype.type(tiny))
    with np.errstate(over="ignore", invalid="ignore"):
        inv = (dtype.type(1.0) / np.sqrt(cent_sq).astype(dtype)).astype(dtype)
    return mu, inv


def _delta_coefficients(
    series: np.ndarray, mu: np.ndarray, m: int, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray]:
    """The streaming-update coefficients df, dg (SCAMP formulation).

    ``df[i] = (T[i+m-1] - T[i-1]) / 2``
    ``dg[i] = (T[i+m-1] - mu[i]) + (T[i-1] - mu[i-1])``, with index 0 = 0.
    """
    d, length = series.shape
    n_seg = length - m + 1
    df = np.zeros((d, n_seg), dtype=dtype)
    dg = np.zeros((d, n_seg), dtype=dtype)
    if n_seg > 1:
        head = series[:, m : m + n_seg - 1]  # T[i+m-1] for i >= 1
        tail = series[:, 0 : n_seg - 1]  # T[i-1]   for i >= 1
        df[:, 1:] = ((head - tail).astype(dtype) * dtype.type(0.5)).astype(dtype)
        dg[:, 1:] = (
            (head - mu[:, 1:]).astype(dtype) + (tail - mu[:, :-1]).astype(dtype)
        ).astype(dtype)
    return df, dg


def seed_qt_rows(
    series_fixed: np.ndarray,
    starts: "list[int] | tuple[int, ...]",
    series_other: np.ndarray,
    mu_fixed: np.ndarray,
    mu_other: np.ndarray,
    m: int,
    policy: PrecisionPolicy,
) -> np.ndarray:
    """Batched seed QT: the centred dot of *several* fixed segments of one
    series against all segments of the other, in one vectorised pass.

    ``out[b, k, j] = sum_t (fixed[b, k, t] - fixed_mu[b, k]) *
    (other[k, j+t] - mu_other[k, j])`` where ``fixed[b] =
    series_fixed[:, starts[b]:starts[b]+m]``, accumulated sequentially over
    ``t`` in the precalc dtype (one rounded FMA per step, with optional
    Kahan compensation) — the "naive (non-streaming) dot product
    formulation" of Section III-A, one thread per output element on the
    device.  Every ufunc is elementwise, so each ``out[b]`` is bit-identical
    to a one-start pass and each output column to a pass over any span of
    ``series_other`` that holds it — the batching only amortises the
    Python-level length-``m`` loop across all tiles sharing a band.
    """
    dtype = policy.precalc
    d, n_seg = mu_other.shape
    n_bands = len(starts)
    if n_bands == 0:
        return np.empty((0, d, n_seg), dtype=dtype)
    fixed = np.stack([series_fixed[:, s : s + m] for s in starts])
    fmu = np.stack([mu_fixed[:, s] for s in starts])
    fixed_centered = (fixed - fmu[:, :, None]).astype(dtype, copy=False)
    acc = _Accumulator((n_bands, d, n_seg), dtype, policy.compensated)
    diff = np.empty((d, n_seg), dtype=dtype)
    term = np.empty((n_bands, d, n_seg), dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(m):
            np.subtract(series_other[:, t : t + n_seg], mu_other, out=diff)
            np.multiply(fixed_centered[:, :, t : t + 1], diff[None], out=term)
            acc.add(term)
    return acc.value


def fft_seed_qt_rows(
    series_fixed: np.ndarray,
    starts: "list[int] | tuple[int, ...]",
    series_other: np.ndarray,
    mu_fixed: np.ndarray,
    mu_other: np.ndarray,
    m: int,
    policy: PrecisionPolicy,
) -> np.ndarray:
    """MASS-style sliding-dot-product seeds via FFT correlation.

    Computes the same quantity as :func:`seed_qt_rows` but through a
    double-precision FFT convolution (O(n log n) instead of O(n·m)), then
    casts to the precalc dtype.  NOT bit-identical to the sequential
    accumulation — the error stays within the ``precision/errors.py``
    dot-product bound for FP64/FP32 (validated in tests), which is why the
    ``"fft"`` strategy is opt-in and restricted to those modes.
    """
    dtype = policy.precalc
    d, n_seg = mu_other.shape
    n_bands = len(starts)
    if n_bands == 0:
        return np.empty((0, d, n_seg), dtype=dtype)
    x = series_other.astype(np.float64, copy=False)
    length = x.shape[1]
    fc = np.stack(
        [
            series_fixed[:, s : s + m].astype(np.float64)
            - mu_fixed[:, s].astype(np.float64)[:, None]
            for s in starts
        ]
    )  # (B, d, m) centred fixed segments
    nfft = 1
    while nfft < length + m - 1:
        nfft *= 2
    spec_x = np.fft.rfft(x, nfft)  # (d, nfft//2+1)
    spec_k = np.fft.rfft(fc[:, :, ::-1], nfft)  # (B, d, nfft//2+1)
    # conv(x, reversed(fc))[j+m-1] == sum_t x[j+t] * fc[t]
    corr = np.fft.irfft(spec_x[None] * spec_k, nfft)[:, :, m - 1 : m - 1 + n_seg]
    out = corr - mu_other.astype(np.float64)[None] * fc.sum(axis=2)[:, :, None]
    return out.astype(dtype)


@dataclass
class PreparedPrecalc:
    """A stack of same-shape tiles' precalculation, assembled by a
    plan-level plane cache.

    ``result`` is the stacked :class:`PrecalcResult` of the tiles,
    bit-identical to stacking each tile's own precalculation;
    ``costs[t]`` is what tile ``t`` should be charged
    (its seed-dot work, plus the one-off plane pass if it is the
    designated charge carrier); ``saved_flops[t]`` is the plane work
    tile ``t`` did *not* redo.  For the charge carrier the full-series
    plane charge is subtracted from its tile-local figure, which can
    make its contribution negative — the sum over a whole plan is always
    >= 0 (and exactly 0 for a single-tile plan).
    """

    result: PrecalcResult
    costs: tuple
    saved_flops: tuple

    @classmethod
    def for_stack(cls, result: PrecalcResult, spec, tile, charges) -> "PreparedPrecalc":
        """A stack of ``tile``-shaped tiles of job ``spec``: each tile is
        charged its seed work plus ``charges[t]``, the plane charge it
        claimed (``None`` when it claimed none), and saves the plane
        work of its own segments less that charge."""
        size, compensated = spec.policy.precalc.itemsize, spec.policy.compensated
        cost = seed_cost(tile.n_rows, tile.n_cols, spec.d, spec.m, size,
                         spec.config.launch, compensated)
        saved = plane_cost(tile.n_rows, tile.n_cols, spec.d, size, compensated).flops
        return cls(
            result=result,
            costs=tuple(cost if c is None else cost + c for c in charges),
            saved_flops=tuple(saved if c is None else saved - c.flops for c in charges),
        )

    def select(self, keep) -> "PreparedPrecalc":
        """The tiles at positions ``keep`` (in order) of the stack."""
        keep = list(keep)
        if len(keep) == len(self.costs):
            return self
        return PreparedPrecalc(
            result=self.result.select(len(self.costs), keep),
            costs=tuple(self.costs[k] for k in keep),
            saved_flops=tuple(self.saved_flops[k] for k in keep),
        )
