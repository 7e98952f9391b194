"""Rounding-error analysis for the streaming matrix profile recurrence.

Section V-B of the paper traces the numerical inaccuracies of reduced
precision to two factors, following the dot-product analysis of Yang,
Fox & Sanders (SIAM J. Sci. Comput. 2021):

* **machine error** — the iterative computation of QT behaves like a long
  dot product, whose forward error bound grows as ``e ∝ n · eps``;
* **tile size** — restarting the precalculation per tile resets the
  recurrence, so the effective ``n`` in the bound is the tile edge length.

This module provides those bounds plus the condition-number diagnostic for
Eq. (1): near-flat segments (tiny norms) make the correlation-to-distance
conversion ill-conditioned, and large-deviation segments overflow FP16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import DTYPE_MAX, MACHINE_EPS, PrecisionMode, policy_for

__all__ = [
    "dot_product_error_bound",
    "streaming_qt_error_bound",
    "tc_gemm_error_bound",
    "tile_edge_for_target_error",
    "correlation_condition_number",
    "implied_correlation",
    "max_plausible_distance",
    "overflow_risk_fraction",
    "flat_region_fraction",
    "ErrorBudget",
    "estimate_error_budget",
]


def dot_product_error_bound(n: int, eps: float) -> float:
    """First-order forward error bound ``gamma_n = n*eps / (1 - n*eps)``.

    The classical bound for a length-``n`` recursive dot product (Higham,
    *Accuracy and Stability of Numerical Algorithms*, Lemma 3.1), which the
    paper summarises as ``e ∝ n · eps``.  Returns ``inf`` once ``n*eps >= 1``
    (the regime where FP16 results become meaningless).
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    ne = n * eps
    if ne >= 1.0:
        return math.inf
    return ne / (1.0 - ne)


def streaming_qt_error_bound(
    rows: int, m: int, mode: PrecisionMode | str
) -> float:
    """Relative error bound for QT after ``rows`` streaming updates.

    The diagonal recurrence performs two FMAs per step on top of an initial
    length-``m`` dot product, so the accumulated rounding behaves like a dot
    product of length ``m + 2*rows`` evaluated in the main-loop precision
    (the precalculation contributes ``m`` terms in the *precalc* precision,
    which is what Mixed/FP16C improve).
    """
    policy = policy_for(mode)
    precalc_part = dot_product_error_bound(m, policy.precalc_eps)
    if policy.compensated:
        # Kahan reduces the precalc contribution to O(eps) independent of m.
        precalc_part = 2.0 * policy.precalc_eps
    stream_part = dot_product_error_bound(2 * rows, policy.eps)
    return precalc_part + stream_part


def tc_gemm_error_bound(
    rows: int, m: int, mode: PrecisionMode | str, panel_rows: int | None = None
) -> float:
    """Relative error bound for QT on the tensor-core main loop.

    The packed-panel kernel evaluates the same recurrence as
    :func:`streaming_qt_error_bound` but with WMMA semantics: the rank-2
    update terms are quantised to FP16 *once* (operand rounding), then the
    within-block prefix accumulation runs as chained MMAs with an **FP32
    accumulator**, and only the block-boundary QT row is stored back to
    FP16.  That changes the error structure versus both half-family
    Section V-B bounds:

    * operand quantisation perturbs each of the ``2*rows`` update terms by
      at most ``eps16`` relative to the term's magnitude — summed exactly
      thereafter, this contributes a *constant* ``2*eps16`` (plus one
      ``eps16`` per block-boundary FP16 store and one for the final store),
      not the ``gamma_{2 rows}(eps16)`` growth of the vector FP16 loop;
    * the accumulation chain itself rounds in FP32, contributing
      ``gamma_{2 rows}(eps32)`` — growth with tile edge survives, but at
      the FP32 rate, ~8000x smaller per step than FP16.

    The precalculation contribution is unchanged from the mode's policy
    (FP32 seed dot products; Kahan-compensated for FP16C).  Only the
    FP16-storage wide-precalc modes (``TENSOR_CORE_MODES``) are valid —
    the bound is meaningless for policies the tensor-core path refuses.
    ``panel_rows`` is the panel height; it defaults to the height the
    main loop runs, :data:`~repro.kernels.tc_gemm.TC_PANEL_ROWS`.
    """
    from ..kernels.tc_gemm import TC_PANEL_ROWS
    from .modes import TENSOR_CORE_MODES

    if panel_rows is None:
        panel_rows = TC_PANEL_ROWS
    policy = policy_for(mode)
    if policy.mode not in TENSOR_CORE_MODES:
        eligible = ", ".join(m_.value for m_ in TENSOR_CORE_MODES)
        raise ValueError(
            f"tc_gemm_error_bound applies to the tensor-core modes"
            f" ({eligible}), not {policy.mode.value}"
        )
    if rows < 0:
        raise ValueError(f"rows must be non-negative, got {rows}")
    if panel_rows < 1:
        raise ValueError(f"panel_rows must be >= 1, got {panel_rows}")
    eps16 = MACHINE_EPS[np.dtype(np.float16)]
    eps32 = MACHINE_EPS[np.dtype(np.float32)]
    precalc_part = dot_product_error_bound(m, policy.precalc_eps)
    if policy.compensated:
        precalc_part = 2.0 * policy.precalc_eps
    n_blocks = math.ceil(rows / panel_rows) if rows else 0
    operand_part = (2.0 + n_blocks + 1.0) * eps16
    accum_part = dot_product_error_bound(2 * rows, eps32)
    return precalc_part + operand_part + accum_part


def tile_edge_for_target_error(
    target: float, m: int, mode: PrecisionMode | str
) -> int:
    """Largest tile edge length whose QT error bound stays below ``target``.

    Inverts :func:`streaming_qt_error_bound`; the multi-tile algorithm uses
    this to pick ``ntiles`` for a requested accuracy (Section III-B: "this
    design simplifies tuning for accuracy through careful selection of the
    number of tiles").
    """
    if target <= 0:
        raise ValueError("target error must be positive")
    if streaming_qt_error_bound(1, m, mode) >= target:
        return 1
    lo, hi = 1, 1 << 40
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if streaming_qt_error_bound(mid, m, mode) < target:
            lo = mid
        else:
            hi = mid - 1
    return lo


def correlation_condition_number(corr: np.ndarray) -> np.ndarray:
    """Condition number of ``D = sqrt(2m(1-corr))`` w.r.t. ``corr``.

    ``kappa = |corr| / (2*(1-corr))`` — it diverges as ``corr -> 1``: the
    best matches (the entries the matrix profile cares about!) are exactly
    where the formulation is most ill-conditioned, explaining why small QT
    errors flip nearest-neighbour indices.
    """
    corr = np.asarray(corr, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(corr) / (2.0 * np.abs(1.0 - corr))


def implied_correlation(distance: "np.ndarray | float", m: int) -> np.ndarray:
    """The Pearson correlation a z-normalised distance implies (Eq. 1 inverted).

    ``D = sqrt(2m(1 - corr))`` gives ``corr = 1 - D^2 / (2m)``.  A genuine
    distance always implies ``corr`` in ``[-1, 1]``; rounding error pushes it
    slightly outside, and corruption pushes it far outside — which is what
    the per-tile health checks test for.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    d = np.asarray(distance, dtype=np.float64)
    return 1.0 - (d * d) / (2.0 * m)


def max_plausible_distance(m: int, tol: float = 0.0) -> float:
    """Largest distance a genuine correlation ``>= -1 - tol`` can produce.

    ``sqrt(2m(2 + tol))`` — any profile entry above it implies a correlation
    below ``-1 - tol`` and therefore cannot come from Eq. (1) applied to
    real data; it is rounding blow-up or corruption.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    return math.sqrt(2.0 * m * (2.0 + tol))


def overflow_risk_fraction(series: np.ndarray, m: int, dtype: np.dtype) -> float:
    """Fraction of segments whose raw dot product would overflow ``dtype``.

    The un-normalised sliding dot products are bounded by ``m * max|x|^2``;
    segments exceeding the format's finite range saturate (Section V-B:
    "regions with large deviations are prone to overflow").  Min-max
    normalising the input (as the turbine case study does) sends this to 0.
    """
    series = np.asarray(series, dtype=np.float64)
    limit = DTYPE_MAX[np.dtype(dtype)]
    flat = series.reshape(series.shape[0], -1)
    n_seg = flat.shape[0] - m + 1
    if n_seg <= 0:
        raise ValueError(f"series too short for m={m}")
    sq = flat * flat
    window_energy = np.lib.stride_tricks.sliding_window_view(sq, m, axis=0).sum(axis=-1)
    return float(np.mean(window_energy > limit))


def flat_region_fraction(series: np.ndarray, m: int, rel_tol: float = 1e-3) -> float:
    """Fraction of segments that are numerically flat (tiny z-norm scale).

    Flat segments have near-zero centred norms; dividing by them in Eq. (1)
    is the ill-conditioned case the paper flags.  A segment is "flat" when
    its standard deviation is below ``rel_tol`` times the series' overall
    standard deviation.
    """
    series = np.asarray(series, dtype=np.float64)
    flat = series.reshape(series.shape[0], -1)
    windows = np.lib.stride_tricks.sliding_window_view(flat, m, axis=0)
    stds = windows.std(axis=-1)
    global_std = flat.std(axis=0, keepdims=True)
    global_std = np.where(global_std == 0, 1.0, global_std)
    return float(np.mean(stds < rel_tol * global_std))


@dataclass(frozen=True)
class ErrorBudget:
    """Diagnostic summary of expected reduced-precision behaviour."""

    mode: PrecisionMode
    tile_rows: int
    m: int
    qt_error_bound: float
    overflow_fraction: float
    flat_fraction: float

    @property
    def usable(self) -> bool:
        """Heuristic: results are expected to be meaningful (bound < 50%)."""
        return self.qt_error_bound < 0.5 and self.overflow_fraction == 0.0


def estimate_error_budget(
    series: np.ndarray,
    m: int,
    mode: PrecisionMode | str,
    tile_rows: int | None = None,
) -> ErrorBudget:
    """Build an :class:`ErrorBudget` for running ``mode`` on ``series``.

    ``tile_rows`` defaults to the full (untiled) row count.
    """
    series = np.asarray(series, dtype=np.float64)
    policy = policy_for(mode)
    n_seg = series.shape[0] - m + 1
    if n_seg <= 0:
        raise ValueError(f"series of length {series.shape[0]} too short for m={m}")
    rows = n_seg if tile_rows is None else tile_rows
    return ErrorBudget(
        mode=policy.mode,
        tile_rows=rows,
        m=m,
        qt_error_bound=streaming_qt_error_bound(rows, m, policy.mode),
        overflow_fraction=overflow_risk_fraction(series, m, policy.compute),
        flat_fraction=flat_region_fraction(series, m),
    )
