"""Online normalized-projection sketches: the work-shedding gate.

Yeh et al.'s *Sketching Multidimensional Time Series for Fast Discord
Mining* (PAPERS.md) is the work-shedding analogue of the paper's
precision ladder: instead of making every exact distance cheaper, keep a
cheap random-projection sketch of every window online and spend exact
(reduced-precision) tile work only where the sketch says something
interesting is happening.

:class:`SketchMonitor` maintains, per window, the Johnson–Lindenstrauss
projection of the per-dimension z-normalised window (unit-normed, so the
projected Euclidean distance estimates the z-normalised distance the
matrix profile measures, up to the ``sqrt(2m)`` scale).  Each window is
scored in O(history x k): the estimated nearest-neighbour distance of
the new window against all sketched history, shrunk by a confidence
factor into a *lower-bound style* score.  A score above the tenant
threshold is a **discord alarm** — only then does the ingest tier admit
an exact tile job (:meth:`~repro.streams.incremental.
IncrementalMatrixProfile.probe`); everything else is suppressed and
counted as saved exact work.

:meth:`SketchMonitor.score` takes an ingest step's ``(B, d, m)`` window
stack: one z-normalisation over it, one append to a capacity-doubling
history, one nearest-neighbour search for all B windows, then each
window's threshold update in order — bit-identical to scoring the
windows one at a time.

**The neighbour search is filter-and-refine.**  A window's score is the
smallest *direct* squared distance ``((h - s) ** 2).sum()`` over its
eligible history rows (the per-window prefix ``position - exclusion``).
Rather than summing every row, one GEMM per step estimates every
(window, row) distance through the expansion ``|h|^2 - 2 s.h`` (plus the
row-constant ``|s|^2``, which cannot move a row's rank), with the
squared history norms cached beside the history.  With ``u = 2^-53`` and
``g(n) = n u / (1 - n u)``, the standard forward-error bounds give, for
sketch width ``k`` and every eligible row ``h``:

* direct sum: each term ``fl(fl(h_j - s_j)^2)`` is within ``g(3)`` of
  its exact value and a k-term sum of non-negative terms adds
  ``g(k - 1)``, so ``|D - T| <= g(k + 2) T``, ``T = |h - s|^2 <= (|s| +
  |h|)^2``;
* expansion: ``fl(|h|^2)`` is within ``g(k) |h|^2``, the dot product
  within ``g(k) |s| |h|`` (any summation order, FMA or not), the scale by
  -2 is exact and the final add costs one more ``u``, so ``|G - (T -
  |s|^2)| <= g(k + 1) (|s| + |h|)^2``.

Hence ``|G - (D - |s|^2)| <= e = (g(k + 2) + g(k + 1)) (|s| + max|h|)^2``
for every row.  If ``j`` minimises D and ``b`` minimises G, then ``G_j
<= G_b + 2e``, so every row within ``2e`` of the window's best estimate
is a *candidate* and the true argmin is among them.  The code uses
``E = 4 g(k + 2) (|s| + max|h|)^2`` — at least twice ``e``, which absorbs the
rounding of the norms, of ``max|h|`` and of the threshold itself — plus
an absolute ``k * tiny`` against gradual underflow.  Only candidates are
summed the direct way (``((H[cand] - s) ** 2).sum(axis=1)``, the same
expression and so the same numpy pairwise order per row as the full
scan), and their minimum is the score: the bound only decides *which*
rows are summed, never the value reported, so every
:class:`SketchScore` is byte-identical to the full scan's.  A window
whose sketch, eligible norms, bound or best estimate is not finite (a
NaN window, an overflowing norm) takes the full direct scan instead.

The step's ``(windows, history)`` estimate is built ``FILTER_ELEMENTS``
float64 elements at a time (whole history rows for as many windows as
fit, at least one window), and candidate pairs are summed in pieces of
the same budget, so transient memory does not grow with the step; it
grows with the history only as the full scan's ``(history, k)``
temporaries did.

The threshold can be a fixed float (sketch-distance units) or
``"auto"``: alarm when the score exceeds ``mean + zscore * std`` of all
previously seen scores, with the first ``warmup`` windows always
escalated while the baseline accumulates.  Sketching is a host-side
float64 filter — deliberately precision-independent, so the gate
behaves identically for every tenant mode and never perturbs the exact
tier's bit-identical numerics.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..engine.precalc_cache import GrowableArray

__all__ = ["SketchMonitor", "SketchScore"]

#: Float64 elements of one z-normalised ``(windows, d, m)`` chunk.
CHUNK_ELEMENTS = 1 << 14
#: Float64 elements of one ``(windows, history)`` distance estimate of
#: the neighbour filter (and of one piece of candidate ``(pairs, k)``
#: differences).
FILTER_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class SketchScore:
    """One window's sketch verdict."""

    position: int  # global segment index of the scored window
    estimate: float  # shrunk approximate NN distance (sketch units)
    threshold: float  # threshold in force when scored (inf during warmup)
    alarm: bool

    @property
    def suppressed(self) -> bool:
        return not self.alarm


class SketchMonitor:
    """Scores each appended window's approximate discord distance.

    Parameters
    ----------
    m, d:
        Window length and dimensionality of the stream.
    k:
        Sketch width (projection dimension); O(history x k) per window.
    threshold:
        Fixed alarm threshold in sketch-distance units, or ``"auto"``
        (mean + ``zscore`` x std of past scores, warmup always alarms).
    zscore, warmup:
        Auto-threshold parameters.
    shrink:
        Confidence factor in (0, 1]: the raw JL estimate is multiplied
        by this to act as a lower-bound style score (JL concentrates but
        does not strictly bound; shrinking trades a few extra alarms for
        not missing discords).
    exclusion:
        Trivial-match radius: the most recent ``exclusion`` windows are
        excluded from a new window's neighbour search (defaults to
        ``ceil(m / 4)``, the profile's own exclusion zone).
    seed:
        Projection RNG seed (the projection is fixed per monitor).
    rolling:
        Auto-threshold memory: ``None`` accumulates score statistics over
        the monitor's whole life (the original behaviour), an integer
        ``N`` computes them over only the last ``N`` scores.  A rolling
        baseline tracks a drifting tenant — after a level shift the
        cumulative mean/std stay inflated forever and mask subsequent
        discords, while the rolling window re-centres within ``N``
        appends.
    """

    def __init__(
        self,
        m: int,
        d: int,
        k: int = 16,
        threshold: "float | str" = "auto",
        zscore: float = 3.0,
        warmup: int = 16,
        shrink: float = 0.75,
        exclusion: int | None = None,
        seed: int = 0,
        rolling: int | None = None,
    ):
        if m < 2 or d < 1 or k < 1:
            raise ValueError(f"invalid sketch geometry m={m}, d={d}, k={k}")
        if not 0.0 < shrink <= 1.0:
            raise ValueError(f"shrink must be in (0, 1], got {shrink}")
        if threshold != "auto" and (
            isinstance(threshold, bool)
            or not isinstance(threshold, (int, float))
            or math.isnan(threshold)
        ):
            # ``True`` reads as 1.0; ``estimate > nan`` never alarms.
            raise ValueError(f"threshold must be a float or 'auto', got {threshold!r}")
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        if exclusion is not None and exclusion < 0:
            raise ValueError(f"exclusion must be >= 0, got {exclusion}")
        self.m = m
        self.d = d
        self.k = k
        self.threshold = threshold
        self.zscore = zscore
        self.warmup = warmup
        self.shrink = shrink
        self.exclusion = (
            exclusion if exclusion is not None else math.ceil(m / 4)
        )
        rng = np.random.default_rng(seed)
        # JL projection of the flattened (d*m) z-normalised window;
        # 1/sqrt(k) makes projected distances estimate input distances.
        self._proj = rng.standard_normal((k, d * m)) / math.sqrt(k)
        if rolling is not None and rolling < 2:
            raise ValueError(f"rolling must be >= 2, got {rolling}")
        self.rolling = rolling
        self._history = GrowableArray((0, k), np.float64, axis=0)
        # Squared norms of the history rows, for the neighbour filter.
        self._norms = GrowableArray((0,), np.float64, axis=0)
        # Forward-error factor of the filter bound (module docstring).
        u = np.finfo(np.float64).eps / 2
        self._bound = 4 * (k + 2) * u / (1 - (k + 2) * u)
        # Running score statistics for the auto threshold: cumulative
        # Welford, plus (when ``rolling``) the bounded recent-score
        # window the threshold is actually computed from.
        self._n_scores = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._recent: "deque[float] | None" = (
            deque(maxlen=rolling) if rolling is not None else None
        )

    # ------------------------------------------------------------------

    @property
    def n_windows(self) -> int:
        return self._history.size

    def _project(self, windows) -> np.ndarray:
        """``(B, k)`` sketches of a ``(B, d, m)`` stack, z-normalised per
        window and dimension in chunks (reductions along contiguous m, one
        ``proj @ z`` per window: a GEMM over the stack moves the last ulp)."""
        shape = np.shape(windows)
        if len(shape) != 3 or shape[1:] != (self.d, self.m):
            raise ValueError(f"windows must be (B, {self.d}, {self.m}), got {shape}")
        out = np.empty((shape[0], self.k), dtype=np.float64)
        step = max(1, CHUNK_ELEMENTS // (self.d * self.m))
        for lo in range(0, shape[0], step):
            w = np.array(windows[lo : lo + step], dtype=np.float64, order="C")
            centered = w - w.mean(axis=-1, keepdims=True)
            norms = np.linalg.norm(centered, axis=-1, keepdims=True)
            z = centered / np.maximum(norms, np.finfo(np.float64).tiny)
            for b in range(z.shape[0]):
                out[lo + b] = self._proj @ z[b].ravel()
        return out

    def _current_threshold(self) -> float:
        if self.threshold != "auto":
            return float(self.threshold)
        if self._n_scores < self.warmup:
            return float("inf")  # placeholder; warmup always alarms
        if self._recent is not None:
            scores = np.asarray(self._recent)
            mean = float(scores.mean())
            var = float(scores.var(ddof=1)) if scores.size > 1 else 0.0
            return mean + self.zscore * math.sqrt(max(var, 0.0))
        var = self._m2 / max(self._n_scores - 1, 1)
        return self._mean + self.zscore * math.sqrt(max(var, 0.0))

    def _observe(self, score: float) -> None:
        if not math.isfinite(score):
            return
        self._n_scores += 1
        delta = score - self._mean
        self._mean += delta / self._n_scores
        self._m2 += delta * (score - self._mean)
        if self._recent is not None:
            self._recent.append(score)

    # ------------------------------------------------------------------

    def _append(self, sketches: np.ndarray) -> None:
        self._history.append(sketches)
        self._norms.append(np.einsum("ij,ij->i", sketches, sketches))

    def _candidates(
        self, s: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The neighbour filter for windows ``s`` whose eligible prefixes
        hold ``counts`` (ascending, >= 1) history rows: the ``(windows,
        counts[-1])`` mask of rows whose GEMM estimate lies within 2E of
        the window's best, and whether each window's bound held (False:
        not finite, no candidates — take the direct scan)."""
        history, norms = self._history.view, self._norms.view
        top = int(counts[-1])
        estimate = (-2.0 * s) @ history[:top].T
        estimate += norms[:top]
        # Rows past a window's own prefix joined in this step.
        tail = np.arange(counts[0], top) >= counts[:, None]
        estimate[:, counts[0] :][tail] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            reach = np.sqrt(np.einsum("ij,ij->i", s, s)) + np.sqrt(norms[:top].max())
            slack = 2 * (self._bound * reach**2 + self.k * np.finfo(np.float64).tiny)
            cut = estimate.min(axis=1) + slack
        exact = np.isfinite(cut)
        candidates = estimate <= cut[:, None]
        if not exact.all():
            candidates[~exact] = False
        return candidates, exact

    def _nearest(self, sketches: np.ndarray, first: int) -> np.ndarray:
        """Squared nearest-neighbour distance of each of ``sketches``
        (history positions ``first ..``) over its eligible history
        prefix: filter by the GEMM bound, refine candidates by direct
        sums (see the module docstring).  NaN where nothing is eligible."""
        history = self._history.view
        counts = np.maximum(
            np.arange(first, first + len(sketches)) - self.exclusion, 0
        )
        out = np.full(len(sketches), np.nan)
        piece = max(1, FILTER_ELEMENTS // self.k)
        lo = int(np.searchsorted(counts, 0, side="right"))
        while lo < len(sketches):
            # As many windows as keep the estimate within the budget.
            sizes = np.arange(1, len(sketches) - lo + 1) * counts[lo:]
            hi = lo + max(1, int(np.searchsorted(sizes, FILTER_ELEMENTS, side="right")))
            s = sketches[lo:hi]
            candidates, exact = self._candidates(s, counts[lo:hi])
            # One flat nonzero: the 2-D form costs ten times as much.
            rows, cols = np.divmod(np.flatnonzero(candidates), candidates.shape[1])
            sums = np.empty(rows.size)
            for p in range(0, rows.size, piece):
                diff = history[cols[p : p + piece]] - s[rows[p : p + piece]]
                sums[p : p + piece] = (diff**2).sum(axis=1)
            if rows.size:
                starts = np.flatnonzero(np.diff(rows, prepend=-1))
                out[lo + np.flatnonzero(exact)] = np.minimum.reduceat(sums, starts)
            for b in np.flatnonzero(~exact):
                eligible = history[: counts[lo + b]]
                out[lo + b] = ((eligible - s[b]) ** 2).sum(axis=1).min()
            lo = hi
        return out

    def prime(self, windows) -> None:
        """Add a ``(B, d, m)`` stack of historical windows without
        scoring them."""
        self._append(self._project(windows))

    def score(self, windows) -> tuple[SketchScore, ...]:
        """Score a ``(B, d, m)`` stack of new windows, in order, against
        sketched history; each window joins the history it is scored
        after (its successors outside the exclusion zone see it)."""
        sketches = self._project(windows)
        first = self.n_windows
        self._append(sketches)
        nearest = np.sqrt(self._nearest(sketches, first))
        scores = []
        for position, nn in enumerate(nearest.tolist(), start=first):
            if position - self.exclusion <= 0:
                # Nothing to compare against: cannot suppress what we
                # cannot bound, so the first windows escalate.
                estimate = float("inf")
                alarm = True
                threshold = self._current_threshold()
            else:
                estimate = self.shrink * nn
                threshold = self._current_threshold()
                in_warmup = (
                    self.threshold == "auto" and self._n_scores < self.warmup
                )
                alarm = in_warmup or estimate > threshold
                self._observe(estimate)
            scores.append(SketchScore(
                position=position,
                estimate=estimate,
                threshold=threshold,
                alarm=alarm,
            ))
        return tuple(scores)
