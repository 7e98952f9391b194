"""The stream tier's per-window and per-tile paths, kept as test oracles.

``repro.streams`` scores an ingest step's windows in one batched sketch
pass over a capacity-doubling history, and computes a dispatch's seeds
in one batch that every tile slices.  These are the forms they replaced
— one window, one ``np.vstack`` and one tile at a time — which every
batched value must match bit for bit (``tests/test_stream_oracles.py``),
the way ``tests/per_row_oracle.py`` keeps the per-row main loop.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.precalc import _window_stats, seed_qt_rows
from repro.streams import SketchMonitor, SketchScore

__all__ = ["PerWindowSketchMonitor", "per_tile_seeds"]


class PerWindowSketchMonitor(SketchMonitor):
    """:class:`SketchMonitor` scoring one ``(d, m)`` window at a time.

    Same projection, threshold and Welford state as the batched monitor
    (it inherits them); each window is z-normalised and projected on its
    own and ``np.vstack``-ed onto the history.  Takes the same ``(B, d,
    m)`` stacks, so it can stand in for the monitor inside
    :class:`~repro.streams.StreamIngestService`.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._sketches = np.empty((0, self.k), dtype=np.float64)

    @property
    def n_windows(self) -> int:
        return self._sketches.shape[0]

    def _sketch(self, window: np.ndarray) -> np.ndarray:
        w = np.asarray(window, dtype=np.float64)
        if w.shape != (self.d, self.m):
            raise ValueError(
                f"window must have shape ({self.d}, {self.m}), got {w.shape}"
            )
        centered = w - w.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(centered, axis=1, keepdims=True)
        z = centered / np.maximum(norms, np.finfo(np.float64).tiny)
        return self._proj @ z.ravel()

    def prime(self, windows) -> None:
        for w in windows:
            self._sketches = np.vstack([self._sketches, self._sketch(w)])

    def score(self, windows) -> tuple[SketchScore, ...]:
        return tuple(self._score_one(w) for w in windows)

    def _score_one(self, window: np.ndarray) -> SketchScore:
        s = self._sketch(window)
        position = self.n_windows
        eligible = self._sketches[: max(position - self.exclusion, 0)]
        if eligible.shape[0] == 0:
            estimate = float("inf")
            alarm = True
            threshold = self._current_threshold()
        else:
            nn = float(np.sqrt(((eligible - s) ** 2).sum(axis=1).min()))
            estimate = self.shrink * nn
            threshold = self._current_threshold()
            in_warmup = (
                self.threshold == "auto" and self._n_scores < self.warmup
            )
            alarm = in_warmup or estimate > threshold
            self._observe(estimate)
        self._sketches = np.vstack([self._sketches, s])
        return SketchScore(
            position=position, estimate=estimate, threshold=threshold, alarm=alarm
        )


def per_tile_seeds(plan, tile) -> tuple[np.ndarray, np.ndarray]:
    """``tile``'s ``(qt_row0, qt_col0)`` from a one-start
    :func:`seed_qt_rows` pass per seed over the tile's own slices, on
    planes built from scratch out of ``plan``'s layouts."""
    spec = plan.spec
    policy = spec.policy
    m = spec.m
    tr = plan.tr_layout.astype(policy.precalc)
    tq = tr if plan.tq_layout is plan.tr_layout else plan.tq_layout.astype(policy.precalc)
    mu_r = _window_stats(tr, m, policy)[0]
    mu_q = mu_r if tq is tr else _window_stats(tq, m, policy)[0]
    r0, r1 = tile.row_start, tile.row_stop
    c0, c1 = tile.col_start, tile.col_stop
    row = seed_qt_rows(tr, [r0], tq[:, c0 : c1 + m - 1], mu_r, mu_q[:, c0:c1], m, policy)
    col = seed_qt_rows(tq, [c0], tr[:, r0 : r1 + m - 1], mu_q, mu_r[:, r0:r1], m, policy)
    return row[0].astype(policy.storage), col[0].astype(policy.storage)
