"""Time series chains: directional nearest neighbours and drift tracking.

A *chain* (Zhu et al., "Matrix Profile VII") links segments whose nearest
neighbours consistently point forward in time: x -> y -> z where y is
x's right nearest neighbour and x is y's left nearest neighbour.  Chains
expose *drifting* patterns — a motif that slowly evolves — which plain
motifs (symmetric nearest neighbours) miss.

Requires the **left** and **right** matrix profiles: the best match
strictly before / strictly after each position.  This module computes
both with the same kernels and precision machinery as the main pipeline
(self-join only; the split is meaningless for AB joins).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.config import RunConfig, default_exclusion_zone
from ..engine.backends import super_step_rows
from ..engine.plan import JobSpec
from ..kernels.dist_calc import DistCalcKernel
from ..kernels.layout import to_device_layout, validate_series
from ..kernels.sort_scan import SortScanKernel
from ..kernels.update import INDEX_DTYPE, UpdateKernel
from ..kernels.workspace import WorkspacePool

__all__ = ["LeftRightProfile", "left_right_profile", "anchored_chain", "unanchored_chain"]


@dataclass
class LeftRightProfile:
    """Left/right split of a self-join matrix profile (one k column)."""

    m: int
    left_profile: np.ndarray  # (n_seg,) best match strictly before
    left_index: np.ndarray
    right_profile: np.ndarray  # (n_seg,) best match strictly after
    right_index: np.ndarray

    @property
    def n_seg(self) -> int:
        return self.left_profile.shape[0]


def left_right_profile(
    series: np.ndarray,
    m: int,
    config: RunConfig | None = None,
    k: int = 1,
) -> LeftRightProfile:
    """Compute the left and right k-dimensional matrix profiles.

    Same row-blocked kernel pipeline as the batch computation, with two
    running min-merges per block: row i contributes to the *left*
    profile of columns j > i + zone and to the *right* profile of
    columns j < i - zone.
    """
    config = config or RunConfig()
    policy = config.policy
    series = validate_series(series, "series")
    zone = (
        config.exclusion_zone
        if config.exclusion_zone is not None
        else default_exclusion_zone(m)
    )

    dev = to_device_layout(series, policy.storage)
    d = dev.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    n_seg = dev.shape[1] - m + 1

    pool = WorkspacePool()
    dist = DistCalcKernel(config=config.launch, policy=policy, pool=pool)
    sort_scan = SortScanKernel(config=config.launch, policy=policy, pool=pool)
    left = UpdateKernel(config=config.launch, policy=policy, pool=pool)
    right = UpdateKernel(config=config.launch, policy=policy, pool=pool)

    dist.bind(JobSpec.from_layouts(dev, dev, m, config).whole_grid_precalc().result)
    left.allocate(d, n_seg)
    right.allocate(d, n_seg)

    block = super_step_rows(n_seg, n_seg, d)
    cols = np.arange(n_seg)
    with dist.lease(block) as qt_ws:
        for i0 in range(0, n_seg, block):
            b = min(block, n_seg - i0)
            plane = dist.run_block(i0, b, qt_ws).reshape(d, b * n_seg)
            averaged = sort_scan.run(plane, out=plane).reshape(d, b, n_seg)
            rows = np.arange(i0, i0 + b)[:, None]
            # Row i is a *left* neighbour for columns after it...
            left.run_block(averaged, i0, mask=cols <= rows + zone)
            # ...and a *right* neighbour for columns before it.
            right.run_block(averaged, i0, mask=cols >= rows - zone)

    col = k - 1
    return LeftRightProfile(
        m=m,
        left_profile=left.profile[col].astype(np.float64),
        left_index=left.indices[col].astype(INDEX_DTYPE),
        right_profile=right.profile[col].astype(np.float64),
        right_index=right.indices[col].astype(INDEX_DTYPE),
    )


def anchored_chain(lr: LeftRightProfile, start: int) -> list[int]:
    """The chain anchored at ``start``: follow right-neighbour links while
    the backward (left) link agrees — the bidirectional-consistency rule
    that makes chains meaningful rather than arbitrary walks."""
    if not 0 <= start < lr.n_seg:
        raise ValueError(f"start {start} out of range")
    chain = [start]
    current = start
    while True:
        nxt = int(lr.right_index[current])
        if nxt < 0:
            break
        if int(lr.left_index[nxt]) != current:
            break
        chain.append(nxt)
        current = nxt
    return chain


def unanchored_chain(lr: LeftRightProfile) -> list[int]:
    """The longest chain in the series (ties: earliest anchor).

    Computed in O(n) by following each link once (chain membership is a
    forest under the bidirectional-consistency rule).
    """
    lengths = np.ones(lr.n_seg, dtype=np.int64)
    order = np.argsort(-np.arange(lr.n_seg))  # right to left
    for j in order:
        nxt = int(lr.right_index[j])
        if nxt >= 0 and int(lr.left_index[nxt]) == j:
            lengths[j] = lengths[nxt] + 1
    best = int(np.argmax(lengths))
    return anchored_chain(lr, best)
