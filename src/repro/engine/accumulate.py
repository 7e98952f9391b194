"""CPU-side result accumulation: the merge node of the tile DAG.

Pseudocode 2's second loop — min/argmin-merge every tile's profile into
the global one — plus the bookkeeping every caller used to duplicate:
kernel-cost aggregation, merge-element counting and the modelled CPU
merge time.  :class:`ProfileAccumulator` is fed one
:class:`~repro.engine.backends.TileExecution` at a time by the
dispatcher, in plan order, so the strict-``<`` tie-breaking contract of
:func:`merge_tile_outputs` (earliest reference row wins) is preserved
exactly.

For analytic runs (no numerical output) the accumulator still counts
merge elements from the tile geometry, so :meth:`merge_time` models the
same CPU cost the numeric path would pay.
"""

from __future__ import annotations

import numpy as np

from ..core.tiling import Tile
from ..gpu.calibration import MERGE_TIME_PER_ELEMENT, TILE_DISPATCH_OVERHEAD
from ..gpu.kernel import KernelCost
from ..kernels.update import INDEX_DTYPE
from ..precision.modes import DTYPE_MAX, PrecisionPolicy

__all__ = ["merge_tile_outputs", "merge_mirrored", "merge_time", "ProfileAccumulator"]


def merge_time(
    merge_elements: float, dispatch_count: int, mergers: int = 1, reduce_elements: float = 0.0
) -> float:
    """Modelled CPU min/argmin merge time — the one copy of the formula.

    ``merge_elements`` profile entries merged and ``dispatch_count``
    tiles dispatched, split evenly over ``mergers`` merge nodes, plus
    ``reduce_elements`` merged sequentially by a reduce tree (the
    cluster's gather).  With the defaults the division by one and the
    added zero are exact, so a single merger pays exactly
    ``merge_elements * MERGE_TIME_PER_ELEMENT + dispatch_count *
    TILE_DISPATCH_OVERHEAD``.
    """
    return (
        merge_elements * MERGE_TIME_PER_ELEMENT / mergers
        + dispatch_count * TILE_DISPATCH_OVERHEAD / mergers
        + reduce_elements * MERGE_TIME_PER_ELEMENT
    )


def merge_tile_outputs(
    profile: np.ndarray,
    index: np.ndarray,
    tile: Tile,
    tile_profile: np.ndarray,
    tile_index: np.ndarray,
) -> None:
    """CPU-side min/argmin merge of one tile into the global profile.

    ``profile``/``index`` are global (d, n_q_seg) accumulators; the tile
    contributes its query-column slice.  Strict ``<`` keeps the earliest
    reference row on ties (tiles are merged in row-major tile order, so
    this matches the sequential single-tile iteration order).
    """
    sl = slice(tile.col_start, tile.col_stop)
    target_p = profile[:, sl]
    target_i = index[:, sl]
    improved = tile_profile < target_p
    np.copyto(target_p, tile_profile, where=improved)
    np.copyto(target_i, tile_index, where=improved)


def merge_mirrored(
    profile: np.ndarray,
    index: np.ndarray,
    tile: Tile,
    mirror_profile: np.ndarray,
    mirror_indices: np.ndarray,
) -> None:
    """Merge a symmetric tile's mirrored (row-wise) contribution.

    By symmetry D(i, j) = D(j, i), the row-wise minimum of an
    upper-triangular tile's panel is the profile contribution of global
    columns ``[row_start, row_stop)`` — the band its lower-triangle twin
    would have covered — with the recorded indices already global column
    positions.  The same strict ``<`` applies: together with the
    triangular grid's (band_row, band_col) tile order, every profile
    column still receives its contributions in ascending reference-band
    order, so the earliest-index tie-break matches the full grid's.
    """
    sl = slice(tile.row_start, tile.row_stop)
    target_p = profile[:, sl]
    target_i = index[:, sl]
    improved = mirror_profile < target_p
    np.copyto(target_p, mirror_profile, where=improved)
    np.copyto(target_i, mirror_indices, where=improved)


class ProfileAccumulator:
    """Accumulates tile executions into the global profile + cost totals.

    Parameters
    ----------
    d, n_q_seg:
        Global profile shape (dimension-wise device layout).
    policy:
        Precision policy; the profile starts at the storage dtype's
        distance limit with index -1, so untouched columns of a partial
        (anytime/deadline) run remain a valid upper bound.
    materialize:
        ``False`` for analytic runs — no arrays are allocated, only the
        merge-element and cost accounting is kept.
    """

    def __init__(
        self,
        d: int,
        n_q_seg: int,
        policy: PrecisionPolicy,
        materialize: bool = True,
    ):
        self.d = d
        self.n_q_seg = n_q_seg
        self.policy = policy
        if materialize:
            limit = policy.storage.type(DTYPE_MAX[policy.storage])
            self.profile = np.full((d, n_q_seg), limit, dtype=policy.storage)
            self.index = np.full((d, n_q_seg), -1, dtype=INDEX_DTYPE)
        else:
            self.profile = None
            self.index = None
        self.costs: dict[str, KernelCost] = {}
        self.merge_elements = 0
        self.h2d_saved_bytes = 0.0
        self.precalc_saved_flops = 0.0

    def add(self, execution) -> None:
        """Merge one completed tile (numeric or analytic)."""
        self.h2d_saved_bytes += execution.h2d_saved_bytes
        self.precalc_saved_flops += getattr(execution, "precalc_saved_flops", 0.0)
        output = execution.output
        if output is None:
            # Analytic tile: the merge would touch n_cols columns x d dims
            # (plus the n_rows-column mirrored band of a symmetric tile).
            self.merge_elements += execution.tile.n_cols * self.d
            if getattr(execution.tile, "mirror", False):
                self.merge_elements += execution.tile.n_rows * self.d
            return
        merge_tile_outputs(
            self.profile, self.index, execution.tile,
            output.profile, output.indices,
        )
        self.merge_elements += output.profile.size
        if getattr(output, "mirror_profile", None) is not None:
            merge_mirrored(
                self.profile, self.index, execution.tile,
                output.mirror_profile, output.mirror_indices,
            )
            self.merge_elements += output.mirror_profile.size
        for name, cost in output.costs.items():
            self.costs[name] = (
                cost if name not in self.costs else self.costs[name] + cost
            )

    def extend_columns(self, n_q_seg: int) -> None:
        """Grow the accumulator to ``n_q_seg`` query columns in place.

        New columns start at the storage dtype's distance limit with
        index -1 — exactly the initial state — so a stream that appends
        query segments and then merges the new-band tiles is in the same
        state as an accumulator built at the larger size from scratch.
        Existing columns are untouched (the arrays are copied, values
        preserved bit for bit).
        """
        if n_q_seg < self.n_q_seg:
            raise ValueError(
                f"cannot shrink accumulator from {self.n_q_seg} to "
                f"{n_q_seg} columns"
            )
        if n_q_seg == self.n_q_seg:
            return
        if self.profile is not None:
            limit = self.policy.storage.type(DTYPE_MAX[self.policy.storage])
            profile = np.full(
                (self.d, n_q_seg), limit, dtype=self.policy.storage
            )
            index = np.full((self.d, n_q_seg), -1, dtype=INDEX_DTYPE)
            profile[:, : self.n_q_seg] = self.profile
            index[:, : self.n_q_seg] = self.index
            self.profile = profile
            self.index = index
        self.n_q_seg = n_q_seg

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The accumulator's mergeable state as plain arrays (for
        checkpoint journals; costs are serialised separately)."""
        if self.profile is None:
            raise ValueError("an analytic accumulator has no state to save")
        return {
            "profile": self.profile,
            "index": self.index,
            "merge_elements": np.int64(self.merge_elements),
            "h2d_saved_bytes": np.float64(self.h2d_saved_bytes),
            "precalc_saved_flops": np.float64(self.precalc_saved_flops),
        }

    def restore_state(
        self,
        profile: np.ndarray,
        index: np.ndarray,
        merge_elements: int,
        h2d_saved_bytes: float,
        costs: dict[str, KernelCost] | None = None,
        precalc_saved_flops: float = 0.0,
    ) -> None:
        """Adopt journaled state (checkpoint/resume).  The arrays must
        match the accumulator's shape and storage dtype exactly — resume
        is bit-identical, not a cast."""
        if self.profile is None:
            raise ValueError("cannot restore into an analytic accumulator")
        if profile.shape != self.profile.shape:
            raise ValueError(
                f"journal profile shape {profile.shape} does not match "
                f"accumulator {self.profile.shape}"
            )
        if profile.dtype != self.profile.dtype:
            raise ValueError(
                f"journal dtype {profile.dtype} does not match accumulator "
                f"storage {self.profile.dtype}"
            )
        self.profile[...] = profile
        self.index[...] = index
        self.merge_elements = int(merge_elements)
        self.h2d_saved_bytes = float(h2d_saved_bytes)
        self.precalc_saved_flops = float(precalc_saved_flops)
        if costs is not None:
            self.costs = dict(costs)

    def merge_time(self, dispatch_count: int) -> float:
        """Modelled CPU merge time for ``dispatch_count`` dispatched tiles
        (callers pass completed tiles for partial runs)."""
        return merge_time(self.merge_elements, dispatch_count)

    def host_profile(self) -> np.ndarray:
        """The (n_q_seg, d) float64 time-major profile for results
        (``(0, d)`` for an analytic run)."""
        if self.profile is None:
            return np.empty((0, self.d))
        return np.ascontiguousarray(self.profile.T.astype(np.float64))

    def host_index(self) -> np.ndarray:
        """The (n_q_seg, d) int64 time-major index for results."""
        if self.index is None:
            return np.empty((0, self.d), dtype=INDEX_DTYPE)
        return np.ascontiguousarray(self.index.T)
