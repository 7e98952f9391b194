"""The ``update_mat_prof`` kernel (Pseudocode 1, line 6).

Merges the inclusive-average plane of iteration ``i`` into the running
matrix profile with a column-wise min/argmin (Eq. 3)::

    P[j,k] = min(P[j,k], D''[i,j,k]);   I[j,k] = i  where it improved

Each thread owns one ``(j, k)`` element — "embarrassingly parallel" in the
paper's words.  Strict ``<`` keeps the *first* minimising row on ties,
matching the sequential iteration order of the CPU reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpu.kernel import Kernel
from ..gpu.perfmodel import update_cost
from ..precision.modes import DTYPE_MAX, PrecisionPolicy
from .workspace import WorkspacePool

__all__ = ["UpdateKernel", "INDEX_DTYPE"]

#: Matrix-profile index dtype; int64 comfortably covers any segment count.
INDEX_DTYPE = np.dtype(np.int64)


def _per_tile(offset) -> np.ndarray:
    """A scalar offset or one offset per tile, shaped ``(T, 1)`` to
    broadcast over ``(d, T, n)`` index planes."""
    return np.asarray(offset, dtype=INDEX_DTYPE).reshape(-1, 1)


def _take_along(block: np.ndarray, best: np.ndarray, axis: int) -> np.ndarray:
    """``block``'s entries at positions ``best`` along ``axis`` — what
    ``np.take_along_axis(block, best[..., None], axis)`` returns with the
    axis dropped — by one flat ``np.take``.  The flat index is built in
    place, one small offset vector per other axis, so nothing of the
    index's size is allocated but the index itself (and numpy's bounded
    ufunc buffer) — not ``take_along_axis``'s broadcast index grids."""
    block = np.ascontiguousarray(block)
    steps = [stride // block.itemsize for stride in block.strides]
    flat = best * steps[axis]
    for ax, (n, step) in enumerate(zip(block.shape, steps)):
        if ax != axis and n > 1:
            shape = [1] * best.ndim
            shape[ax if ax < axis else ax - 1] = n
            flat += np.arange(0, n * step, step).reshape(shape)
    return np.take(block.reshape(-1), flat)


@dataclass
class UpdateKernel(Kernel):
    """Running min/argmin merge for one tile."""

    policy: PrecisionPolicy = field(kw_only=True)
    #: Where the row-axis reduce's transposed keys are leased from: a
    #: caller shares its worker's pool, a kernel built alone gets its own.
    pool: WorkspacePool = field(default_factory=WorkspacePool, kw_only=True,
                                repr=False)

    # Mirrored outputs (symmetric self-join tiles); (re)set by allocate().
    mirror_profile = None
    mirror_indices = None

    def allocate(
        self,
        d: int,
        n_q_seg: int,
        mirror_rows: int | None = None,
        tiles: int | None = None,
    ) -> None:
        """Initialise the running profile to +max and indices to -1.

        ``mirror_rows`` (the tile's reference-row count) additionally
        allocates the mirrored outputs of a symmetric self-join tile: a
        second profile/index pair indexed by tile-local *row*, filled by
        the row-wise reduce of the same distance planes (D(i, j) =
        D(j, i), so row i's minimum over columns is the profile
        contribution of global column ``row_offset + i``).

        ``tiles`` adds the tile axis: the outputs become ``(d, tiles,
        n)`` — one running profile per tile of a stacked batch, fed by
        :meth:`run_block` with ``(d, tiles, rows, n)`` blocks.
        """
        dtype = self.policy.storage
        limit = dtype.type(DTYPE_MAX[np.dtype(dtype)])
        lead = (d,) if tiles is None else (d, tiles)
        self.profile = np.full((*lead, n_q_seg), limit, dtype=dtype)
        self.indices = np.full((*lead, n_q_seg), -1, dtype=INDEX_DTYPE)
        self.mirror_profile = self.mirror_indices = None
        if mirror_rows is not None:
            self.mirror_profile = np.full((*lead, mirror_rows), limit, dtype=dtype)
            self.mirror_indices = np.full(
                (*lead, mirror_rows), -1, dtype=INDEX_DTYPE
            )

    @staticmethod
    def _radix_argmin(
        block: np.ndarray, axis: int, pool: WorkspacePool | None = None
    ) -> np.ndarray:
        """First-occurrence argmin, vectorised for the half/single planes.

        The planes here are saturated inclusive averages — non-negative
        and NaN-free — so their unsigned bit patterns order exactly like
        their values and an integer argmin (first minimum, same
        tie-break) returns identical indices without the scalar
        convert-to-float comparison loops of half precision.  numpy
        reduces a middle axis by first copying the block with that axis
        last; given a ``pool``, that copy goes into a leased buffer.
        """
        if block.dtype == np.float16:
            block = block.view(np.uint16)
        elif block.dtype == np.float32:
            block = block.view(np.uint32)
        if pool is None or axis in (-1, block.ndim - 1):
            return np.argmin(block, axis=axis)
        keys = np.moveaxis(block, axis, -1)
        with pool.lease(keys.shape, keys.dtype) as last:
            np.copyto(last, keys)
            return np.argmin(last, axis=-1)

    def _merge_rowwise(
        self,
        block: np.ndarray,
        profile: np.ndarray,
        indices: np.ndarray,
        row0: int,
        index_offset,
        wide_block: bool = False,
    ) -> None:
        """Row-wise reduce of a masked ``(d, T, rows, n)`` block into the
        ``(d, T, ·)`` ``profile``/``indices`` entries ``row0 ..
        row0+rows-1``.

        The last axis is reduced with the same radix-key argmin (first
        occurrence keeps the earliest position, recorded as
        ``index_offset`` + position; one offset per tile) and merged
        strict-``<`` against the limit-initialised profile, so
        fully-excluded rows keep index -1.  Wide (FP32 accumulator)
        blocks reduce *before* narrowing, mirroring the column path's
        reduce-then-store.  Feeds the mirrored outputs of symmetric tiles
        and the column profile of transposed panels.
        """
        rows = block.shape[2]
        best = self._radix_argmin(block, axis=3)  # (d, T, rows)
        best_val = _take_along(block, best, 3)
        if wide_block:
            with np.errstate(over="ignore", invalid="ignore"):
                best_val = best_val.astype(self.policy.storage)
        target = profile[:, :, row0 : row0 + rows]
        improved = best_val < target
        np.copyto(target, best_val, where=improved)
        best = best.astype(INDEX_DTYPE, copy=False)
        best += _per_tile(index_offset)
        np.copyto(indices[:, :, row0 : row0 + rows], best, where=improved)

    def run(
        self,
        plane: np.ndarray,
        row: int,
        row_offset: int = 0,
        col_offset: int = 0,
    ) -> None:
        """Merge plane ``D''`` of (tile-local) reference row ``row``.

        ``row_offset`` maps the tile-local row to the global reference
        index recorded in ``I`` (multi-tile runs pass the tile's origin);
        ``col_offset`` is the tile's global column origin, used only by
        the mirrored row-wise reduce of symmetric self-join tiles.
        """
        if plane.shape != self.profile.shape:
            raise ValueError(
                f"plane shape {plane.shape} != profile shape {self.profile.shape}"
            )
        plane = plane.astype(self.policy.storage, copy=False)
        improved = plane < self.profile
        np.copyto(self.profile, plane, where=improved)
        np.copyto(self.indices, INDEX_DTYPE.type(row + row_offset), where=improved)
        if self.mirror_profile is not None:
            self._merge_rowwise(plane[:, None, None, :],
                                self.mirror_profile[:, None],
                                self.mirror_indices[:, None], row, col_offset)
        self._charge_row(plane)

    def masked_run(
        self,
        plane: np.ndarray,
        row: int,
        mask: np.ndarray,
        row_offset: int = 0,
        col_offset: int = 0,
    ) -> None:
        """Merge with an exclusion mask (True = excluded column).

        Self-joins exclude trivial matches around the diagonal; the mask is
        applied per row before the min-merge.
        """
        plane = plane.astype(self.policy.storage, copy=False)
        improved = (plane < self.profile) & ~mask
        np.copyto(self.profile, plane, where=improved)
        np.copyto(self.indices, INDEX_DTYPE.type(row + row_offset), where=improved)
        if self.mirror_profile is not None:
            storage = self.policy.storage
            limit = storage.type(DTYPE_MAX[np.dtype(storage)])
            lifted = np.where(np.broadcast_to(mask, plane.shape), limit, plane)
            self._merge_rowwise(lifted[:, None, None, :],
                                self.mirror_profile[:, None],
                                self.mirror_indices[:, None], row, col_offset)
        self._charge_row(plane)

    def run_block(
        self,
        block: np.ndarray,
        row0: int,
        row_offset=0,
        mask: np.ndarray | None = None,
        col_offset=0,
        transposed: bool = False,
        in_place: bool = False,
    ) -> None:
        """Merge a ``(d, rows, n_q)`` block of D'' planes for tile-local
        reference rows ``row0 .. row0+rows-1`` in one step.

        Equivalent to ``rows`` consecutive :meth:`run`/:meth:`masked_run`
        calls, bit for bit: the block is first reduced over its row axis
        with ``argmin`` (first occurrence wins, preserving the sequential
        first-minimising-row tie-break), then the single winner per
        column is merged into the running profile with the same strict
        ``<``.  ``mask`` is the (rows, n_q) exclusion mask (True =
        excluded); masked entries are lifted to the dtype limit, which
        can never win a strict-``<`` merge against a profile that starts
        at that limit.  Nothing is charged: the caller charges the tile.

        ``transposed=True`` takes a ``(d, cols, n_r)`` panel of tile-local
        query columns ``row0 .. row0+cols-1`` against every reference
        row (``mask`` then ``(cols, n_r)``): each column is final after
        one row-wise reduce, the earliest minimising reference row
        winning as in the sequential merge.

        With the tile axis (:meth:`allocate` with ``tiles``) the block is
        ``(d, T, rows, n)``, ``mask`` is ``(T, rows, n)`` and
        ``row_offset``/``col_offset`` hold one offset per tile; every
        tile is reduced on its own.

        ``in_place=True`` marks ``block`` as the caller's scratch: masked
        entries are lifted in place instead of in a masked copy.
        """
        stacked = self.profile.ndim == 3
        profile, indices = self.profile, self.indices
        mirror_profile, mirror_indices = self.mirror_profile, self.mirror_indices
        if not stacked:
            # A plain tile is a stack of one.
            block = block[:, None]
            profile, indices = profile[:, None], indices[:, None]
            if mirror_profile is not None:
                mirror_profile = mirror_profile[:, None]
                mirror_indices = mirror_indices[:, None]
        d, tiles, rows, n_q = block.shape
        n_cols = profile.shape[2]
        if (d, tiles) != profile.shape[:2] or (
            row0 + rows > n_cols if transposed else n_q != n_cols
        ):
            raise ValueError(
                f"block shape {block.shape} != profile shape {self.profile.shape}"
            )
        storage = self.policy.storage
        # Fused tensor-core path: a wide block is the FP32 accumulator
        # fragment from the mma sort/scan (and that kernel's scratch, so
        # masking in place is fine).  Reduce over the row axis *before*
        # narrowing — on hardware the min-merge runs in registers and
        # only the winning entry is stored — so the single FP16 rounding
        # per column happens at the store below.  Ties are decided on
        # the wide values; columns whose wide values differ only below
        # storage precision may therefore pick a different (equally
        # minimal after rounding) row than the storage-domain networks.
        wide_block = block.dtype.itemsize > storage.itemsize
        if not wide_block:
            block = block.astype(storage, copy=False)
        if mask is not None:
            limit = block.dtype.type(DTYPE_MAX[np.dtype(storage)])
            if wide_block or in_place:
                np.copyto(block, limit, where=mask[None])
            else:
                block = np.where(mask[None], limit, block)
        if transposed:
            self._merge_rowwise(block, profile, indices, row0, row_offset)
            return
        # First-occurrence argmin over the row axis (radix keys for the
        # half/single planes — see :meth:`_radix_argmin`).
        best_row = self._radix_argmin(block, 2, self.pool)  # (d, T, n_q)
        best_val = _take_along(block, best_row, 2)
        if wide_block:
            with np.errstate(over="ignore", invalid="ignore"):
                best_val = best_val.astype(storage)
        improved = best_val < profile
        np.copyto(profile, best_val, where=improved)
        best_row = best_row.astype(INDEX_DTYPE, copy=False)
        best_row += _per_tile(row_offset) + INDEX_DTYPE.type(row0)
        np.copyto(indices, best_row, where=improved)
        if mirror_profile is not None:
            self._merge_rowwise(
                block, mirror_profile, mirror_indices, row0,
                col_offset, wide_block=wide_block,
            )

    def _charge_row(self, plane: np.ndarray) -> None:
        """Charge one per-row merge of the ``(d, n_q)`` ``plane``."""
        d, n_q = plane.shape
        self._charge(update_cost(1, n_q, d, self.policy.itemsize,
                                 self.config, mirror=self.mirror_profile is not None))
