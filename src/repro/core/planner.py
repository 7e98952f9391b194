"""Automatic tile planning: memory capacity + accuracy targets -> n_tiles.

Section III-B motivates the tiling scheme twice over: it "decouples the
size of the distance matrix running on devices from the actual size of the
input", so arbitrarily large problems fit in device memory, and it
"simplifies tuning for accuracy through careful selection of the number of
tiles".  This module turns both arguments into a planner: given the
problem size, precision mode, device and an optional error target, it
returns the smallest tile count that satisfies the memory bound and the
Section V-B error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..gpu.device import DeviceSpec, get_device
from ..gpu.perfmodel import workspace_bytes
from ..precision.errors import streaming_qt_error_bound, tile_edge_for_target_error
from ..precision.modes import PrecisionMode, policy_for
from .tiling import tile_grid_shape

__all__ = [
    "TilePlan",
    "tile_memory_bytes",
    "plan_tiles",
    "tile_edges",
]


@dataclass(frozen=True)
class TilePlan:
    """Outcome of the planning step."""

    n_tiles: int
    grid: tuple[int, int]
    tile_rows: int
    tile_cols: int
    tile_bytes: int
    memory_bound_tiles: int  # minimum imposed by device memory
    accuracy_bound_tiles: int  # minimum imposed by the error target (1 if none)
    predicted_error_bound: float

    @property
    def limited_by(self) -> str:
        if self.memory_bound_tiles >= self.accuracy_bound_tiles:
            return "memory"
        return "accuracy"


def tile_memory_bytes(
    tile_rows: int, tile_cols: int, d: int, m: int, mode: "PrecisionMode | str"
) -> int:
    """Device-memory footprint of one resident tile.

    Counts what Pseudocode 1 keeps on the device: the two input slices
    plus the vector main loop's :func:`~repro.gpu.perfmodel.
    workspace_bytes` (the eight precalculated vectors, the QT and D
    planes, and the running P/I planes).
    """
    s = policy_for(mode).itemsize
    inputs = (tile_rows + m - 1 + tile_cols + m - 1) * d * s
    return inputs + workspace_bytes(tile_rows, tile_cols, d, s)


def tile_edges(n_r_seg: int, n_q_seg: int, n_tiles: int) -> tuple[int, int]:
    """``(rows, cols)`` of the largest tile of an ``n_tiles`` grid.

    The grid splits each axis into near-equal chunks, so the largest
    tile edge is the ceiling split — no need to materialise the list.
    """
    g_r, g_q = tile_grid_shape(n_tiles)
    return (
        math.ceil(n_r_seg / min(g_r, n_r_seg)),
        math.ceil(n_q_seg / min(g_q, n_q_seg)),
    )


def plan_tiles(
    n_r_seg: int,
    n_q_seg: int,
    d: int,
    m: int,
    mode: "PrecisionMode | str" = PrecisionMode.FP64,
    device: "DeviceSpec | str" = "A100",
    target_error: float | None = None,
    concurrent_tiles_per_gpu: int = 16,
    memory_fraction: float = 0.9,
) -> TilePlan:
    """Choose the smallest valid tile count.

    Constraints:

    * **memory** — ``concurrent_tiles_per_gpu`` resident tiles (one per
      stream) must fit in ``memory_fraction`` of device memory;
    * **accuracy** — if ``target_error`` is given, the tile edge must not
      exceed the Section V-B bound inversion for the mode.

    The returned count is rounded up to the next value whose near-square
    grid actually satisfies both constraints.
    """
    if n_r_seg < 1 or n_q_seg < 1:
        raise ValueError("need at least one segment per axis")
    device = get_device(device)
    budget = device.mem_capacity * memory_fraction / max(concurrent_tiles_per_gpu, 1)

    # Minimum tiles for memory: grow until a tile fits the budget.
    memory_tiles = 1
    while True:
        rows, cols = tile_edges(n_r_seg, n_q_seg, memory_tiles)
        if tile_memory_bytes(rows, cols, d, m, mode) <= budget:
            break
        if memory_tiles >= n_r_seg * n_q_seg:
            raise ValueError(
                "problem cannot be tiled into device memory: a 1x1-segment "
                f"tile still exceeds the {budget:.3g}-byte per-stream budget"
            )
        memory_tiles *= 2

    # Minimum tiles for the accuracy target: bound the tile row count.
    accuracy_tiles = 1
    if target_error is not None:
        edge = tile_edge_for_target_error(target_error, m, mode)
        g_r_needed = math.ceil(n_r_seg / edge)
        accuracy_tiles = 1
        while tile_grid_shape(accuracy_tiles)[0] < min(g_r_needed, n_r_seg):
            accuracy_tiles *= 2

    n_tiles = max(memory_tiles, accuracy_tiles)
    rows, cols = tile_edges(n_r_seg, n_q_seg, n_tiles)
    return TilePlan(
        n_tiles=n_tiles,
        grid=tile_grid_shape(n_tiles),
        tile_rows=rows,
        tile_cols=cols,
        tile_bytes=tile_memory_bytes(rows, cols, d, m, mode),
        memory_bound_tiles=memory_tiles,
        accuracy_bound_tiles=accuracy_tiles,
        predicted_error_bound=streaming_qt_error_bound(rows, m, mode),
    )
