"""The paper's core contribution: single-tile and multi-tile/multi-GPU
multi-dimensional matrix profile with reduced-precision modes."""

from .anytime import AnytimeState, anytime_matrix_profile, convergence_curve
from .api import matrix_profile
from .config import RetryPolicy, RunConfig, default_exclusion_zone
from .multi_tile import compute_multi_tile, merge_tile_outputs, model_multi_tile
from .pan import PanMatrixProfile, geometric_window_range, pan_matrix_profile
from .planner import TilePlan, plan_tiles, tile_memory_bytes
from .result import MatrixProfileResult
from .scrimp import diagonal_count, diagonal_matrix_profile
from .single_tile import compute_single_tile
from .tiling import Tile, assign_tiles, compute_tile_list, tile_grid_shape

__all__ = [
    "AnytimeState",
    "anytime_matrix_profile",
    "convergence_curve",
    "TilePlan",
    "plan_tiles",
    "tile_memory_bytes",
    "diagonal_count",
    "diagonal_matrix_profile",
    "PanMatrixProfile",
    "geometric_window_range",
    "pan_matrix_profile",
    "matrix_profile",
    "RetryPolicy",
    "RunConfig",
    "default_exclusion_zone",
    "MatrixProfileResult",
    "compute_single_tile",
    "compute_multi_tile",
    "model_multi_tile",
    "merge_tile_outputs",
    "Tile",
    "assign_tiles",
    "compute_tile_list",
    "tile_grid_shape",
]
