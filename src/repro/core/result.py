"""Result containers for matrix profile computations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpu.kernel import KernelCost
from ..gpu.stream import Timeline
from ..precision.modes import PrecisionMode

__all__ = ["MatrixProfileResult"]


@dataclass
class MatrixProfileResult:
    """Multi-dimensional matrix profile ``P`` and index ``I``.

    Attributes
    ----------
    profile:
        ``(n_q_seg, d)`` array.  Column ``k`` is the *k+1-dimensional*
        matrix profile: entry ``[j, k]`` is the smallest mean of the k+1
        best per-dimension z-normalised distances between query segment
        ``j`` and any reference segment (Eq. 3 of the paper).
    index:
        ``(n_q_seg, d)`` int64 array of the minimising reference segment
        positions; -1 where no valid match exists (fully excluded columns).
    mode:
        Precision mode the profile was computed with.
    m:
        Segment (subsequence) length.
    n_tiles, n_gpus:
        Decomposition parameters of the run (1/1 for single-tile).
    timeline:
        Simulated execution timeline; ``timeline.makespan`` is the modelled
        GPU execution time the paper's figures report.
    merge_time:
        Modelled CPU-side tile-merge time (Pseudocode 2, second loop);
        included in :attr:`modeled_time`.
    costs:
        Aggregated per-kernel hardware cost counters.
    h2d_saved_bytes:
        Host-to-device traffic avoided by sharing one upload between the
        identical row/col slices of self-join diagonal tiles.
    precalc_saved_flops:
        Precalculation plane work (mu/inv/df/dg flops) *not* redone
        thanks to the plan-level amortisation layer: the sum over tiles
        of the plane flops they would each have recomputed, minus the
        one-off full-series pass actually charged.  0.0 for single-tile
        runs (nothing to amortise).
    escalations:
        Tile id -> final precision mode, for tiles re-executed up the
        FP16 -> Mixed -> FP32 -> FP64 ladder after failing their health
        checks (or flagged by pre-flight risk scoring).  Empty on a
        healthy run.
    split_tiles:
        Parent tile id -> child tile ids, for tiles split after device
        OOM instead of aborting the job.
    resumed_tiles:
        Tiles restored from a checkpoint journal rather than recomputed
        (:func:`repro.engine.checkpoint.resume_plan`).
    """

    profile: np.ndarray
    index: np.ndarray
    mode: PrecisionMode
    m: int
    n_tiles: int = 1
    n_gpus: int = 1
    timeline: Timeline = field(default_factory=Timeline)
    merge_time: float = 0.0
    costs: dict[str, KernelCost] = field(default_factory=dict)
    h2d_saved_bytes: float = 0.0
    precalc_saved_flops: float = 0.0
    escalations: dict[int, PrecisionMode] = field(default_factory=dict)
    split_tiles: dict[int, tuple[int, ...]] = field(default_factory=dict)
    resumed_tiles: int = 0
    #: Main-loop backend the job actually executed on: ``"numeric"`` or
    #: ``"tensor_core"``.  May differ from ``RunConfig.backend`` when the
    #: request could not be honoured — see :attr:`backend_fallback_reason`.
    backend: str = "numeric"
    #: Why a requested tensor-core backend fell back to the numeric one
    #: (ineligible precision mode, device without tensor cores); ``None``
    #: when the request was honoured or nothing special was requested.
    backend_fallback_reason: str | None = None

    @property
    def n_q_seg(self) -> int:
        return self.profile.shape[0]

    @property
    def d(self) -> int:
        return self.profile.shape[1]

    @property
    def modeled_time(self) -> float:
        """End-to-end modelled execution time in seconds (GPU + merge)."""
        return self.timeline.makespan + self.merge_time

    def kernel_breakdown(self) -> dict[str, float]:
        """Modelled seconds per kernel (the stacked bars of Figs. 4 and 5)."""
        return self.timeline.kernel_breakdown()

    def profile_for(self, k: int) -> np.ndarray:
        """The k-dimensional profile vector (1-based ``k`` in [1, d])."""
        if not 1 <= k <= self.d:
            raise ValueError(f"k must be in [1, {self.d}], got {k}")
        return self.profile[:, k - 1]

    def index_for(self, k: int) -> np.ndarray:
        """The k-dimensional profile index vector (1-based ``k``)."""
        if not 1 <= k <= self.d:
            raise ValueError(f"k must be in [1, {self.d}], got {k}")
        return self.index[:, k - 1]

    def motif_location(self, k: int) -> tuple[int, int]:
        """(query position, reference position) of the best k-dim motif."""
        p = self.profile_for(k)
        j = int(np.argmin(p))
        return j, int(self.index_for(k)[j])
