"""Public entry point for the multi-dimensional matrix profile."""

from __future__ import annotations

import numpy as np

from ..gpu.device import DeviceSpec
from ..precision.modes import PrecisionMode
from .config import RunConfig
from .multi_tile import compute_multi_tile
from .result import MatrixProfileResult
from .single_tile import compute_single_tile

__all__ = ["matrix_profile"]


def matrix_profile(
    reference: np.ndarray,
    query: np.ndarray | None = None,
    *,
    m: int,
    mode: "PrecisionMode | str" = PrecisionMode.FP64,
    device: "DeviceSpec | str" = "A100",
    n_tiles: int = 1,
    n_gpus: int = 1,
    n_streams: int | None = None,
    exclusion_zone: int | None = None,
    health=None,
    fault_plan=None,
    max_retries: int = 0,
    oom_split: bool = False,
    journal=None,
    observers=(),
    parallel_workers: int | None = None,
    precalc_strategy: str | None = None,
    backend: str | None = None,
    symmetric_tiles: bool | None = None,
    auto: bool = False,
    target_error: float | None = None,
) -> MatrixProfileResult:
    """Compute the multi-dimensional matrix profile of ``query`` against
    ``reference`` on simulated GPU hardware.

    Parameters
    ----------
    reference:
        Reference time series, shape ``(n, d)`` time-major (1-d allowed).
    query:
        Query time series of matching dimensionality, or ``None`` for a
        self-join (trivial matches excluded with STUMPY's ceil(m/4) zone).
    m:
        Segment (subsequence) length, >= 2.
    mode:
        Precision mode: ``"FP64"``, ``"FP32"``, ``"FP16"``, ``"Mixed"`` or
        ``"FP16C"`` (Section III-C of the paper).
    device:
        Simulated GPU model: ``"A100"`` or ``"V100"``.
    n_tiles:
        Number of tiles of the multi-tile scheme (Pseudocode 2).  More
        tiles bound the error propagation of reduced-precision modes at a
        small merge-overhead cost (Fig. 7).
    n_gpus:
        Simulated GPUs; tiles are assigned round-robin.
    n_streams:
        CUDA streams per GPU (default: the device maximum of 16).
    exclusion_zone:
        Override the self-join trivial-match exclusion radius.
    health, fault_plan, max_retries, oom_split, journal, observers:
        Fault-tolerance knobs forwarded to
        :func:`~repro.core.multi_tile.compute_multi_tile` (all opt-in;
        see that function).  Using any of them routes the computation
        through the tiled engine even for a single-tile configuration,
        since the recovery machinery lives in the tile dispatch loop.
    parallel_workers:
        Host threads executing independent tiles concurrently (results
        merge in plan order, so output is deterministic and identical
        to serial dispatch).  ``> 1`` routes through the tiled engine.
    precalc_strategy:
        ``"exact"`` (default) evolves the seed-QT dot products with the
        streaming accumulator; ``"fft"`` batches them through an FFT
        convolution (FP64/FP32 only; see
        :attr:`~repro.core.config.RunConfig.precalc_strategy`).
    backend:
        Main-loop execution backend: ``"numeric"`` (default, the paper's
        vector recurrence) or ``"tensor_core"`` (the packed-panel
        chained-GEMM path; Mixed/FP16C on tensor-core devices only —
        ineligible jobs fall back with the reason recorded on
        :attr:`~repro.core.result.MatrixProfileResult
        .backend_fallback_reason`).  Changes the numerics: the panel
        accumulates in FP32 under the
        :func:`~repro.precision.errors.tc_gemm_error_bound`.
    symmetric_tiles:
        Self-joins only: build just the diagonal and upper-triangular
        tiles and mirror each off-diagonal tile's distance panel into
        the band its lower-triangle twin would have covered (a 64-tile
        request executes 36 tiles, ~1.8x end-to-end).  Numerics-visible
        like ``backend`` — reduced-precision recurrences restart at the
        triangular grid's tile edges, so profiles are not bit-equal to
        the full grid (they stay inside the same Section V-B bounds);
        part of :meth:`~repro.core.config.RunConfig.cache_key`.
    auto:
        Plan the job with :class:`~repro.autotune.AutoTuner`.  Without
        a ``target_error`` it only raises the tile count to the memory
        floor, so the profile stays bit-identical to the untuned call.
    target_error:
        Error budget for the planner (implies ``auto``): it may then
        also change the precision mode, backend, symmetric layout and
        precalc strategy, constrained to candidates whose a-priori bound
        stays inside the budget.  Explicit knob arguments
        (``backend`` etc.) override the planner's choice.

    Returns
    -------
    MatrixProfileResult
        Profile ``P``, index ``I``, the simulated execution timeline and
        aggregated kernel costs.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import matrix_profile
    >>> rng = np.random.default_rng(0)
    >>> ts = rng.normal(size=(512, 4))
    >>> result = matrix_profile(ts, m=32, mode="FP32", n_tiles=4)
    >>> result.profile.shape
    (481, 4)
    """
    config_kwargs = dict(
        mode=mode,
        device=device,
        n_tiles=n_tiles,
        n_gpus=n_gpus,
        n_streams=n_streams,
        exclusion_zone=exclusion_zone,
    )
    if parallel_workers is not None:
        config_kwargs["parallel_workers"] = parallel_workers
    if precalc_strategy is not None:
        config_kwargs["precalc_strategy"] = precalc_strategy
    if backend is not None:
        config_kwargs["backend"] = backend
    if symmetric_tiles is not None:
        config_kwargs["symmetric_tiles"] = symmetric_tiles
    config = RunConfig(**config_kwargs)
    if auto or target_error is not None:
        from ..autotune import AutoTuner

        ref = np.asarray(reference)
        n_r_seg = ref.shape[0] - m + 1
        d = 1 if ref.ndim == 1 else ref.shape[1]
        if query is None:
            n_q_seg, self_join = n_r_seg, True
        else:
            n_q_seg, self_join = np.asarray(query).shape[0] - m + 1, False
        decision = AutoTuner(device=config.device).tune(
            n_r_seg,
            n_q_seg,
            d,
            m,
            mode=config.mode,
            self_join=self_join,
            target_error=target_error,
            n_gpus=n_gpus,
            n_streams=n_streams,
            exclusion_zone=exclusion_zone,
            n_tiles=n_tiles if n_tiles > 1 else None,
        )
        chosen = decision.chosen
        tuned = {"n_tiles": chosen.n_tiles}
        # Explicit knob arguments always win over the planner's choice.
        if target_error is not None:
            tuned["mode"] = chosen.mode
            if symmetric_tiles is None:
                tuned["symmetric_tiles"] = chosen.symmetric_tiles
            if precalc_strategy is None:
                tuned["precalc_strategy"] = chosen.precalc_strategy
            if backend is None:
                tuned["backend"] = chosen.backend
        config = config.with_(**tuned)
    fault_tolerant = (
        health is not None
        or fault_plan is not None
        or max_retries > 0
        or oom_split
        or journal is not None
        or bool(observers)
        or config.parallel_workers > 1
    )
    if config.n_tiles == 1 and config.n_gpus == 1 and not fault_tolerant:
        return compute_single_tile(reference, query, m, config)
    return compute_multi_tile(
        reference,
        query,
        m,
        config,
        health=health,
        fault_plan=fault_plan,
        max_retries=max_retries,
        oom_split=oom_split,
        journal=journal,
        observers=observers,
    )
