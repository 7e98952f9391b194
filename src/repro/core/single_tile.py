"""Single-tile multi-dimensional matrix profile (Pseudocode 1).

The tile algorithm: asynchronously copy the inputs to the device, run the
``precalculation`` kernel once, then iterate over reference rows invoking
``dist_calc`` -> ``sort_&_incl_scan`` -> ``update_mat_prof``, and copy the
profile back.  The numerical work happens in the mode's precision; the
simulated device/stream machinery produces the modelled timeline.

The tile primitive itself (``run_tile``, ``TileOutput``) lives in
:mod:`repro.engine.backends`; this module keeps :func:`compute_single_tile`,
the one-tile adapter over the engine's dispatch loop.
"""

from __future__ import annotations

import numpy as np

from ..engine.backends import backend_for
from ..engine.dispatch import execute_plan
from ..engine.plan import JobSpec
from ..gpu.simulator import GPUSimulator
from .config import RunConfig
from .result import MatrixProfileResult

__all__ = ["compute_single_tile"]


def compute_single_tile(
    reference: np.ndarray,
    query: np.ndarray | None,
    m: int,
    config: RunConfig | None = None,
) -> MatrixProfileResult:
    """Matrix profile of ``query`` against ``reference`` on one simulated GPU.

    ``query=None`` requests a self-join (with the default exclusion zone).
    Host series are (n, d) time-major; 1-d input means d=1.
    """
    config = config or RunConfig()
    spec = JobSpec.from_arrays(reference, query, m, config)
    plan = spec.plan(n_tiles=1, n_gpus=1)
    sim = GPUSimulator(config.device, n_gpus=1, n_streams=config.n_streams or 1)
    backend, fallback_reason = backend_for(config)
    report = execute_plan(plan, backend, sim, keep_executions=True)
    output = report.executions[0].output
    return MatrixProfileResult(
        profile=np.ascontiguousarray(output.profile.T.astype(np.float64)),
        index=np.ascontiguousarray(output.indices.T),
        mode=spec.policy.mode,
        m=m,
        n_tiles=1,
        n_gpus=1,
        timeline=sim.timeline,
        costs=output.costs,
        # Exactly 0.0 by construction: the lone tile carries the full
        # plane charge, so nothing was amortised away.
        precalc_saved_flops=report.executions[0].precalc_saved_flops,
        backend=backend.name,
        backend_fallback_reason=fallback_reason,
    )
