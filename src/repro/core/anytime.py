"""Anytime (interruptible) matrix profile computation.

STAMP's defining property — and the heart of SCRIMP++ in the paper's
related work — is that processing the distance matrix in *random order*
makes the intermediate result a progressively refining approximation: the
profile after x% of the work already resolves most nearest neighbours.
The GPU algorithm of the paper iterates rows in order (the streaming
recurrence demands it); this module provides the anytime companion:
reference rows are processed in random order using fresh naive dot
products per row (no recurrence), so computation can stop at any fraction
and still return a valid upper-bound profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.plan import JobSpec
from ..kernels.sort_scan import SortScanKernel
from ..kernels.update import UpdateKernel
from ..precision.modes import DTYPE_MAX
from .config import RunConfig
from .result import MatrixProfileResult

__all__ = ["AnytimeState", "anytime_matrix_profile", "convergence_curve"]


@dataclass
class AnytimeState:
    """Intermediate state of an interruptible computation."""

    profile: np.ndarray  # (n_q_seg, d), current upper bound
    index: np.ndarray
    rows_done: int
    rows_total: int

    @property
    def fraction(self) -> float:
        return self.rows_done / self.rows_total if self.rows_total else 1.0


def anytime_matrix_profile(
    reference: np.ndarray,
    query: np.ndarray | None,
    m: int,
    config: RunConfig | None = None,
    fraction: float = 1.0,
    seed: int = 0,
    callback=None,
) -> MatrixProfileResult:
    """Randomised-order matrix profile, stoppable at ``fraction`` of rows.

    ``callback(state: AnytimeState)`` (if given) fires every ~5% of
    progress, enabling convergence monitoring and early termination
    (raise ``StopIteration`` inside the callback to stop immediately).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    config = config or RunConfig()
    policy = config.policy
    dtype = policy.compute

    # Shared engine-level validation: same ValueError family (d-mismatch,
    # window-too-long) and exclusion-zone defaulting as the tiled paths.
    spec = JobSpec.from_arrays(reference, query, m, config)
    zone = spec.exclusion_zone
    tr, tq = spec.layouts()
    pre = spec.whole_grid_precalc().result
    d, n_r_seg, n_q_seg = pre.d, pre.n_r_seg, pre.n_q_seg

    # Centred query windows for per-row naive evaluation: (d, n_q_seg, m).
    q_windows = np.lib.stride_tricks.sliding_window_view(
        tq.astype(dtype, copy=False), m, axis=1
    )
    centered_q = (q_windows - pre.mu_q.astype(dtype)[:, :, None]).astype(dtype)

    sort_scan = SortScanKernel(config=config.launch, policy=policy)
    update = UpdateKernel(config=config.launch, policy=policy)
    update.allocate(d, n_q_seg)

    rng = np.random.default_rng(seed)
    order = rng.permutation(n_r_seg)
    rows_to_do = max(1, int(round(fraction * n_r_seg)))
    report_every = max(1, rows_to_do // 20)
    cols = np.arange(n_q_seg)
    limit = dtype.type(DTYPE_MAX[np.dtype(dtype)])
    tr_c = tr.astype(dtype, copy=False)
    mu_r = pre.mu_r.astype(dtype, copy=False)
    inv_r = pre.inv_r.astype(dtype, copy=False)
    inv_q = pre.inv_q.astype(dtype, copy=False)
    two_m = dtype.type(2 * m)
    one = dtype.type(1)

    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in order[:rows_to_do]:
            seg = (tr_c[:, i : i + m] - mu_r[:, i : i + 1]).astype(dtype)  # (d, m)
            # Rounded sequential accumulation over m (naive dot per row).
            qt = np.zeros((d, n_q_seg), dtype=dtype)
            for t in range(m):
                qt = (qt + (centered_q[:, :, t] * seg[:, t : t + 1]).astype(dtype)).astype(dtype)
            corr = ((qt * inv_r[:, i : i + 1]).astype(dtype) * inv_q).astype(dtype)
            gap = np.maximum((one - corr).astype(dtype), dtype.type(0))
            dist = np.sqrt((two_m * gap).astype(dtype)).astype(dtype)
            dist = np.where(np.isfinite(dist), dist, limit).astype(dtype)
            averaged = sort_scan.run(dist)
            mask = None if zone is None else (np.abs(cols - i) <= zone)[None, :]
            update.run_block(averaged[:, None, :], int(i), mask=mask)
            done += 1
            if callback is not None and (done % report_every == 0 or done == rows_to_do):
                state = AnytimeState(
                    profile=np.ascontiguousarray(update.profile.T.astype(np.float64)),
                    index=np.ascontiguousarray(update.indices.T),
                    rows_done=done,
                    rows_total=n_r_seg,
                )
                try:
                    callback(state)
                except StopIteration:
                    break

    return MatrixProfileResult(
        profile=np.ascontiguousarray(update.profile.T.astype(np.float64)),
        index=np.ascontiguousarray(update.indices.T),
        mode=policy.mode,
        m=m,
        n_tiles=1,
        n_gpus=1,
    )


def convergence_curve(
    reference: np.ndarray,
    query: np.ndarray | None,
    m: int,
    fractions: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 1.0),
    config: RunConfig | None = None,
    tolerance: float = 0.05,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Fraction-of-work vs fraction-of-converged-profile-entries curve.

    An entry counts as converged when its anytime profile value is within
    ``tolerance`` (relative) of the exact value — the anytime property
    says this curve rises far faster than the diagonal.
    """
    exact = anytime_matrix_profile(
        reference, query, m, config=config, fraction=1.0, seed=seed
    )
    curve = []
    for fraction in fractions:
        approx = anytime_matrix_profile(
            reference, query, m, config=config, fraction=fraction, seed=seed
        )
        denom = np.maximum(np.abs(exact.profile), 1e-12)
        rel = np.abs(approx.profile - exact.profile) / denom
        curve.append((fraction, float(np.mean(rel <= tolerance))))
    return curve
