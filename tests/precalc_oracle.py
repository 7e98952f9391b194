"""Per-tile precalculation — the test oracles of the plane cache.

Under ``src/`` every stack's precalculation comes from one plane cache
(:class:`~repro.engine.precalc_cache.PlaneCache`) in one
``prepare(plan, tiles)`` call.  This module keeps the paths it replaced:

* the **per-tile kernel**: :class:`PrecalcKernel` runs the whole
  precalculation on one tile's device slices, as Pseudocode 1 restarts
  it per tile; :func:`kernel_precalc` hands its results to
  :func:`~repro.engine.backends.run_tile`, and :class:`PerTileCache` is
  a fake plane cache running it on each tile (nothing saved);
* the **per-tile prepare**: one tile at a time from the cache's own
  planes — slicing each plane and seed, restoring ``df[0] = dg[0] = 0``
  on copies, taking the tile's charge claim — then :func:`stacked`.

The suites compare the cache against both: every result plane's bytes,
every cost, every ``saved_flops`` and the claim state left behind.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from repro.engine.precalc_cache import PrecalcPlaneCache
from repro.gpu.kernel import Kernel
from repro.gpu.perfmodel import plane_cost, seed_cost
from repro.kernels.precalc import (
    PrecalcResult,
    PreparedPrecalc,
    _Accumulator,
    _delta_coefficients,
    _window_stats,
)
from repro.precision.modes import PrecisionPolicy
from repro.streams import StreamPlaneCache


def stacked(results) -> PrecalcResult:
    """Same-shape tiles' results as one result over ``d * T`` rows (row
    ``k * T + t`` is dimension ``k`` of tile ``t``).  A single result is
    returned as is."""
    if len(results) == 1:
        return results[0]

    def stack(name):
        arrays = [getattr(r, name) for r in results]
        d, n = arrays[0].shape
        return np.stack(arrays, axis=1).reshape(d * len(arrays), n)

    return PrecalcResult(
        m=results[0].m,
        **{f.name: stack(f.name) for f in fields(PrecalcResult) if f.name != "m"},
    )


def _centered_dot_against(
    fixed_seg: np.ndarray,
    fixed_mu: np.ndarray,
    series: np.ndarray,
    mu: np.ndarray,
    m: int,
    policy: PrecisionPolicy,
) -> np.ndarray:
    """Naive centred dot products of one fixed segment against all segments.

    ``out[k, j] = sum_t (fixed[k, t] - fixed_mu[k]) * (series[k, j+t] - mu[k, j])``

    Accumulated sequentially over ``t`` in the precalc dtype (one rounded
    FMA per step), with optional Kahan compensation — one thread per
    output element on the device.
    """
    dtype = policy.precalc
    d, n_seg = mu.shape
    acc = _Accumulator((d, n_seg), dtype, policy.compensated)
    fixed_centered = (fixed_seg - fixed_mu[:, None]).astype(dtype, copy=False)
    cols = [fixed_centered[:, t : t + 1] for t in range(m)]
    diff = np.empty((d, n_seg), dtype=dtype)
    term = np.empty((d, n_seg), dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(m):
            np.subtract(series[:, t : t + n_seg], mu, out=diff)
            np.multiply(cols[t], diff, out=term)
            acc.add(term)
    return acc.value


def _role(dev, m, policy):
    """One role's precalc-dtype series and its mu, inv, df, dg planes."""
    series = dev.astype(policy.precalc, copy=False)
    mu, inv = _window_stats(series, m, policy)
    return (series, mu, inv, *_delta_coefficients(series, mu, m, policy.precalc))


@dataclass
class PrecalcKernel(Kernel):
    """Executes the precalculation for one tile and records its cost."""

    policy: PrecisionPolicy = field(kw_only=True)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.cost.name = "precalculation"  # the label of the charges it records

    def run(self, tr_dev: np.ndarray, tq_dev: np.ndarray, m: int) -> PrecalcResult:
        """``tr_dev``/``tq_dev`` are (d, len) device arrays in storage dtype."""
        if tr_dev.ndim != 2 or tq_dev.ndim != 2:
            raise ValueError("device series must be 2-d (d, n)")
        if tr_dev.shape[0] != tq_dev.shape[0]:
            raise ValueError(f"dimensionality mismatch: {tr_dev.shape[0]} vs {tq_dev.shape[0]}")
        if m < 2:
            raise ValueError(f"segment length m must be >= 2, got {m}")
        if m > min(tr_dev.shape[1], tq_dev.shape[1]):
            raise ValueError(f"m={m} exceeds series lengths {tr_dev.shape[1]}, {tq_dev.shape[1]}")
        policy = self.policy
        # A diagonal self-join tile hands in one array for both roles:
        # every q-side quantity is then its r-side twin, computed once.
        r = _role(tr_dev, m, policy)
        q = r if tq_dev is tr_dev else _role(tq_dev, m, policy)
        row0 = _centered_dot_against(r[0][:, :m], r[1][:, 0], q[0], q[1], m, policy)
        col0 = row0 if q is r else _centered_dot_against(
            q[0][:, :m], q[1][:, 0], r[0], r[1], m, policy)
        planes = {
            f"{name}_{side}": plane
            for side, role in (("r", r), ("q", q))
            for name, plane in zip(("mu", "inv", "df", "dg"), role[1:])
        }
        result = PrecalcResult(m=m, **{
            name: plane.astype(policy.storage)
            for name, plane in dict(planes, qt_row0=row0, qt_col0=col0).items()
        })
        # The per-tile formula: seed work plus both roles' planes over
        # the tile's own segments.
        n_r, n_q, d = result.n_r_seg, result.n_q_seg, result.d
        size, compensated = policy.precalc.itemsize, policy.compensated
        self._charge(
            seed_cost(n_r, n_q, d, m, size, self.config, compensated)
            + plane_cost(n_r, n_q, d, size, compensated)
        )
        return result


def naive_qt_row(tr_dev, tq_dev, m: int, row: int, policy: PrecisionPolicy) -> np.ndarray:
    """Centred QT of reference segment ``row`` against all query
    segments, computed naively in the precalc precision (validates the
    streaming recurrence at arbitrary rows)."""
    r = _role(tr_dev, m, policy)
    q = r if tq_dev is tr_dev else _role(tq_dev, m, policy)
    return _centered_dot_against(r[0][:, row : row + m], r[1][:, row], q[0], q[1], m, policy)


def kernel_precalc(tr_dev, tq_dev, m, policy, launch) -> PreparedPrecalc:
    """The per-tile kernel's precalculation of one tile's ``(d, len)``
    slices, or of each tile of ``(T, d, len)`` stacks (or sequences of
    slices), as ``run_tile`` takes it: each tile charged the kernel's
    cost, nothing saved."""
    if isinstance(tr_dev, np.ndarray) and tr_dev.ndim == 2:
        tr_dev, tq_dev = [tr_dev], [tq_dev]
    results, costs = [], []
    for tr, tq in zip(tr_dev, tq_dev):
        kernel = PrecalcKernel(config=launch, policy=policy)
        results.append(kernel.run(tr, tq, m))
        costs.append(kernel.cost)
    return PreparedPrecalc(stacked(results), tuple(costs), (0.0,) * len(costs))


class PerTileCache:
    """A plane cache that amortises nothing: ``prepare`` runs
    :class:`PrecalcKernel` on each tile's own device slices (a diagonal
    self-join tile hands in one slice for both roles, as the backend
    uploads it once)."""

    def prepare(self, plan, tiles) -> PreparedPrecalc:
        spec = plan.spec
        m = spec.m
        rows, cols = [], []
        for tile in tiles:
            r0, r1 = tile.sample_range_rows(m)
            c0, c1 = tile.sample_range_cols(m)
            rows.append(np.ascontiguousarray(plan.tr_layout[:, r0:r1]))
            shared = plan.tq_layout is plan.tr_layout and (r0, r1) == (c0, c1)
            cols.append(rows[-1] if shared else np.ascontiguousarray(plan.tq_layout[:, c0:c1]))
        return kernel_precalc(rows, cols, m, spec.policy, spec.config.launch)


def _sliced(m, r, q, tile, row_seed, col_seed) -> PrecalcResult:
    """One tile's result: zero-copy ``mu``/``inv`` and seed slices,
    ``df``/``dg`` slice-copies with column 0 cleared."""
    r0, r1 = tile.row_start, tile.row_stop
    c0, c1 = tile.col_start, tile.col_stop
    fresh = {}
    for side, role, lo, hi in (("r", r, r0, r1), ("q", q, c0, c1)):
        for name in ("df", "dg"):
            plane = role[name][:, lo:hi].copy()
            plane[:, 0] = 0
            fresh[f"{name}_{side}"] = plane
    return PrecalcResult(
        m=m,
        mu_r=r["mu"][:, r0:r1], inv_r=r["inv"][:, r0:r1],
        mu_q=q["mu"][:, c0:c1], inv_q=q["inv"][:, c0:c1],
        qt_row0=row_seed, qt_col0=col_seed, **fresh,
    )


def per_tile_prepare(cache, plan, tile) -> PreparedPrecalc:
    """``tile``'s precalculation the one-tile way, as a stack of one."""
    spec = plan.spec
    m = spec.m
    with cache._lock:
        mode, planes = cache._extend(plan)
        row_seeds, col_seeds = cache._seeds_for(planes, plan, [tile])
        r, q = ({name: role[name].view for name in ("mu", "inv", "df", "dg")}
                for role in (planes.r, planes.q))
        r0, r1 = tile.row_start, tile.row_stop
        c0, c1 = tile.col_start, tile.col_stop
        row_lo, row_seed = row_seeds[r0]
        col_lo, col_seed = col_seeds[c0]
        result = _sliced(
            m, r, q, tile,
            row_seed[:, c0 - row_lo : c1 - row_lo], col_seed[:, r0 - col_lo : r1 - col_lo],
        )
        if mode == cache._base_mode:
            charge = planes.charge if tile.tile_id == planes.carrier else None
        else:
            charge, planes.pending = planes.pending, None
    cost = seed_cost(
        tile.n_rows, tile.n_cols, spec.d, m,
        spec.policy.precalc.itemsize, spec.config.launch, spec.policy.compensated,
    )
    saved = plane_cost(tile.n_rows, tile.n_cols, spec.d,
                       spec.policy.precalc.itemsize, spec.policy.compensated).flops
    if charge is not None:
        cost = cost + charge
        saved -= charge.flops
    return PreparedPrecalc(result=result, costs=(cost,), saved_flops=(saved,))


def stacked_prepare(cache, plan, tiles) -> PreparedPrecalc:
    """One :func:`per_tile_prepare` per tile, in order, then
    :func:`stacked`."""
    prepared = [per_tile_prepare(cache, plan, tile) for tile in tiles]
    return PreparedPrecalc(
        result=stacked([p.result for p in prepared]),
        costs=tuple(p.costs[0] for p in prepared),
        saved_flops=tuple(p.saved_flops[0] for p in prepared),
    )


@contextmanager
def per_tile_prepares():
    """Route both plane caches' ``prepare`` through :func:`stacked_prepare`
    while the block is active."""
    saved = PrecalcPlaneCache.prepare, StreamPlaneCache.prepare
    PrecalcPlaneCache.prepare = stacked_prepare
    StreamPlaneCache.prepare = stacked_prepare
    try:
        yield
    finally:
        PrecalcPlaneCache.prepare, StreamPlaneCache.prepare = saved
