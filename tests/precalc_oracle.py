"""Per-tile plane-cache prepare — the test oracle of the stacked prepare.

:class:`~repro.engine.precalc_cache.PrecalcPlaneCache` and
:class:`~repro.streams.incremental.StreamPlaneCache` assemble a whole
stack's precalculation in one ``prepare(plan, tiles)`` call: one gather
per plane and seed band.  This module keeps the path it replaced — one
tile at a time, slicing each plane and seed, restoring the tile-local
``df[0] = dg[0] = 0`` on copies, taking the tile's plane-charge claim —
followed by :meth:`~repro.kernels.precalc.PrecalcResult.stacked`.  The
suites compare the two field for field: every result plane's bytes,
every cost, every ``saved_flops`` and the claim state left behind.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.engine.precalc_cache import PrecalcPlaneCache
from repro.kernels.precalc import PrecalcResult, PreparedPrecalc, plane_cost, seed_cost
from repro.precision.modes import PrecisionMode
from repro.streams import StreamPlaneCache

__all__ = ["per_tile_prepare", "stacked_prepare", "per_tile_prepares"]


def _tile_costs(plan, tile, charge):
    spec = plan.spec
    m = spec.m
    cost = seed_cost(
        tile.n_rows, tile.n_cols, spec.d, m,
        tile.n_rows + m - 1, tile.n_cols + m - 1, spec.policy, spec.config.launch,
    )
    saved = plane_cost(tile.n_rows, tile.n_cols, spec.d, spec.policy).flops
    if charge is not None:
        cost = cost + charge
        saved -= charge.flops
    return cost, saved


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


def _batch_prepare(cache: PrecalcPlaneCache, plan, tile):
    spec = plan.spec
    mode = PrecisionMode.parse(spec.config.mode)
    with cache._lock:
        planes = cache._planes.get(mode)
        if planes is None:
            planes = cache._build_planes(plan)
            cache._planes[mode] = planes
        if (
            tile.row_start not in planes.row_seeds
            or tile.col_start not in planes.col_seeds
        ):
            cache._ensure_seeds(planes, plan, {tile.row_start}, {tile.col_start})
        claimed = False
        if planes.charge is not None:
            if mode == cache._base_mode:
                claimed = tile.tile_id == planes.carrier
            elif not planes.charge_claimed:
                planes.charge_claimed = claimed = True
        c0, c1 = tile.col_start, tile.col_stop
        r0, r1 = tile.row_start, tile.row_stop
        result = _sliced(
            spec.m, planes.r, planes.q, tile,
            planes.row_seeds[r0][:, c0:c1], planes.col_seeds[c0][:, r0:r1],
        )
        return result, _tile_costs(plan, tile, planes.charge if claimed else None)


def _stream_prepare(cache: StreamPlaneCache, plan, tile):
    with cache._lock:
        planes = cache._sync(plan)
        row_seeds, col_seeds = cache._ensure_seeds(planes, plan, [tile])
        r, q = ({name: role[name].view for name in ("mu", "inv", "df", "dg")}
                for role in (planes.r, planes.q))
        r0, r1 = tile.row_start, tile.row_stop
        c0, c1 = tile.col_start, tile.col_stop
        row_lo, row_seed = row_seeds[r0]
        col_lo, col_seed = col_seeds[c0]
        result = _sliced(
            plan.spec.m, r, q, tile,
            row_seed[:, c0 - row_lo : c1 - row_lo], col_seed[:, r0 - col_lo : r1 - col_lo],
        )
        charge, planes.pending_charge = planes.pending_charge, None
        return result, _tile_costs(plan, tile, charge)


def per_tile_prepare(cache, plan, tile) -> PreparedPrecalc:
    """``tile``'s precalculation the one-tile way, as a stack of one."""
    prepare = _stream_prepare if isinstance(cache, StreamPlaneCache) else _batch_prepare
    result, (cost, saved) = prepare(cache, plan, tile)
    return PreparedPrecalc(result=result, costs=(cost,), saved_flops=(saved,))


def stacked_prepare(cache, plan, tiles) -> PreparedPrecalc:
    """One :func:`per_tile_prepare` per tile, in order, then
    :meth:`PrecalcResult.stacked`."""
    prepared = [per_tile_prepare(cache, plan, tile) for tile in tiles]
    return PreparedPrecalc(
        result=PrecalcResult.stacked([p.result for p in prepared]),
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
