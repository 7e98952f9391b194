"""Plan-level amortisation of the precalculation kernel.

The tiling scheme restarts ``precalculation`` per tile to bound error
propagation (Section IV) — but only the *seed* QT dot products carry
that role.  The windowed means ``mu``, inverse norms ``inv`` and the
streaming coefficients ``df``/``dg`` are strictly window-local: each
output element is a function of its own ``m`` samples, so a tile's
planes are elementwise slices of the full-series planes, bit for bit.
:class:`PrecalcPlaneCache` exploits that:

* the full-series planes are computed **once per (series role,
  precision mode)** with the exact per-window ``_Accumulator``
  semantics of :mod:`repro.kernels.precalc` (including the Kahan FP16C
  path); a stack of same-shape tiles then receives its slices of every
  plane in one gather per plane, stacked the way the main loop runs
  them, with each tile's ``df[0] = dg[0] = 0`` restored;
* the per-tile seeds ``qt_row0``/``qt_col0`` stay per-tile semantically
  (the error-containment argument is untouched: each is still the naive
  centred dot of that tile's first row/column band) but all tiles
  sharing a band are evaluated in one vectorised
  :func:`~repro.kernels.precalc.seed_qt_rows` pass over the full other
  series, then gathered per stack (one gather per seed direction) —
  bit-identical because every ufunc in the accumulation chain is
  elementwise;
* with ``precalc_strategy="fft"`` (opt-in, FP64/FP32 only) the seeds
  come from the MASS-style FFT correlation instead — O(n log n) but not
  bit-identical, validated against the ``precision/errors.py`` bound.

Population is *lazy*: building the cache at plan time costs nothing, the
planes and seeds materialise on the first :meth:`prepare` call (plans
built for analytic modelling or the anytime paths never pay).  Precision
escalation lands here naturally — an escalated plan shares the cache
object and the first escalated tile populates that mode's planes on
demand.  All state is guarded by one re-entrant lock, so parallel tile
workers share a single plane build.

Cost accounting stays honest: each tile is charged only its seed-dot
work (:func:`~repro.kernels.precalc.seed_cost`); the one-off plane pass
(:func:`~repro.kernels.precalc.plane_cost` over the full series — both
roles, matching the historical per-tile formula) is carried by exactly
one deterministic tile per mode, so serial, parallel and resumed runs
agree bit-for-bit:

* base mode: the tile with the smallest planned ``tile_id`` claims the
  charge every time it executes (idempotent across retries — discarded
  attempts discard their costs too);
* escalated modes: the first tile to build the planes claims it.

If a fault path permanently discards the claiming attempt (escalation
away from the charged mode, an OOM split of the carrier), the plane
charge vanishes from the aggregates with it — consistent with how every
other cost of a discarded attempt is dropped.

A cross-job ``store`` (the service's content-addressed stats cache) can
be plugged in: entries are keyed on the series-layout digest plus shape,
dtype, ``m`` and mode, and hold the stats planes only (seeds depend on
the tiling).  The planes are strategy-independent, so jobs differing
only in ``precalc_strategy`` share them — by design.  A store hit skips
the plane pass entirely and nobody carries the charge.
"""

from __future__ import annotations

import hashlib
import threading

from ..gpu.kernel import KernelCost
from ..kernels.precalc import (
    PrecalcResult,
    PreparedPrecalc,
    _delta_coefficients,
    _window_stats,
    fft_seed_qt_rows,
    plane_cost,
    seed_qt_rows,
)
from ..precision.modes import PrecisionMode

__all__ = ["PrecalcPlaneCache"]


class _ModePlanes:
    """One precision mode's full-series planes and per-band seeds."""

    __slots__ = (
        "tr_pd",
        "tq_pd",
        "r",
        "q",
        "row_seeds",
        "col_seeds",
        "charge",
        "charge_claimed",
        "carrier",
    )

    def __init__(self, tr_pd, tq_pd, r, q, charge, carrier):
        self.tr_pd = tr_pd
        self.tq_pd = tq_pd  # aliases tr_pd for self-joins
        self.r = r  # role entry: mu_pd + storage-dtype mu/inv/df/dg
        self.q = q  # the same entry object for self-joins
        self.row_seeds: dict = {}  # band start -> (d, n_q_seg) storage seeds
        # One dict serves both directions on self-joins: the row seed of
        # band s and the col seed of band s are the same function of the
        # same inputs there.
        self.col_seeds: dict = self.row_seeds if q is r else {}
        self.charge: KernelCost | None = charge  # None when served from store
        self.charge_claimed = False
        self.carrier = carrier  # smallest planned tile id: the base-mode carrier


class PrecalcPlaneCache:
    """Shares window-statistics planes and batched seeds across a plan's
    tiles (and, through ``store``, across jobs on the same series).

    Attach one instance per :class:`~repro.engine.plan.ExecutionPlan`
    (done by ``JobSpec.plan``); escalated plans share their parent's
    instance.  ``store`` is any mapping-like object with ``get(key)`` /
    ``put(key, entry)`` — the service provides its
    :class:`~repro.service.cache.PrecalcStatsCache`.
    """

    def __init__(self, store=None, base_mode=PrecisionMode.FP64):
        self._store = store
        self._base_mode = PrecisionMode.parse(base_mode)
        self._planes: dict = {}
        self._lock = threading.RLock()

    @property
    def modes_built(self) -> tuple:
        """Precision modes whose planes have materialised (tests/metrics)."""
        with self._lock:
            return tuple(self._planes)

    # ------------------------------------------------------------------

    def prepare(self, plan, tiles) -> PreparedPrecalc:
        """Assemble the precalculation of a stack of same-shape ``tiles``
        from the cached planes.

        Returns a :class:`~repro.kernels.precalc.PreparedPrecalc` whose
        ``result`` is bit-identical to stacking ``PrecalcKernel.run`` on
        each tile's device slices (for the default ``"exact"``
        strategy), gathered in one pass per plane and seed direction
        (:meth:`~repro.kernels.precalc.PrecalcResult.gathered`); whose
        ``costs`` charge each tile its seed work plus — for the
        designated carrier — the one-off plane pass, claimed in tile
        order; and whose ``saved_flops`` record the plane work each tile
        did not redo.
        """
        spec = plan.spec
        mode = PrecisionMode.parse(spec.config.mode)
        with self._lock:
            planes = self._planes.get(mode)
            if planes is None:
                planes = self._build_planes(plan)
                self._planes[mode] = planes
            rows = {t.row_start for t in tiles}
            cols = {t.col_start for t in tiles}
            if not (rows <= planes.row_seeds.keys() and cols <= planes.col_seeds.keys()):
                # OOM-split children starting mid-band.
                self._ensure_seeds(planes, plan, rows, cols)
            charges = [None] * len(tiles)
            if planes.charge is not None:
                for k, tile in enumerate(tiles):
                    if mode == self._base_mode:
                        claimed = tile.tile_id == planes.carrier
                    else:
                        claimed = not planes.charge_claimed
                        planes.charge_claimed = True
                    if claimed:
                        charges[k] = planes.charge
            result = PrecalcResult.gathered(
                spec.m, planes.r, planes.q, tiles,
                [(planes.row_seeds[t.row_start], t.col_start) for t in tiles],
                [(planes.col_seeds[t.col_start], t.row_start) for t in tiles],
            )
        return PreparedPrecalc.for_stack(result, spec, tiles[0], charges)

    # ------------------------------------------------------------------

    def _store_key(self, layout, spec):
        digest = hashlib.sha256(layout.tobytes()).hexdigest()
        mode = PrecisionMode.parse(spec.config.mode)
        return (digest, layout.shape, str(layout.dtype), spec.m, mode.value)

    @staticmethod
    def _build_role(series_pd, m, policy, pdtype, sdtype) -> dict:
        """One series role's planes, exactly as ``PrecalcKernel.run``
        computes them over the full series."""
        mu_pd, inv_pd = _window_stats(series_pd, m, policy)
        df_pd, dg_pd = _delta_coefficients(series_pd, mu_pd, m, pdtype)
        return {
            "mu_pd": mu_pd,  # precalc-dtype mean plane: seed-dot input
            "mu": mu_pd.astype(sdtype),
            "inv": inv_pd.astype(sdtype),
            "df": df_pd.astype(sdtype),
            "dg": dg_pd.astype(sdtype),
        }

    def _build_planes(self, plan) -> _ModePlanes:
        spec = plan.spec
        policy = spec.policy
        m = spec.m
        pdtype = policy.precalc
        sdtype = policy.storage
        self_join = plan.tq_layout is plan.tr_layout
        tr_pd = plan.tr_layout.astype(pdtype, copy=False)
        tq_pd = tr_pd if self_join else plan.tq_layout.astype(pdtype, copy=False)

        def fetch(layout, series_pd):
            key = self._store_key(layout, spec) if self._store is not None else None
            entry = self._store.get(key) if self._store is not None else None
            if entry is not None:
                return entry, False
            entry = self._build_role(series_pd, m, policy, pdtype, sdtype)
            if self._store is not None:
                self._store.put(key, entry)
            return entry, True

        r_entry, miss_r = fetch(plan.tr_layout, tr_pd)
        if self_join:
            q_entry, miss_q = r_entry, miss_r
        else:
            q_entry, miss_q = fetch(plan.tq_layout, tq_pd)

        # Historical per-tile accounting charges both roles even on
        # self-joins (where one pass serves both); keep that so a
        # single-tile plan reproduces the old precalc cost exactly.
        if self_join:
            charge = (
                plane_cost(spec.n_r_seg, spec.n_q_seg, spec.d, policy)
                if miss_r
                else None
            )
        elif miss_r or miss_q:
            charge = plane_cost(
                spec.n_r_seg if miss_r else 0,
                spec.n_q_seg if miss_q else 0,
                spec.d,
                policy,
            )
        else:
            charge = None
        planes = _ModePlanes(
            tr_pd, tq_pd, r_entry, q_entry, charge,
            carrier=min(t.tile_id for t in plan.tiles),
        )
        # Every planned band's seeds in one batch per direction.
        self._ensure_seeds(
            planes, plan,
            {t.row_start for t in plan.tiles},
            {t.col_start for t in plan.tiles},
        )
        return planes

    def _ensure_seeds(
        self, planes: _ModePlanes, plan, row_needed: set, col_needed: set
    ) -> None:
        """Batch-compute the seed bands among ``row_needed``/``col_needed``
        not built yet: the planned bands once per mode, then only the
        mid-band starts OOM splits create after planning.  Each band's
        seed is element-wise in its inputs, so how bands are batched
        never changes a bit."""
        spec = plan.spec
        policy = spec.policy
        m = spec.m
        sdtype = policy.storage
        strategy = getattr(spec.config, "precalc_strategy", "exact")
        seeds_fn = fft_seed_qt_rows if strategy == "fft" else seed_qt_rows

        if planes.col_seeds is planes.row_seeds:  # self-join: one direction
            row_needed = row_needed | col_needed
            col_needed = set()

        rows_missing = sorted(row_needed - planes.row_seeds.keys())
        if rows_missing:
            batch = seeds_fn(
                planes.tr_pd,
                rows_missing,
                planes.tq_pd,
                planes.r["mu_pd"],
                planes.q["mu_pd"],
                m,
                policy,
            ).astype(sdtype)
            for i, s in enumerate(rows_missing):
                planes.row_seeds[s] = batch[i]
        cols_missing = sorted(col_needed - planes.col_seeds.keys())
        if cols_missing:
            batch = seeds_fn(
                planes.tq_pd,
                cols_missing,
                planes.tr_pd,
                planes.q["mu_pd"],
                planes.r["mu_pd"],
                m,
                policy,
            ).astype(sdtype)
            for i, s in enumerate(cols_missing):
                planes.col_seeds[s] = batch[i]
