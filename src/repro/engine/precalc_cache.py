"""One plane cache for batch plans and streams.

The tiling scheme restarts ``precalculation`` per tile to bound error
propagation (Section IV) — but only the *seed* QT dot products carry
that role.  The windowed means ``mu``, inverse norms ``inv`` and the
streaming coefficients ``df``/``dg`` are strictly window-local: each
output element is a function of its own ``m`` samples, so a tile's
planes are elementwise slices of the full-series planes, bit for bit,
and a batch series is a stream that arrived in one append.
:class:`PlaneCache` exploits that for both:

* **one extension routine.**  Each (precision mode, series role) keeps
  growable planes (:class:`GrowableArray`).  When a plan's layout is
  longer than the planes, the new windows' ``mu``/``inv`` come from a
  suffix pass with the exact per-window ``_Accumulator`` semantics of
  :mod:`repro.kernels.precalc` (Kahan for FP16C), and ``df``/``dg`` from
  a suffix pass with one window of overlap (``T[i-1]`` and ``mu[i-1]``
  of the first new window).  A batch plan is an extension from 0.
* **one seed routine.**  The per-tile seeds ``qt_row0``/``qt_col0`` stay
  per-tile semantically (each is still the naive centred dot of that
  tile's first row/column band, so the error-containment argument is
  untouched), but they are keyed per plan and computed for every band
  start the plan lists in one :func:`~repro.kernels.precalc.seed_qt_rows`
  call per direction — one in all for a self-join, whose row and column
  seeds of a start coincide — over the union span of the plan's tiles.
  Each output column is accumulated on its own, so the span never
  changes a bit.  Starts the plan never listed (OOM-split children) are
  seeded on demand the same way.  Seeds are dropped with their plan.
* with ``precalc_strategy="fft"`` (opt-in, FP64/FP32 only) the seeds come
  from the MASS-style FFT correlation instead — O(n log n) but not
  bit-identical, validated against the ``precision/errors.py`` bound.
  FFT seeds are always taken against the *whole* other series (the FFT
  length follows the series, not the tiles), so a plan's bytes do not
  depend on which tiles it lists.

A stack of same-shape tiles then receives its slices of every plane and
seed in one gather each (:meth:`~repro.kernels.precalc.PrecalcResult.
gathered`), with each tile's ``df[0] = dg[0] = 0`` restored.

Population is lazy: planes and seeds materialise on the first
:meth:`PlaneCache.prepare`, so plans built for analytic modelling never
pay.  Precision escalation lands here naturally — an escalated plan
shares its parent's cache and its first prepare builds that mode's
planes from the escalated layouts.  All state is guarded by one
re-entrant lock, so parallel tile workers share a single build.

Cost accounting: each tile is charged its seed-dot work
(:func:`~repro.gpu.perfmodel.seed_cost`); the plane work
(:func:`~repro.gpu.perfmodel.plane_cost` over the new windows, both
roles even on self-joins, matching the historical per-tile formula) is
charged by one of two rules:

* **carrier** — a cache built with a ``base_mode`` (every
  ``JobSpec.plan``) gives the base mode's plane charge to the smallest
  planned ``tile_id`` every time that tile executes, so serial, parallel,
  retried and resumed runs agree bit for bit;
* **pending** — in every other case (escalated batch modes, every
  stream mode) plane work accrues as a pending charge that the first
  tile of the next prepared stack of that mode claims, once.

If a fault path permanently discards the claiming attempt (escalation
away from the charged mode, an OOM split of the carrier), the plane
charge vanishes from the aggregates with it — consistent with how every
other cost of a discarded attempt is dropped.

A cross-job ``store`` (the service's content-addressed stats cache) can
be plugged in.  It is consulted only when a role is built from empty:
entries are keyed on the series-layout digest plus shape, dtype, ``m``
and mode, and hold the stats planes only (seeds depend on the tiling).
Entries are never written after they are stored.  The planes are
strategy-independent, so jobs differing only in ``precalc_strategy``
share them — by design.  A store hit skips the plane pass and charges
nothing.
"""

from __future__ import annotations

import hashlib
import threading
import weakref

import numpy as np

from ..gpu.perfmodel import plane_cost
from ..kernels.precalc import (
    PrecalcResult,
    PreparedPrecalc,
    _delta_coefficients,
    _window_stats,
    fft_seed_qt_rows,
    seed_qt_rows,
)
from ..precision.modes import PrecisionMode

__all__ = ["GrowableArray", "PlaneCache", "PrecalcPlaneCache"]


class GrowableArray:
    """An append-only array on a capacity-doubling buffer along ``axis``:
    n appends cost O(n) copies and O(log n) reallocations, where
    ``np.concatenate`` per append is O(n^2).  ``shape`` is the initial
    (empty) buffer.  Appended entries never change, so a :attr:`view`
    (the filled prefix) stays valid.
    """

    __slots__ = ("_buf", "_axis", "size")

    def __init__(self, shape, dtype, axis: int):
        self._buf = np.empty(shape, dtype=dtype)
        self._axis = axis
        self.size = 0

    def _span(self, start: int, stop: int) -> tuple:
        return (slice(None),) * self._axis + (slice(start, stop),)

    @property
    def capacity(self) -> int:
        return self._buf.shape[self._axis]

    @property
    def view(self) -> np.ndarray:
        return self._buf[self._span(0, self.size)]

    def append(self, block: np.ndarray) -> None:
        stop = self.size + block.shape[self._axis]
        if stop > self.capacity:
            shape = list(self._buf.shape)
            shape[self._axis] = max(stop, 2 * self.capacity)
            grown = np.empty(shape, dtype=self._buf.dtype)
            grown[self._span(0, self.size)] = self.view
            self._buf = grown
        self._buf[self._span(self.size, stop)] = block
        self.size = stop


#: A role's planes: the precalc-dtype series and mean (seed-dot inputs)
#: and the storage-dtype planes the main loop reads.
_PLANES = ("series_pd", "mu_pd", "mu", "inv", "df", "dg")


def _role(d: int, policy) -> dict:
    """One series role's empty planes in one precision mode."""
    return {
        name: GrowableArray(
            (d, 0), policy.precalc if name.endswith("_pd") else policy.storage, axis=1
        )
        for name in _PLANES
    }


class _ModePlanes:
    """One precision mode's role planes and plane charges."""

    __slots__ = ("r", "q", "charge", "pending", "carrier")

    def __init__(self, r: dict, q: dict, carrier: int):
        self.r = r
        self.q = q  # aliases ``r`` for self-joins
        self.charge = None  # KernelCost of all plane work (the carrier's)
        self.pending = None  # KernelCost of plane work not yet claimed
        self.carrier = carrier  # smallest planned tile id


class PlaneCache:
    """Window-statistics planes and per-plan seeds shared by the tiles of
    a plan, of its escalations and — on a stream — of every later step.

    ``store`` is any mapping-like object with ``get(key)`` /
    ``put(key, entry)`` — the service provides its
    :class:`~repro.service.cache.PrecalcStatsCache`.  ``base_mode``
    selects the carrier charge rule for that mode (see the module
    docstring); ``None`` keeps the pending rule for every mode.
    """

    def __init__(self, store=None, base_mode=None):
        self._store = store
        self._base_mode = None if base_mode is None else PrecisionMode.parse(base_mode)
        self._modes: dict[PrecisionMode, _ModePlanes] = {}
        # id(plan) -> (row seeds, col seeds), each band start -> (first
        # segment covered, storage seeds); dropped when the plan is.  A
        # self-join's row and column seeds of one start coincide: one
        # shared dict.
        self._seeds: dict[int, tuple[dict, dict]] = {}
        self._lock = threading.RLock()

    @property
    def modes_built(self) -> tuple:
        """Precision modes whose planes have materialised (tests/metrics)."""
        with self._lock:
            return tuple(self._modes)

    # ------------------------------------------------------------------

    def prepare(self, plan, tiles) -> PreparedPrecalc:
        """Assemble the precalculation of a stack of same-shape ``tiles``
        of ``plan``.

        Returns a :class:`~repro.kernels.precalc.PreparedPrecalc` whose
        ``result`` is bit-identical to running the per-tile
        precalculation on each tile's device slices and stacking (for the
        default ``"exact"`` strategy), gathered in one pass per plane and
        seed direction; whose ``costs`` charge each tile its seed work
        plus any plane charge it claims (in tile order); and whose
        ``saved_flops`` record the plane work each tile did not redo.
        """
        spec = plan.spec
        with self._lock:
            mode, planes = self._extend(plan)
            row_seeds, col_seeds = self._seeds_for(planes, plan, tiles)
            views = [{name: role[name].view for name in ("mu", "inv", "df", "dg")}
                     for role in (planes.r, planes.q)]
            row_bands = [row_seeds[t.row_start] for t in tiles]
            col_bands = [col_seeds[t.col_start] for t in tiles]
            result = PrecalcResult.gathered(
                spec.m, *views, tiles,
                [(band, t.col_start - lo) for (lo, band), t in zip(row_bands, tiles)],
                [(band, t.row_start - lo) for (lo, band), t in zip(col_bands, tiles)],
            )
            charges = self._claim(mode, planes, tiles)
        return PreparedPrecalc.for_stack(result, spec, tiles[0], charges)

    # ------------------------------------------------------------------

    def _claim(self, mode, planes: _ModePlanes, tiles) -> list:
        """Each tile's plane charge (``None`` for none), by the carrier
        rule in the base mode and the pending rule otherwise."""
        if mode == self._base_mode:
            return [planes.charge if t.tile_id == planes.carrier else None for t in tiles]
        charges = [planes.pending] + [None] * (len(tiles) - 1)
        planes.pending = None
        return charges

    def _extend(self, plan) -> tuple[PrecisionMode, _ModePlanes]:
        """``plan``'s mode planes, extended to the plan's layouts; the new
        plane work joins the mode's charges."""
        spec = plan.spec
        mode = PrecisionMode.parse(spec.config.mode)
        planes = self._modes.get(mode)
        if planes is None:
            r = _role(spec.d, spec.policy)
            q = r if plan.tq_layout is plan.tr_layout else _role(spec.d, spec.policy)
            planes = _ModePlanes(r, q, carrier=min(t.tile_id for t in plan.tiles))
            self._modes[mode] = planes
        new_r = self._extend_role(planes.r, plan.tr_layout, spec)
        new_q = new_r if planes.q is planes.r else self._extend_role(planes.q, plan.tq_layout, spec)
        if new_r or new_q:
            policy = spec.policy
            charge = plane_cost(new_r, new_q, spec.d, policy.precalc.itemsize,
                                policy.compensated)
            planes.charge = charge if planes.charge is None else planes.charge + charge
            planes.pending = charge if planes.pending is None else planes.pending + charge
        return mode, planes

    def _extend_role(self, role: dict, layout, spec) -> int:
        """Append the planes of ``layout``'s windows past the cached ones.

        Returns how many windows were computed: 0 when none are new or
        the store served them (only a role built from empty asks it)."""
        m, policy = spec.m, spec.policy
        n_seg = max(0, layout.shape[1] - m + 1)
        old = role["mu"].size
        if n_seg <= old:
            return 0
        series = role["series_pd"]
        # The cached prefix is a cast of the same layout prefix — layouts
        # grow by appending samples — so only the suffix is new.
        series.append(layout[:, series.size:].astype(policy.precalc, copy=False))
        key = entry = None
        if old == 0 and self._store is not None:
            digest = hashlib.sha256(layout.tobytes()).hexdigest()
            key = (digest, layout.shape, str(layout.dtype), m, policy.mode.value)
            entry = self._store.get(key)
        if entry is not None:
            role["mu_pd"].append(entry["mu_pd"])
            computed = 0
        else:
            sdtype = policy.storage
            series_pd = series.view
            mu_pd, inv = _window_stats(series_pd[:, old:], m, policy)
            role["mu_pd"].append(mu_pd)
            # One window of overlap supplies T[i-1] and mu[i-1] for the
            # first new window; its own (recomputed) column 0 is dropped.
            lo = max(old - 1, 0)
            df, dg = _delta_coefficients(
                series_pd[:, lo:], role["mu_pd"].view[:, lo:], m, policy.precalc
            )
            entry = {
                "mu_pd": mu_pd,
                "mu": mu_pd.astype(sdtype),
                "inv": inv.astype(sdtype),
                "df": df[:, old - lo:].astype(sdtype),
                "dg": dg[:, old - lo:].astype(sdtype),
            }
            if key is not None:
                self._store.put(key, entry)
            computed = n_seg - old
        for name in ("mu", "inv", "df", "dg"):
            role[name].append(entry[name])
        return computed

    def _seeds_for(self, planes: _ModePlanes, plan, tiles) -> tuple[dict, dict]:
        """``plan``'s seed dicts, holding every band start of ``tiles``.

        Missing starts are seeded against the union span of the plan's
        tiles and ``tiles``: on the plan's first stack that is every
        start it lists, later only the starts of OOM-split children."""
        seeds = self._seeds.get(id(plan))
        if seeds is None:
            row_seeds = {}
            seeds = (row_seeds, row_seeds if planes.q is planes.r else {})
            self._seeds[id(plan)] = seeds
            weakref.finalize(plan, self._seeds.pop, id(plan), None)
        row_seeds, col_seeds = seeds
        if all(t.row_start in row_seeds and t.col_start in col_seeds for t in tiles):
            return seeds
        spec = plan.spec
        m, policy = spec.m, spec.policy
        fft = spec.config.precalc_strategy == "fft"
        every = (*plan.tiles, *tiles)
        rows = [(t.row_start, t.col_start, t.col_stop) for t in every]
        cols = [(t.col_start, t.row_start, t.row_stop) for t in every]
        r, q = planes.r, planes.q
        batches = (
            [(row_seeds, r, r, rows + cols)]
            if q is r
            else [(row_seeds, r, q, rows), (col_seeds, q, r, cols)]
        )
        for cache, fixed, other, needs in batches:
            starts = sorted({start for start, _, _ in needs} - cache.keys())
            if not starts:
                continue
            if fft:
                lo, hi = 0, other["mu"].size
            else:
                lo = min(a for _, a, _ in needs)
                hi = max(b for _, _, b in needs)
            bands = (fft_seed_qt_rows if fft else seed_qt_rows)(
                fixed["series_pd"].view, starts, other["series_pd"].view[:, lo : hi + m - 1],
                fixed["mu_pd"].view, other["mu_pd"].view[:, lo:hi], m, policy,
            ).astype(policy.storage)
            cache.update((start, (lo, band)) for start, band in zip(starts, bands))
        return seeds


class PrecalcPlaneCache(PlaneCache):
    """The plane cache of a batch plan (``JobSpec.plan`` attaches one per
    :class:`~repro.engine.plan.ExecutionPlan`, with the job's mode as
    ``base_mode``; escalated plans share their parent's instance)."""

    # Owned, not inherited, so a tracer wrapping this name by class
    # times batch prepares only.
    prepare = PlaneCache.prepare
