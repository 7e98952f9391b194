"""Incremental matrix profile: extend a join when new rows arrive.

The tiling argument that makes the engine's tiles independent (each tile
restarts the diagonal recurrence from its own naive ``qt_row0``/
``qt_col0`` seeds, Section IV) also makes the matrix profile *extensible*:
when ``k`` new samples arrive, the segment grid grows by ``k`` rows/
columns and the only uncovered region is an L-shaped band.  Covering the
band with ordinary engine tiles and min/argmin-merging them into the
running accumulator yields the profile a full recompute over the same
tile list would produce — bit for bit, in all five precision modes
(with the default exact seeds):

* the window-statistics planes ``mu``/``inv``/``df``/``dg`` are strictly
  window-local, so the new windows' entries are computed from the suffix
  of the series and appended to the cached planes — the extension
  routine of the one plane cache batch plans use too
  (:class:`~repro.engine.precalc_cache.PlaneCache`; a batch plan is an
  extension from 0), held here as a :class:`StreamPlaneCache`;
* the per-tile seeds are naive centred dots evaluated per output column,
  so computing all of one dispatch's seeds in one batch and slicing them
  per tile is bit-identical to the full-pass-then-slice values (with
  ``precalc_strategy="fft"`` they come from the FFT correlation against
  the whole current series instead, as in a batch plan);
* the strict-``<`` merge keeps the earliest reference row on ties, and
  the band decomposition below merges every query column's tiles in
  strictly increasing row order — the same order a batch dispatch of the
  equivalent tile list uses.

For a **self-join** the step from ``old`` to ``new`` covered segments
emits two tiles, merged B-then-A so per-column row order stays
increasing::

    B: rows [0, old)    x cols [old, new)   (history vs new columns)
    A: rows [old, new)  x cols [0, new)     (new rows vs everything)

For an **AB join** (fixed reference, streaming query) one tile suffices:
all reference rows x the new query columns.

Because tiling *changes* the numerics in reduced precision (each tile
restarts the recurrence), "bit-identical" is pinned against a full
recompute over the stream's :meth:`~IncrementalMatrixProfile.
equivalent_tiles` — the deterministic tile list the append schedule
induces.  ``tests/test_streams_incremental.py`` pins this across modes,
join types and append schedules.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..core.config import RunConfig, default_exclusion_zone
from ..core.tiling import Tile, assign_tiles
from ..engine.accumulate import ProfileAccumulator
from ..engine.backends import NumericBackend, backend_for
from ..engine.dispatch import DispatchReport, ExecutionPolicy, execute_plan
from ..engine.plan import JobSpec
from ..engine.precalc_cache import GrowableArray, PlaneCache
from ..gpu.simulator import GPUSimulator
from ..gpu.stream import Timeline
from ..kernels.layout import to_device_layout, validate_series, validate_stream_samples
from ..precision.modes import PrecisionMode

__all__ = ["StreamPlaneCache", "IncrementalMatrixProfile", "AppendResult"]


class StreamPlaneCache(PlaneCache):
    """The plane cache of a stream: the planes grow with the stream's
    layouts, and with no base mode every mode's plane work is claimed
    by the first tile of the next prepared stack."""

    # Owned, not inherited, so a tracer wrapping this name by class
    # times stream prepares only.
    prepare = PlaneCache.prepare


@dataclass
class AppendResult:
    """Outcome of one stream step (append, cover or probe)."""

    new_segments: int
    tiles: tuple[Tile, ...]
    mode: PrecisionMode
    n_q_seg: int
    report: DispatchReport | None = None

    @property
    def tiles_executed(self) -> int:
        return 0 if self.report is None else self.report.tiles_completed


class IncrementalMatrixProfile:
    """An online matrix profile grown one append at a time.

    Two join shapes:

    * ``reference=None`` — **self-join stream**: the appended samples form
      the one series; every append extends both the row and the column
      axis of the segment grid (exclusion zone applies as usual).
    * ``reference=<series>`` — **AB join**: the reference is fixed, the
      appended samples extend the query axis only.

    :meth:`append` validates + ingests samples and immediately covers the
    new band with exact engine tiles (the incremental tier).  Gated
    tenants instead use :meth:`ingest` (extend only) plus :meth:`probe`
    (exact columns on sketch alarms) — see :mod:`repro.streams.sketch`.

    ``policy`` is the :class:`~repro.engine.dispatch.ExecutionPolicy`
    every step's dispatch runs under (health checks, retries, OOM
    splits, fault injection); with the service's ``sim`` and shared
    ``placement`` (whose lock serialises the pool's bookkeeping) a
    stream dispatched by the ingest service runs exactly as the
    service's :class:`~repro.service.scheduler.TileScheduler` jobs do.
    ``backend`` hands over the
    :class:`~repro.engine.backends.NumericBackend` of a stream this one
    replaces (a sliding re-base), so its per-worker main-loop scratch is
    reused instead of allocated again; by default the stream builds the
    one ``config.backend`` names (:func:`~repro.engine.backends.
    backend_for`).
    """

    def __init__(
        self,
        m: int,
        config: RunConfig | None = None,
        *,
        reference: np.ndarray | None = None,
        initial: np.ndarray | None = None,
        sim: GPUSimulator | None = None,
        policy: ExecutionPolicy = ExecutionPolicy(),
        placement=None,
        clock=time.monotonic,
        backend: NumericBackend | None = None,
    ):
        if m < 2:
            raise ValueError(f"segment length m must be >= 2, got {m}")
        self.m = m
        self.config = config or RunConfig()
        self.policy = self.config.policy
        self.self_join = reference is None
        self.sim = sim if sim is not None else GPUSimulator(
            self.config.device, self.config.n_gpus, self.config.n_streams
        )
        self.execution_policy = policy
        self.clock = clock
        self._placement = placement
        self._backend = (
            backend if backend is not None
            else backend_for(self.config, lock=getattr(placement, "lock", None))[0]
        )
        self.timeline = Timeline()

        if self.self_join:
            self._ref_layout = None
            zone = self.config.exclusion_zone
            self.exclusion_zone = (
                zone if zone is not None else default_exclusion_zone(m)
            )
        else:
            self._ref_layout = to_device_layout(
                validate_series(reference, "reference"), self.policy.storage
            )
            if self._ref_layout.shape[1] < m:
                raise ValueError(
                    f"m={m} too long for reference of "
                    f"{self._ref_layout.shape[1]} samples"
                )
            self.exclusion_zone = self.config.exclusion_zone

        self.d = None if self._ref_layout is None else self._ref_layout.shape[0]
        # The stream layout grows in a capacity-doubling buffer; ``_stream``
        # is its filled prefix, one view per append, so a self-join
        # dispatch binds the same object as both layouts.
        self._samples: GrowableArray | None = None
        self._stream: np.ndarray | None = None
        if self.d is not None:
            self._start_layout(self.d)
        self.samples_ingested = 0
        self._covered = 0  # stream segments covered by exact L-step tiles
        self._next_tile_id = 0
        self._tiles: list[Tile] = []
        self._acc: ProfileAccumulator | None = None
        self._planes = StreamPlaneCache()
        self.tile_retries = 0
        self.tiles_split = 0
        self.health_failures = 0
        self.escalations: dict[int, PrecisionMode] = {}
        if initial is not None:
            self.append(initial)

    def _start_layout(self, d: int) -> None:
        self._samples = GrowableArray((d, 0), self.policy.storage, axis=1)
        self._stream = self._samples.view

    # ------------------------------------------------------------------
    # Geometry

    @property
    def n_samples(self) -> int:
        return 0 if self._stream is None else self._stream.shape[1]

    @property
    def n_q_seg(self) -> int:
        """Completed stream (query) segments."""
        return max(0, self.n_samples - self.m + 1)

    @property
    def n_r_seg(self) -> int:
        """Reference segments the stream joins against."""
        if self.self_join:
            return self.n_q_seg
        return self._ref_layout.shape[1] - self.m + 1

    @property
    def covered_segments(self) -> int:
        return self._covered

    def equivalent_tiles(self) -> tuple[Tile, ...]:
        """The executed tile list, in merge order.

        A batch dispatch of exactly these tiles over the final series
        (``JobSpec.plan(tiles=...)``) reproduces the stream's profile bit
        for bit — the definition of incremental correctness under tiled
        reduced-precision numerics.  (OOM splits replace a planned tile
        with its children at dispatch time; the list records the planned
        geometry.)
        """
        return tuple(self._tiles)

    def windows(self, start: int, stop: int) -> np.ndarray:
        """Segments ``[start, stop)`` as a zero-copy ``(B, d, m)`` view."""
        if not 0 <= start < stop <= self.n_q_seg:
            raise IndexError(f"segments [{start}, {stop}) outside 0..{self.n_q_seg}")
        return sliding_window_view(
            self._stream[:, start : stop + self.m - 1], self.m, axis=1
        ).transpose(1, 0, 2)

    # ------------------------------------------------------------------
    # Ingest / cover / probe

    def ingest(self, samples: np.ndarray) -> tuple[int, int]:
        """Validate + append samples without computing anything.

        Returns ``(old_n_q_seg, new_n_q_seg)``.  Non-finite samples are
        rejected with their dimension and global stream offset named —
        the entry-point contract of :func:`repro.kernels.layout.
        validate_series`, adapted to an unbounded stream.
        """
        arr = validate_stream_samples(
            samples, name="stream samples", offset=self.samples_ingested
        )
        if self.d is None:
            self.d = arr.shape[1]
            self._start_layout(self.d)
        elif arr.shape[1] != self.d:
            raise ValueError(
                f"stream has d={self.d} but samples have d={arr.shape[1]}"
            )
        old = self.n_q_seg
        # Chunked casts append-equal the one-shot ``to_device_layout``
        # cast of the full host series: the cast is elementwise.
        self._samples.append(np.ascontiguousarray(arr.T, dtype=self.policy.storage))
        self._stream = self._samples.view
        self.samples_ingested += arr.shape[0]
        return old, self.n_q_seg

    def append(self, samples: np.ndarray, mode=None) -> AppendResult:
        """Ingest samples and cover the new band with exact tiles.

        ``mode`` optionally dispatches this step's tiles at a different
        precision (admission shedding); the merged accumulator stays in
        the stream's base storage dtype.  Bit-identity to a batch
        recompute holds for un-shed streams (same mode every step).
        """
        self.ingest(samples)
        return self.cover(mode=mode)

    def cover(self, mode=None) -> AppendResult:
        """Cover all uncovered stream segments with the L-step tiles."""
        n_seg = self.n_q_seg
        old = self._covered
        eff = PrecisionMode.parse(mode if mode is not None else self.config.mode)
        if n_seg <= old:
            return AppendResult(0, (), eff, n_seg)
        tiles = []
        if self.self_join:
            if old > 0:
                tiles.append(Tile(self._next_tile_id, 0, old, old, n_seg))
                self._next_tile_id += 1
            tiles.append(Tile(self._next_tile_id, old, n_seg, 0, n_seg))
            self._next_tile_id += 1
        else:
            tiles.append(Tile(self._next_tile_id, 0, self.n_r_seg, old, n_seg))
            self._next_tile_id += 1
        report = self._dispatch(tiles, eff)
        self._covered = n_seg
        return AppendResult(n_seg - old, tuple(tiles), eff, n_seg, report)

    def probe(self, col_start: int, col_stop: int, mode=None) -> AppendResult:
        """Exact distances for columns ``[col_start, col_stop)`` against
        all current reference rows (the sketch-alarm escalation path).

        Unlike :meth:`cover` this leaves the coverage frontier untouched:
        a gated stream's profile is exact only at probed columns, columns
        never probed keep the accumulator's upper-bound initial state.
        """
        if not 0 <= col_start < col_stop <= self.n_q_seg:
            raise ValueError(
                f"probe range [{col_start}, {col_stop}) outside "
                f"0..{self.n_q_seg}"
            )
        eff = PrecisionMode.parse(mode if mode is not None else self.config.mode)
        tile = Tile(self._next_tile_id, 0, self.n_r_seg, col_start, col_stop)
        self._next_tile_id += 1
        report = self._dispatch([tile], eff)
        return AppendResult(0, (tile,), eff, self.n_q_seg, report)

    # ------------------------------------------------------------------

    def _dispatch(self, tiles: list[Tile], mode: PrecisionMode) -> DispatchReport:
        tr = self._stream if self.self_join else self._ref_layout
        spec = JobSpec.from_layouts(
            tr, self._stream, self.m, self.config,
            exclusion_zone=self.exclusion_zone,
        )
        plan = spec.plan(
            tiles=tiles, assignment=assign_tiles(tiles, self.sim.n_gpus)
        )
        plan.precalc_cache = self._planes
        if mode != PrecisionMode.parse(self.config.mode):
            plan = plan.escalated(mode)
        if self._acc is None:
            self._acc = ProfileAccumulator(self.d, self.n_q_seg, self.policy)
        else:
            self._acc.extend_columns(self.n_q_seg)
        report = execute_plan(
            plan,
            self._backend,
            self.sim,
            accumulator=self._acc,
            placement=self._placement,
            timeline=self.timeline,
            clock=self.clock,
            label="stream",
            policy=self.execution_policy,
        )
        self._tiles.extend(tiles)
        self.tile_retries += report.tile_retries
        self.tiles_split += len(report.splits)
        self.health_failures += report.health_failures
        self.escalations.update(report.escalations)
        return report

    # ------------------------------------------------------------------
    # Results

    @property
    def accumulator(self) -> ProfileAccumulator | None:
        return self._acc

    def profile(self) -> tuple[np.ndarray, np.ndarray]:
        """Host ``(n_q_seg, d)`` float64 profile + int64 index."""
        if self._acc is None:
            d = self.d or 0
            return (
                np.empty((0, d)),
                np.empty((0, d), dtype=np.int64),
            )
        return self._acc.host_profile(), self._acc.host_index()

    # ------------------------------------------------------------------
    # Checkpoint / resume

    def save(self, path, extra: dict | None = None) -> None:
        """Checkpoint the stream to ``path`` (npz).

        Saves the stream layout, accumulator state and tile bookkeeping;
        :meth:`load` resumes bit-identically (modelled cost aggregates
        and the timeline restart empty — they are observability, not
        state).  ``extra`` is caller state (JSON-serialisable) saved
        alongside; :meth:`load` hands it back as ``checkpoint_extra``.
        """
        if self._acc is None:
            raise ValueError("nothing to checkpoint: no segments covered yet")
        meta = {
            "m": self.m,
            "mode": PrecisionMode.parse(self.config.mode).value,
            "self_join": self.self_join,
            "exclusion_zone": self.exclusion_zone,
            "covered": self._covered,
            "next_tile_id": self._next_tile_id,
            "samples_ingested": self.samples_ingested,
            "extra": extra or {},
        }
        tiles = np.array(
            [
                [t.tile_id, t.row_start, t.row_stop, t.col_start, t.col_stop]
                for t in self._tiles
            ],
            dtype=np.int64,
        ).reshape(-1, 5)
        # An open handle pins the file name: given a path, numpy would
        # append ".npz" to a suffix-less one and :meth:`load` would miss it.
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh,
                meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                stream=self._stream,
                reference=(
                    np.empty((0, 0)) if self._ref_layout is None else self._ref_layout
                ),
                tiles=tiles,
                profile=self._acc.profile,
                index=self._acc.index,
                merge_elements=np.int64(self._acc.merge_elements),
                h2d_saved_bytes=np.float64(self._acc.h2d_saved_bytes),
                precalc_saved_flops=np.float64(self._acc.precalc_saved_flops),
            )

    @classmethod
    def load(cls, path, config: RunConfig | None = None, **kwargs) -> "IncrementalMatrixProfile":
        """Restore a checkpointed stream; engine hooks via ``kwargs``.

        ``config`` defaults to ``RunConfig(mode=<saved mode>)``; a config
        whose storage dtype disagrees with the checkpoint is rejected
        (resume is bit-identical, not a cast).  The ``extra`` dict given
        to :meth:`save` comes back as ``checkpoint_extra``.
        """
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            stream = data["stream"]
            reference = data["reference"]
            tiles = data["tiles"]
            profile = data["profile"]
            index = data["index"]
            merge_elements = int(data["merge_elements"])
            h2d_saved = float(data["h2d_saved_bytes"])
            saved_flops = float(data["precalc_saved_flops"])
        config = config or RunConfig(mode=meta["mode"])
        if config.policy.storage != stream.dtype:
            raise ValueError(
                f"checkpoint storage dtype {stream.dtype} does not match "
                f"config mode {config.mode} (storage "
                f"{np.dtype(config.policy.storage)})"
            )
        obj = cls(
            meta["m"],
            config.with_(exclusion_zone=meta["exclusion_zone"])
            if meta["self_join"]
            else config,
            reference=None if meta["self_join"] else reference.T,
            **kwargs,
        )
        obj.d = stream.shape[0]
        obj._start_layout(obj.d)
        obj._samples.append(stream)
        obj._stream = obj._samples.view
        obj.exclusion_zone = meta["exclusion_zone"]
        obj.samples_ingested = meta["samples_ingested"]
        obj._covered = meta["covered"]
        obj._next_tile_id = meta["next_tile_id"]
        obj.checkpoint_extra = meta.get("extra", {})
        obj._tiles = [Tile(*(int(v) for v in row)) for row in tiles]
        obj._acc = ProfileAccumulator(obj.d, profile.shape[1], obj.policy)
        obj._acc.restore_state(
            profile, index, merge_elements, h2d_saved,
            precalc_saved_flops=saved_flops,
        )
        return obj
