"""The one tile-execution loop (Pseudocode 2, second half).

Every entry point used to carry its own copy of this loop — core
multi-tile, analytic model, single tile, service scheduler, multi-node
model — each with a different subset of the production behaviours
(retry, deadlines, locking, metrics).  :func:`execute_plan` is the single
loop now, with the variation points made explicit:

* **backend** — numeric or analytic (:mod:`repro.engine.backends`);
* **executor** — ``parallel_workers`` only chooses where an attempt
  runs: inline on the calling thread (1 worker) or on a thread pool
  (more); the coordinator loop and its decisions are the same either way;
* **tile batches** — the coordinator places the whole queue at once,
  tile by tile in queue order (pre-flight, placement pick,
  ``on_tile_start`` — the order one-tile dispatch uses), groups it by
  the batch key ``(n_rows, n_cols, mirror, execution mode)`` and splits
  each group into ``parallel_workers`` batches of at most the backend's
  ``stack_limit`` (a stacked per-row plane ``T * d * width`` of
  ``SUPER_STEP_ELEMENTS // 32`` elements; see
  :data:`~repro.engine.backends.SUPER_STEP_ELEMENTS` for how the stacks
  were sized).  An attempt runs one batch, which the numeric backend
  prepares in one plane-cache call and runs as one stacked main loop —
  the host analogue of the paper's concurrent streams per GPU
  (Pseudocode 2).  When the queue head cannot be stacked — backends
  without ``stack_limit`` (analytic) or tiles whose row plane leaves
  no room for a second, on either main loop — or a
  ``deadline_at`` is set, the coordinator places and runs one tile at a
  time, so anytime cancellation keeps per-tile granularity.  Everything
  else stays per tile: injected faults and each tile's
  device-memory footprint check run tile by tile in batch order, and
  every tile returns its own outcome, settled (retry, split, escalation,
  health check) exactly as a lone tile's;
* **placement** — static Pseudocode 2 round-robin by default
  (:class:`StaticPlacement` over the plan's assignment), or a dynamic
  :class:`RoundRobinPlacement` with device exclusion for
  retry-around-a-sick-GPU (the service shares one cursor pool-wide);
* **retry** — :class:`TransientDeviceError` re-queues the tile at the
  back of the work deque on a different device, up to the policy's
  ``max_retries`` attempts, then :class:`TileRetryExhaustedError`;
* **deadline / anytime cancellation** — when ``clock()`` passes
  ``deadline_at`` the queued tiles are abandoned; tiles that finished
  are committed, so the accumulator is a valid anytime upper bound;
* **observers** — per-tile hooks (:class:`TileObserver`) feeding service
  metrics, anytime-style progress callbacks and trace annotation without
  the loop knowing about any of them.

Commit order.  The CPU merge is a strict-``<`` min/argmin, so the order
tiles reach the accumulator is part of the output.  A finished tile
*commits* — stream scheduling, ``accumulator.add``, ``journal.record``,
``on_tile_complete`` — in plan-position order, whatever order attempts
finish in.  A planned tile's key is its plan index ``(i,)``; child ``j``
of a split tile with key ``k`` gets ``k + (j,)``, so split children
commit contiguously at their parent's place.  A tile commits as soon as
no queued or in-flight tile has a smaller key; a deadline or the end of
the run commits whatever has finished, in key order.  A serial,
failure-free run commits every tile the moment it finishes, and under
retries, escalations and splits the output is the same for any worker
count.  The tiles that become committable together form a *commit
wave*: each is scheduled and merged in key order, then the journal
writes the wave as one group commit (one state snapshot, one log
append).  The journal always holds a committed prefix, so a crashed run
resumes bit-identically.

Commit before raising.  A tile that ends the run — retries exhausted,
unrecoverable health failure, an OOM that cannot split, any other
error — does not discard the finished tiles before it: no new work is
submitted, in-flight attempts drain, every finished tile with a smaller
key is committed and journaled, and only then does the error propagate.

Fault tolerance (all opt-in; the happy path stays bit-identical) is
one :class:`ExecutionPolicy` a tier builds once and hands to every plan
it runs:

* **health checks / escalation** — ``policy.health``, a
  :class:`~repro.engine.health.HealthPolicy`: every tile's output is
  validated (non-finite or negative distances, implausible implied
  correlations); a sick tile re-executes one rung up the
  FP16 -> Mixed -> FP32 -> FP64 ladder until it passes or
  :class:`~repro.engine.health.TileHealthError` ends the run;
* **OOM splitting** — with ``policy.oom_split`` a tile that cannot fit
  is quartered (halved along a 1-segment axis) and its children
  re-queued, instead of aborting the job;
* **journaling** — pass a :class:`~repro.engine.checkpoint.RunJournal`
  and committed tiles are recorded (tile log + accumulator snapshot);
  a journaled dispatch skips already-completed tiles on resume.

Without ``oom_split``, device OOM
(:class:`~repro.gpu.memory.DeviceOutOfMemoryError`) is *not* retried —
it propagates so callers can re-plan with a finer tiling, the paper's
own answer to memory pressure.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

from ..core.tiling import Tile
from ..gpu.memory import DeviceOutOfMemoryError
from ..gpu.simulator import GPUSimulator, schedule_tile_timing
from ..gpu.stream import Timeline, flush_streams
from ..precision.modes import PrecisionMode
from .accumulate import ProfileAccumulator
from .backends import TileBackend, TileExecution
from .health import HealthPolicy, TileHealthError, escalation_next
from .plan import ExecutionPlan

__all__ = [
    "TransientDeviceError",
    "TileRetryExhaustedError",
    "TilePlacement",
    "StaticPlacement",
    "RoundRobinPlacement",
    "TileObserver",
    "CallbackObserver",
    "DispatchReport",
    "ExecutionPolicy",
    "execute_plan",
]


class TransientDeviceError(RuntimeError):
    """A recoverable per-tile device failure (injected or simulated)."""


class TileRetryExhaustedError(RuntimeError):
    """A tile failed on every allowed attempt."""

    def __init__(
        self,
        tile_id: int,
        attempts: int,
        last: Exception,
        gpu_ids: tuple[int, ...] = (),
        node_ids: tuple[int, ...] = (),
    ):
        self.tile_id = tile_id
        self.attempts = attempts
        self.last = last
        self.gpu_ids = tuple(gpu_ids)
        self.node_ids = tuple(node_ids)
        tried = (
            f" (GPUs tried: {', '.join(str(g) for g in self.gpu_ids)})"
            if self.gpu_ids
            else ""
        )
        nodes = (
            f" (nodes tried: {', '.join(str(n) for n in self.node_ids)})"
            if self.node_ids
            else ""
        )
        super().__init__(
            f"tile {tile_id} failed after {attempts} attempts{tried}{nodes}: "
            f"{last}"
        )


class StaticPlacement:
    """Pseudocode 2's static assignment: the plan already mapped tiles to
    GPUs (round-robin by tile id, or the multi-node flat-GPU map)."""

    def __init__(self, plan: ExecutionPlan):
        self._by_id = {
            tile.tile_id: gpu for tile, gpu in zip(plan.tiles, plan.assignment)
        }
        self._n_gpus = max(plan.assignment, default=0) + 1

    def pick(self, tile: Tile, excluded: set[int]) -> int:
        gpu = self._by_id.get(tile.tile_id)
        if gpu is None:
            # Tiles born after planning (OOM splits): same round-robin-
            # by-id rule the static assignment used.
            gpu = tile.tile_id % self._n_gpus
        return gpu


class RoundRobinPlacement:
    """Dynamic round-robin with device exclusion, shared across jobs.

    The cursor advances on every probe, so concurrent jobs interleave
    over the pool.  When *every* device is excluded the fallback still
    advances the cursor — successive fallback picks rotate through the
    pool instead of pinning one GPU (regression: the old scheduler
    returned ``self._rr % n`` without advancing).
    """

    def __init__(self, n_gpus: int):
        if n_gpus < 1:
            raise ValueError(f"n_gpus must be >= 1, got {n_gpus}")
        self.n_gpus = n_gpus
        #: Guards the cursor; :func:`execute_plan` also serialises its
        #: stream bookkeeping under it, so jobs sharing the placement
        #: share the lock (re-entrant: the engine nests them).
        self.lock = threading.RLock()
        self._rr = 0

    def pick(self, tile: Tile | None = None, excluded: set[int] = frozenset()) -> int:
        with self.lock:
            n = self.n_gpus
            for _ in range(n):
                gpu_id = self._rr % n
                self._rr += 1
                if gpu_id not in excluded:
                    return gpu_id
            # Every device excluded: plain round-robin, cursor advances.
            gpu_id = self._rr % n
            self._rr += 1
            return gpu_id


#: Anything with a ``pick(tile, excluded) -> int`` method.
TilePlacement = StaticPlacement | RoundRobinPlacement


class TileObserver:
    """Per-tile lifecycle hooks; subclass and override what you need."""

    def on_tile_start(self, tile: Tile, gpu_id: int, attempt: int) -> None:
        """A tile was placed on ``gpu_id`` to execute (fires again on each
        retry).  When the queue's tiles can be stacked, the dispatcher
        places the whole queue at once, in queue order, before running it
        in batches."""

    def on_tile_complete(self, tile: Tile, gpu_id: int, execution: TileExecution) -> None:
        """A tile finished and was merged into the accumulator."""

    def on_tile_retry(self, tile: Tile, gpu_id: int, attempt: int, error: Exception) -> None:
        """A transient failure re-queued the tile (``attempt`` was the
        failing attempt number; the device is now excluded for it)."""

    def on_deadline(self, remaining: list[Tile]) -> None:
        """The deadline expired; ``remaining`` tiles were abandoned."""

    def on_tile_escalate(
        self,
        tile: Tile,
        gpu_id: int,
        from_mode: PrecisionMode,
        to_mode: PrecisionMode,
        issues: list[str],
    ) -> None:
        """A tile failed its health checks and was re-queued one rung up
        the escalation ladder."""

    def on_tile_split(
        self, tile: Tile, children: list[Tile], error: Exception
    ) -> None:
        """A tile hit device OOM and was replaced by ``children``."""


class CallbackObserver(TileObserver):
    """Adapter turning plain callables into a :class:`TileObserver`."""

    def __init__(
        self,
        on_complete: Callable | None = None,
        on_retry: Callable | None = None,
        on_deadline: Callable | None = None,
        on_start: Callable | None = None,
        on_escalate: Callable | None = None,
        on_split: Callable | None = None,
    ):
        self._complete = on_complete
        self._retry = on_retry
        self._deadline = on_deadline
        self._start = on_start
        self._escalate = on_escalate
        self._split = on_split

    def on_tile_start(self, tile, gpu_id, attempt):
        if self._start:
            self._start(tile, gpu_id, attempt)

    def on_tile_complete(self, tile, gpu_id, execution):
        if self._complete:
            self._complete(tile, gpu_id, execution)

    def on_tile_retry(self, tile, gpu_id, attempt, error):
        if self._retry:
            self._retry(tile, gpu_id, attempt, error)

    def on_deadline(self, remaining):
        if self._deadline:
            self._deadline(remaining)

    def on_tile_escalate(self, tile, gpu_id, from_mode, to_mode, issues):
        if self._escalate:
            self._escalate(tile, gpu_id, from_mode, to_mode, issues)

    def on_tile_split(self, tile, children, error):
        if self._split:
            self._split(tile, children, error)


@dataclass
class _TileWork:
    tile: Tile
    key: tuple[int, ...]  # commit order: plan index, then split child index
    attempt: int = 0
    excluded: set[int] = field(default_factory=set)
    mode: PrecisionMode | None = None  # escalated execution mode
    devices: list[int] = field(default_factory=list)  # attempted GPU ids
    split_depth: int = 0
    preflighted: bool = False


def _split_tile(tile: Tile, next_id: int, symmetric: bool = False) -> list[Tile]:
    """Quarter a tile (halve along any axis with >= 2 segments).

    Children keep global segment coordinates, so their outputs merge into
    the accumulator exactly like planned tiles.  A 1x1 tile cannot split
    (returns ``[]``; the OOM then propagates).

    ``symmetric`` (symmetric self-join plans) preserves the triangular
    grid's invariants: children of a mirrored tile stay mirrored (their
    row range still precedes their column range), and a *diagonal* tile
    splits into two diagonal children plus one mirrored off-diagonal
    child — the lower-triangle quarter is covered by that child's
    mirrored contribution and is never materialised.
    """
    mirrored = symmetric and getattr(tile, "mirror", False)
    diagonal = (
        symmetric
        and not mirrored
        and (tile.row_start, tile.row_stop) == (tile.col_start, tile.col_stop)
    )
    if diagonal:
        if tile.n_rows < 2:
            return []
        mid = tile.row_start + tile.n_rows // 2
        return [
            Tile(next_id, tile.row_start, mid, tile.col_start, mid),
            Tile(next_id + 1, tile.row_start, mid, mid, tile.col_stop,
                 mirror=True),
            Tile(next_id + 2, mid, tile.row_stop, mid, tile.col_stop),
        ]
    row_halves = [(tile.row_start, tile.row_stop)]
    if tile.n_rows >= 2:
        mid = tile.row_start + tile.n_rows // 2
        row_halves = [(tile.row_start, mid), (mid, tile.row_stop)]
    col_halves = [(tile.col_start, tile.col_stop)]
    if tile.n_cols >= 2:
        mid = tile.col_start + tile.n_cols // 2
        col_halves = [(tile.col_start, mid), (mid, tile.col_stop)]
    if len(row_halves) == 1 and len(col_halves) == 1:
        return []
    children = []
    for r0, r1 in row_halves:
        for c0, c1 in col_halves:
            children.append(Tile(next_id, r0, r1, c0, c1, mirror=mirrored))
            next_id += 1
    return children


@dataclass
class DispatchReport:
    """Bookkeeping of one plan's dispatch."""

    tiles_total: int
    tiles_completed: int = 0
    tile_retries: int = 0
    deadline_hit: bool = False
    executions: list[TileExecution] = field(default_factory=list)
    #: tile id -> final precision mode, for tiles escalated off the
    #: plan's base mode (health failures or pre-flight risk).
    escalations: dict[int, PrecisionMode] = field(default_factory=dict)
    #: parent tile id -> child tile ids, for tiles split on device OOM.
    splits: dict[int, tuple[int, ...]] = field(default_factory=dict)
    #: health-check failures observed (each one escalated or fatal).
    health_failures: int = 0
    #: tiles skipped because a journal already had them (resume).
    tiles_restored: int = 0
    #: wall seconds spent in retry backoff (``RetryPolicy`` delays).
    backoff_seconds: float = 0.0

    @property
    def partial(self) -> bool:
        return self.tiles_completed < self.tiles_total


def _retry_backoff(policy, tile, attempt, sleeper, report) -> None:
    """Pace one re-dispatch: seeded delay keyed on tile geometry.

    Geometry (not tile id) keys the draw so the schedule survives OOM
    splits and cross-placement renumbering, matching ``FaultPlan``.
    """
    if policy is None:
        return
    key = (tile.row_start, tile.row_stop, tile.col_start, tile.col_stop)
    delay = policy.delay(key, attempt)
    if delay > 0.0:
        report.backoff_seconds += delay
        sleeper(delay)


@dataclass(frozen=True)
class ExecutionPolicy:
    """The recovery policy a tier builds once and hands to every plan it
    runs — batch runs, the service scheduler, streams and the cluster —
    so a rule about how tiles run attaches here, once, for every tier.

    ``health`` (a :class:`~repro.engine.health.HealthPolicy`; ``None``:
    off) validates every tile and escalates sick ones; ``max_retries``
    bounds re-attempts after a :class:`TransientDeviceError`;
    ``fault_plan`` is anything with either hook of a
    :class:`~repro.engine.faults.FaultPlan`; ``oom_split`` splits a tile
    on device OOM instead of raising; ``sleeper`` waits out the backoff
    of ``plan.spec.config.retry_policy`` (tests pass a recorder).

    Output bytes: the :attr:`BYTE_NEUTRAL` fields never change a
    completed run's profile, index or costs.  ``health`` may (an
    escalated tile re-runs one rung up the ladder); ``oom_split`` and
    ``fault_plan`` decide which tiles run (split children restart the
    precalculation; injected corruption stays unless ``health`` catches
    it).  No field is part of ``RunConfig.cache_key()``, so a rule for
    keying cached results on a byte-changing field belongs here.
    """

    health: HealthPolicy | None = None
    max_retries: int = 0
    fault_plan: object = None
    oom_split: bool = False
    sleeper: Callable[[float], None] = time.sleep

    #: Fields that never change a completed run's output bytes or costs.
    BYTE_NEUTRAL: ClassVar[tuple[str, ...]] = ("max_retries", "sleeper")
    #: Fields that may (see the class docstring).
    BYTE_CHANGING: ClassVar[tuple[str, ...]] = ("health", "oom_split", "fault_plan")

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


class _InlineExecutor:
    """``parallel_workers=1``: each attempt runs on the calling thread and
    comes back as an already-resolved future."""

    def shutdown(self, cancel_futures: bool = False) -> None:
        pass

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def execute_plan(
    plan: ExecutionPlan,
    backend: TileBackend,
    sim: GPUSimulator,
    accumulator: ProfileAccumulator | None = None,
    placement: "TilePlacement | None" = None,
    timeline: Timeline | None = None,
    observers: Sequence[TileObserver] = (),
    deadline_at: float | None = None,
    clock: Callable[[], float] = time.monotonic,
    label: str | None = None,
    keep_executions: bool = False,
    journal=None,
    parallel_workers: int = 1,
    policy: ExecutionPolicy = ExecutionPolicy(),
) -> DispatchReport:
    """Run every tile of ``plan`` on ``sim`` through ``backend``.

    One coordinator loop owns every decision with shared state: the work
    queue, placement picks, ``plan.escalated()``'s cache, retry / split /
    escalation, observers, stream scheduling, the accumulator and the
    journal.  Each attempt runs one batch of same-key tiles (see the
    module docstring).  ``parallel_workers`` only chooses the executor
    of each attempt (injected failure checks plus backend numerics): 1
    runs it inline, more run it on a thread pool whose workers touch nothing but
    the backend (per-thread workspaces, serialised allocator).  Finished
    tiles commit in plan-position order (see the module docstring), so
    CPU-side merges via the ``accumulator`` reproduce the sequential
    single-tile iteration order — the tie-breaking contract of
    :func:`merge_tile_outputs` — for any worker count, with or without
    faults.

    ``timeline`` defaults to ``sim.timeline``, with one event-driven
    flush at the end so streams interleave maximally.  A job-local
    :class:`~repro.gpu.stream.Timeline` (the service and streams pass
    one, as several jobs share their pool) places each tile's stream ops
    eagerly instead.  A shared :class:`RoundRobinPlacement` also
    serialises stream bookkeeping under its ``lock``.
    ``keep_executions`` retains per-tile :class:`TileExecution` records
    on the report, in commit order (off by default to keep big runs
    lean).  ``journal`` (a :class:`~repro.engine.checkpoint
    .RunJournal`-like object) records committed tiles and skips tiles it
    already holds.

    ``policy`` (an :class:`ExecutionPolicy`) is the recovery policy:
    health checks and escalation, the retry budget, OOM splitting and
    fault injection.  The fault plan's ``injector(label, tile, gpu_id,
    attempt)`` may raise :class:`TransientDeviceError` (or device OOM)
    before a tile allocates anything; its ``corruptor(label, tile,
    gpu_id, attempt, output)`` may scribble over a base-mode tile's
    output *before* the health check (escalated re-executions stay
    clean, so recovery converges).  Re-dispatch after a transient
    failure is paced by ``plan.spec.config.retry_policy`` (a
    :class:`~repro.core.config.RetryPolicy`): seeded, jittered
    exponential backoff keyed on tile *geometry*, so schedules reproduce
    across renumbering like :class:`~repro.engine.faults.FaultPlan`
    draws, waited out through ``policy.sleeper``.

    A deadline stops new submissions and abandons the queue; attempts
    already in flight finish and still commit.  A dispatch with
    ``deadline_at`` runs batches of one tile.  An error that ends the run
    is raised after the finished tiles before it are committed.
    """
    if parallel_workers < 1:
        raise ValueError(
            f"parallel_workers must be >= 1, got {parallel_workers}"
        )
    health = policy.health
    inject = getattr(policy.fault_plan, "injector", None)
    corrupt = getattr(policy.fault_plan, "corruptor", None)
    retry_policy = getattr(plan.spec.config, "retry_policy", None)
    flush_per_tile = timeline is not None
    timeline = timeline if timeline is not None else sim.timeline
    placement = placement if placement is not None else StaticPlacement(plan)
    lock = getattr(placement, "lock", None) or nullcontext()
    tile_label = f"{label}:tile" if label else "tile"
    report = DispatchReport(tiles_total=plan.n_tiles)
    base_mode = PrecisionMode.parse(plan.spec.config.mode)
    symmetric = (
        getattr(plan.spec.config, "symmetric_tiles", False)
        and plan.spec.self_join
    )
    if parallel_workers > 1:
        ensure = getattr(backend, "ensure_serialised_allocator", None)
        if ensure is not None:
            ensure()
        executor = ThreadPoolExecutor(
            max_workers=parallel_workers, thread_name_prefix="tile-worker"
        )
    else:
        executor = _InlineExecutor()

    completed_keys = journal.completed_keys() if journal is not None else frozenset()
    next_id = max((t.tile_id for t in plan.tiles), default=-1) + 1
    work: deque[_TileWork] = deque()
    # Keys of every queued, in-flight or finished-but-uncommitted tile.
    uncommitted: list[tuple[int, ...]] = []
    # key -> (item, gpu_id, execution) awaiting commit; None marks a
    # split parent (its children took its place in ``uncommitted``).
    finished: dict[tuple[int, ...], tuple | None] = {}
    # future -> the (item, gpu_id) picks of the batch it runs.
    in_flight: dict[Future, list[tuple[_TileWork, int]]] = {}
    # Placed batches waiting for a free worker: (active plan, picks).
    pending: deque[tuple[ExecutionPlan, list[tuple[_TileWork, int]]]] = deque()
    # key -> the error of each tile that ended the run.
    fatal: dict[tuple[int, ...], BaseException] = {}
    stack_limit = getattr(backend, "stack_limit", None)

    def enqueue(tile: Tile, key: tuple[int, ...], **state) -> None:
        if journal is not None and journal.key(tile) in completed_keys:
            report.tiles_completed += 1
            report.tiles_restored += 1
            return
        heapq.heappush(uncommitted, key)
        work.append(_TileWork(tile, key, **state))

    def preflight(item: _TileWork) -> None:
        if (
            health is not None
            and health.preflight
            and not item.preflighted
            and item.mode is None
            and plan.spec.reference is not None
        ):
            # Pre-flight risk scoring: start overflow-doomed tiles at the
            # first rung their own data cannot overflow.
            item.preflighted = True
            target = health.preflight_mode(plan.spec, item.tile)
            if target != base_mode:
                item.mode = target
                report.escalations[item.tile.tile_id] = target

    def place_window() -> None:
        """Take the queue — only its head when the backend cannot stack
        the head tile or a deadline is set — and, tile by tile in queue
        order, pre-flight it, pick its GPU and announce its start, the
        order one-tile dispatch uses.  Then group it by batch key and
        queue the batches for the workers: each group split into
        ``parallel_workers`` batches of at most the backend's stack
        limit, in key order of their first tiles."""
        head = work[0]
        preflight(head)
        active_plan = plan if head.mode is None else plan.escalated(head.mode)
        if (
            deadline_at is None
            and stack_limit is not None
            and stack_limit(active_plan, head.tile) > 1
        ):
            window = list(work)
            work.clear()
        else:
            window = [work.popleft()]
        groups: dict[tuple, list[tuple[_TileWork, int]]] = {}
        for item in window:
            preflight(item)
            gpu_id = placement.pick(item.tile, item.excluded)
            item.devices.append(gpu_id)
            for obs in observers:
                obs.on_tile_start(item.tile, gpu_id, item.attempt)
            tile = item.tile
            key = (tile.n_rows, tile.n_cols, getattr(tile, "mirror", False), item.mode)
            groups.setdefault(key, []).append((item, gpu_id))
        batches = []
        for picks in groups.values():
            head = picks[0][0]
            active_plan = plan if head.mode is None else plan.escalated(head.mode)
            limit = stack_limit(active_plan, head.tile) if stack_limit else 1
            size = max(1, min(limit, -(-len(picks) // parallel_workers)))
            batches += [
                (active_plan, picks[i : i + size])
                for i in range(0, len(picks), size)
            ]
        pending.extend(sorted(batches, key=lambda b: b[1][0][0].key))

    def attempt(active_plan, picks: list[tuple[_TileWork, int]]) -> list[tuple]:
        """Run one batch; returns ``(item, gpu_id, outcome)`` per attempted
        tile, the outcome being its execution or the error that stopped
        it.  The injector fires per tile *before* device allocations, so
        an injected failure never leaks pool memory; an unrecoverable
        injected error ends the batch (the tiles before it still run)."""
        outcomes, runnable = [], []
        for item, gpu_id in picks:
            try:
                if inject is not None:
                    inject(label, item.tile, gpu_id, item.attempt)
            except (TransientDeviceError, DeviceOutOfMemoryError) as exc:
                outcomes.append((item, gpu_id, exc))
                continue
            except BaseException as exc:  # committed first, then re-raised
                outcomes.append((item, gpu_id, exc))
                break
            runnable.append((item, gpu_id))
        if not runnable:
            return outcomes
        tiles = [item.tile for item, _ in runnable]
        gpus = [sim.gpus[gpu_id] for _, gpu_id in runnable]
        try:
            if len(runnable) == 1:  # the one-tile protocol every backend speaks
                results = [backend.run(active_plan, tiles[0], gpus[0])]
            else:
                results = backend.run(active_plan, tiles, gpus)
        except Exception as exc:  # every tile's outcome
            results = [exc] * len(runnable)
        return outcomes + [(item, g, r) for (item, g), r in zip(runnable, results)]

    def settle(item: _TileWork, gpu_id: int, outcome) -> None:
        """Retry, split, escalate, fail or finish one attempted tile."""
        nonlocal next_id
        if isinstance(outcome, TransientDeviceError):
            if item.attempt >= policy.max_retries:
                error = TileRetryExhaustedError(
                    item.tile.tile_id, item.attempt + 1, outcome,
                    gpu_ids=tuple(item.devices),
                )
                error.__cause__ = outcome
                fatal[item.key] = error
                return
            for obs in observers:
                obs.on_tile_retry(item.tile, gpu_id, item.attempt, outcome)
            _retry_backoff(retry_policy, item.tile, item.attempt, policy.sleeper, report)
            item.attempt += 1
            item.excluded.add(gpu_id)
            report.tile_retries += 1
            work.append(item)  # re-queue at the back, different device
            return
        if isinstance(outcome, DeviceOutOfMemoryError):
            children = (
                _split_tile(item.tile, next_id, symmetric=symmetric)
                if policy.oom_split
                else []
            )
            if not children:  # no splitting, or a 1x1 tile
                fatal[item.key] = outcome
                return
            next_id += len(children)
            report.splits[item.tile.tile_id] = tuple(c.tile_id for c in children)
            report.tiles_total += len(children) - 1
            for obs in observers:
                obs.on_tile_split(item.tile, children, outcome)
            finished[item.key] = None
            for j, child in enumerate(children):
                enqueue(
                    child, item.key + (j,),
                    mode=item.mode,
                    split_depth=item.split_depth + 1,
                    preflighted=item.preflighted,
                )
            return
        if isinstance(outcome, BaseException):
            fatal[item.key] = outcome
            return
        execution = outcome
        if corrupt is not None and item.mode is None and execution.output is not None:
            corrupt(label, item.tile, gpu_id, item.attempt, execution.output)
        if health is not None and execution.output is not None:
            issues = health.check(execution.output, plan.spec.m)
            if issues:
                report.health_failures += 1
                current = execution.mode if execution.mode is not None else base_mode
                nxt = escalation_next(current) if health.escalate else None
                if nxt is None:
                    fatal[item.key] = TileHealthError(item.tile.tile_id, current, issues)
                    return
                for obs in observers:
                    obs.on_tile_escalate(item.tile, gpu_id, current, nxt, issues)
                item.mode = nxt
                report.escalations[item.tile.tile_id] = nxt
                work.append(item)  # re-execute one rung up the ladder
                return
        execution.gpu_id = gpu_id
        finished[item.key] = (item, gpu_id, execution)

    def commit(ready: list[tuple]) -> None:
        """Commit finished tiles, in key order, as one wave: stream
        scheduling and the merge per tile, one journal group commit
        (one state snapshot, one log append), then the per-tile
        bookkeeping and ``on_tile_complete``."""
        for item, gpu_id, execution in ready:
            gpu = sim.gpus[gpu_id]
            with lock:
                stream = gpu.next_stream()
                schedule_tile_timing(
                    gpu, stream, timeline, execution.timing,
                    f"{tile_label}{item.tile.tile_id}",
                )
                if flush_per_tile:
                    flush_streams(gpu.streams, timeline)
            if accumulator is not None:
                accumulator.add(execution)
        if ready and journal is not None and accumulator is not None:
            journal.record([execution for _, _, execution in ready], accumulator)
        for item, gpu_id, execution in ready:
            report.tiles_completed += 1
            if keep_executions:
                report.executions.append(execution)
            for obs in observers:
                obs.on_tile_complete(item.tile, gpu_id, execution)

    for i, tile in enumerate(plan.tiles):
        enqueue(tile, (i,))

    try:
        while in_flight or ((work or pending) and not fatal):
            if (
                not report.deadline_hit
                and deadline_at is not None
                and clock() >= deadline_at
            ):
                # Anytime-style: commit what finished, abandon the rest.
                report.deadline_hit = True
                remaining = [w.tile for w in work]
                work.clear()
                for obs in observers:
                    obs.on_deadline(remaining)
            while (work or pending) and not fatal and len(in_flight) < parallel_workers:
                if not pending:
                    place_window()
                active_plan, picks = pending.popleft()
                in_flight[executor.submit(attempt, active_plan, picks)] = picks
            if not in_flight:
                break  # the deadline drained the queue
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            outcomes = []
            for future in done:
                picks = in_flight.pop(future)
                try:
                    outcomes += future.result()
                except BaseException as exc:  # committed first, then re-raised
                    outcomes += [(item, gpu_id, exc) for item, gpu_id in picks]
            # Settle in key order, so re-queues (retries, escalations,
            # splits) happen in a reproducible order.  Nothing behind a
            # fatal tile can commit, so its outcomes are dropped — all but
            # an interrupt, which is never swallowed.
            for item, gpu_id, outcome in sorted(outcomes, key=lambda o: o[0].key):
                if not fatal or item.key < min(fatal):
                    settle(item, gpu_id, outcome)
                elif isinstance(outcome, BaseException) and not isinstance(
                    outcome, Exception
                ):
                    fatal[item.key] = outcome
            # Commit every finished tile no outstanding tile precedes.
            ready = []
            while uncommitted and uncommitted[0] in finished:
                entry = finished.pop(heapq.heappop(uncommitted))
                if entry is not None:
                    ready.append(entry)
            commit(ready)
    finally:
        # Queued-but-unstarted attempts are dropped; in-flight ones drain.
        executor.shutdown(cancel_futures=True)
    if fatal:
        # The committable prefix is merged and journaled; now fail with
        # an interrupt if one arrived, else the smallest-key tile's error.
        interrupts = [e for e in fatal.values() if not isinstance(e, Exception)]
        raise interrupts[0] if interrupts else fatal[min(fatal)]

    # After a deadline, tiles that finished behind an abandoned one.
    commit([finished[key] for key in sorted(finished) if finished[key] is not None])

    if not flush_per_tile:
        for gpu in sim.gpus:
            flush_streams(gpu.streams, timeline)
    return report
