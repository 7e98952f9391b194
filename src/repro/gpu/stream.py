"""CUDA-stream-style asynchronous execution model.

The implementation in the paper relies on the CUDA Stream Management API
for *implicit synchronisation*: "all the data transfers and kernel
executions rely on CUDA streams.  We use maximal 16 non-blocking streams on
one GPU" (Section IV).  Streams let tile uploads/downloads overlap with
kernel execution of other tiles, which is the source of the initial
speed-up when going from 1 to ~256 tiles in Fig. 7.

This module is a small discrete-event scheduler reproducing that behaviour:

* each device has three exclusive engines — ``compute`` (the SMs), ``h2d``
  and ``d2h`` (the two DMA copy engines);
* a :class:`Stream` imposes sequential ordering on the operations submitted
  to it;
* operations start at ``max(stream ready, engine ready)`` — exactly the
  semantics of in-order streams on hardware with dedicated copy engines.

Durations are supplied by the performance model; this module only does the
scheduling arithmetic and keeps the :class:`Timeline` record.

Placement (:func:`flush_streams`) is an earliest-start greedy over the
head ops of the pending streams, ties broken by the lower stream id.  It
keeps those heads in a lazy min-heap keyed on ``(start, stream_id)``
instead of scanning every stream per op.  A popped entry's start is
recomputed; if it has grown, the entry goes back with the new key.  This
is exact: a stream's and an engine's ready times only grow (each op
moves them to ``start + duration (+ overhead)`` from a ``start`` that is
at least their old value), so a stored key is always a lower bound on
that stream's true start.  The first popped entry whose key is still
current therefore has the smallest ``(start, stream_id)`` of all — the
scan's choice, tie-break included.  The linear scan lives on as the test
oracle in ``tests/placement_oracle.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

__all__ = ["StreamOp", "Stream", "DeviceQueues", "Timeline"]

ENGINES = ("compute", "h2d", "d2h")


@dataclass(frozen=True)
class StreamOp:
    """One scheduled operation on a device timeline.

    ``end`` includes the trailing latency overhead (launch gaps, syncs);
    ``busy`` is the engine-exclusive portion only.
    """

    device: str
    device_index: int
    stream: int
    engine: str  # "compute" | "h2d" | "d2h"
    label: str
    start: float
    end: float
    overhead: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def busy(self) -> float:
        return max(self.duration - self.overhead, 0.0)


@dataclass
class Timeline:
    """Complete record of a simulated multi-GPU execution."""

    ops: list[StreamOp] = field(default_factory=list)

    def add(self, op: StreamOp) -> None:
        self.ops.append(op)

    def extend(self, other: "Timeline") -> None:
        self.ops.extend(other.ops)

    @property
    def makespan(self) -> float:
        """End-to-end simulated time (the metric figures report)."""
        return max((op.end for op in self.ops), default=0.0)

    def device_busy_time(self, device_index: int, engine: str = "compute") -> float:
        return sum(
            op.duration
            for op in self.ops
            if op.device_index == device_index and op.engine == engine
        )

    def kernel_breakdown(self) -> dict[str, float]:
        """Total compute time per kernel label prefix (Fig. 4 / Fig. 5 bars).

        Labels are ``"<kernel>:<detail>"``; the prefix before the colon
        groups invocations of the same kernel.
        """
        out: dict[str, float] = {}
        for op in self.ops:
            if op.engine != "compute":
                continue
            key = op.label.split(":", 1)[0]
            out[key] = out.get(key, 0.0) + op.duration
        return out

    def transfer_time(self) -> float:
        return sum(op.duration for op in self.ops if op.engine in ("h2d", "d2h"))


class DeviceQueues:
    """Engine-availability bookkeeping for one device."""

    def __init__(self, name: str, index: int):
        self.name = name
        self.index = index
        self.engine_ready: dict[str, float] = {engine: 0.0 for engine in ENGINES}

    def schedule(
        self,
        stream: "Stream",
        engine: str,
        label: str,
        duration: float,
        timeline: Timeline,
        overhead: float = 0.0,
    ) -> StreamOp:
        """Place one operation; returns the scheduled record.

        ``duration`` occupies the engine exclusively (throughput cost);
        ``overhead`` extends only the issuing stream's ready time (latency
        cost: kernel-launch gaps and coarse-grained synchronisation stalls).
        With a single stream, overheads land in the makespan; with many
        concurrent streams, other tiles' kernels fill the gaps — this is
        exactly the concurrency benefit the paper attributes to using up to
        16 non-blocking streams (Fig. 7, 1 -> 256 tiles).
        """
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        if duration < 0 or overhead < 0:
            raise ValueError(f"negative time for {label!r}")
        start = max(stream.ready, self.engine_ready[engine])
        self.engine_ready[engine] = start + duration
        stream.ready = start + duration + overhead
        op = StreamOp(
            device=self.name,
            device_index=self.index,
            stream=stream.stream_id,
            engine=engine,
            label=label,
            start=start,
            end=start + duration + overhead,
            overhead=overhead,
        )
        timeline.add(op)
        return op


@dataclass
class PendingOp:
    """An operation enqueued on a stream but not yet placed on an engine."""

    engine: str
    label: str
    busy: float
    overhead: float = 0.0


@dataclass
class Stream:
    """An in-order, non-blocking command stream bound to one device."""

    device: DeviceQueues
    stream_id: int
    ready: float = 0.0  # time at which the next op in this stream may start
    pending: list[PendingOp] = field(default_factory=list)

    def enqueue(
        self, engine: str, label: str, busy: float, overhead: float = 0.0
    ) -> None:
        """Queue an op for event-driven placement by ``flush_streams``.

        Immediate placement (``h2d``/``d2h``/``kernel``) schedules in call
        order, which cannot backfill engine idle gaps with later-submitted
        streams' work the way hardware does; enqueue + flush performs a
        proper earliest-start greedy simulation across all streams.
        """
        self.pending.append(PendingOp(engine, label, busy, overhead))

    def h2d(self, label: str, duration: float, timeline: Timeline) -> StreamOp:
        return self.device.schedule(self, "h2d", label, duration, timeline)

    def d2h(self, label: str, duration: float, timeline: Timeline) -> StreamOp:
        return self.device.schedule(self, "d2h", label, duration, timeline)

    def kernel(
        self, label: str, duration: float, timeline: Timeline, overhead: float = 0.0
    ) -> StreamOp:
        return self.device.schedule(
            self, "compute", label, duration, timeline, overhead=overhead
        )


def flush_streams(streams: "list[Stream]", timeline: Timeline) -> None:
    """Event-driven placement of all pending ops of one device's streams.

    Repeatedly schedules, among the head ops of every stream's queue, the
    one that can start earliest (``max(stream ready, engine ready)``; ties
    broken by stream id).  This models the hardware scheduler's ability to
    backfill one stream's launch/sync gaps with another stream's kernels —
    the concurrency effect the paper exploits with up to 16 non-blocking
    streams per GPU.  The heads sit in a lazy min-heap (see the module
    docstring for why that is exact), so placing an op costs
    ``O(log streams)`` plus one re-push per key that went stale.
    """
    if not streams:
        return
    device = streams[0].device
    if any(s.device is not device for s in streams):
        raise ValueError("flush_streams requires streams of a single device")
    engine_ready = device.engine_ready
    cursors = [0] * len(streams)
    # (start lower bound, stream id, position in ``streams``)
    heap = [
        (max(s.ready, engine_ready[s.pending[0].engine]), s.stream_id, k)
        for k, s in enumerate(streams)
        if s.pending
    ]
    heapq.heapify(heap)
    while heap:
        key, stream_id, k = heap[0]
        stream = streams[k]
        op = stream.pending[cursors[k]]
        start = max(stream.ready, engine_ready[op.engine])
        if start > key:
            heapq.heapreplace(heap, (start, stream_id, k))
            continue
        device.schedule(stream, op.engine, op.label, op.busy, timeline, op.overhead)
        cursors[k] += 1
        if cursors[k] < len(stream.pending):
            nxt = stream.pending[cursors[k]]
            heapq.heapreplace(
                heap, (max(stream.ready, engine_ready[nxt.engine]), stream_id, k)
            )
        else:
            heapq.heappop(heap)
    for s in streams:
        s.pending.clear()
