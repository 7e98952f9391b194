"""Linear-scan stream placement — the test oracle of the heap placement.

:func:`repro.gpu.stream.flush_streams` keeps the pending streams' head
ops in a lazy min-heap.  This module keeps the scan it replaced: for
every op, look at the head of every stream's queue and place the one
that can start earliest (``max(stream ready, engine ready)``), ties
broken by the lower stream id.  The suites compare the two op for op.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.gpu.stream import Stream, Timeline


def scan_flush_streams(streams: "list[Stream]", timeline: Timeline) -> None:
    """Place every pending op of one device's streams by a linear scan."""
    if not streams:
        return
    device = streams[0].device
    if any(s.device is not device for s in streams):
        raise ValueError("flush_streams requires streams of a single device")
    cursors = {s.stream_id: 0 for s in streams}
    remaining = sum(len(s.pending) for s in streams)
    while remaining:
        best: Stream | None = None
        best_start = float("inf")
        for s in streams:
            i = cursors[s.stream_id]
            if i >= len(s.pending):
                continue
            op = s.pending[i]
            start = max(s.ready, device.engine_ready[op.engine])
            if start < best_start or (
                best is not None
                and start == best_start
                and s.stream_id < best.stream_id
            ):
                best = s
                best_start = start
        assert best is not None
        op = best.pending[cursors[best.stream_id]]
        device.schedule(best, op.engine, op.label, op.busy, timeline, op.overhead)
        cursors[best.stream_id] += 1
        remaining -= 1
    for s in streams:
        s.pending.clear()


@contextmanager
def scan_placement():
    """Route every engine and simulator flush through the linear scan."""
    from repro.engine import dispatch
    from repro.gpu import simulator

    saved = dispatch.flush_streams, simulator.flush_streams
    dispatch.flush_streams = simulator.flush_streams = scan_flush_streams
    try:
        yield
    finally:
        dispatch.flush_streams, simulator.flush_streams = saved
