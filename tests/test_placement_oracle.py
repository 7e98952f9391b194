"""Heap stream placement == the linear-scan oracle, op for op.

:func:`repro.gpu.stream.flush_streams` places ops from a lazy min-heap;
``tests/placement_oracle.py`` keeps the linear scan it replaced.  Both
must produce the same :class:`~repro.gpu.stream.Timeline` — every op's
stream, engine, label, start, end and overhead — and leave the same
stream and engine clocks, on seeded random queues and on whole jobs.
"""

from __future__ import annotations

import copy
import random

import numpy as np
import pytest

from repro import matrix_profile
from repro.core.config import RunConfig
from repro.gpu.stream import ENGINES, DeviceQueues, Stream, Timeline, flush_streams
from repro.gpu.tracing import export_chrome_trace
from repro.streams import IncrementalMatrixProfile

from .placement_oracle import scan_flush_streams, scan_placement

#: Tie-heavy duration and clock values, zero included.
TIMES = (0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.0)
KINDS = ("mixed", "zero_heavy", "initial_clocks", "compute_contention", "one_pending")
QUEUES = 20_000


def _queue(rng: random.Random, kind: str):
    """One device's streams with pending ops (and clocks) of one kind."""
    device = DeviceQueues("A100", 0)
    n = rng.randint(1, 16)
    streams = [Stream(device=device, stream_id=s) for s in range(n)]
    if kind in ("initial_clocks", "one_pending") or rng.random() < 0.3:
        for s in streams:
            s.ready = rng.choice(TIMES)
        for engine in ENGINES:
            device.engine_ready[engine] = rng.choice(TIMES)
    pending = [rng.randrange(n)] if kind == "one_pending" else range(n)
    for k in pending:
        count = rng.randint(1 if kind == "compute_contention" else 0, 4)
        for i in range(count):
            engine = "compute" if kind == "compute_contention" else rng.choice(ENGINES)
            busy = 0.0 if kind == "zero_heavy" and rng.random() < 0.7 else rng.choice(TIMES)
            overhead = rng.choice((0.0, 0.0, 0.25, 1.0))
            streams[k].enqueue(engine, f"op{k}.{i}", busy, overhead)
    return streams


def _clocks(streams):
    return (
        [s.ready for s in streams],
        dict(streams[0].device.engine_ready),
        [len(s.pending) for s in streams],
    )


class TestRandomQueues:
    @pytest.mark.parametrize("kind", KINDS)
    def test_heap_matches_scan(self, kind):
        rng = random.Random(f"placement-{kind}")
        ops = 0
        for _ in range(QUEUES // len(KINDS)):
            state = rng.getstate()
            streams = _queue(rng, kind)
            rng.setstate(state)
            twins = _queue(rng, kind)
            heap, scan = Timeline(), Timeline()
            flush_streams(streams, heap)
            scan_flush_streams(twins, scan)
            assert heap.ops == scan.ops
            assert _clocks(streams) == _clocks(twins)
            ops += len(heap.ops)
        assert ops > QUEUES // len(KINDS)  # the queues were not all empty

    def test_stale_keys_are_repushed(self):
        """All streams wait on the compute engine: every key but the
        first goes stale after each placement, and the order must still
        be the scan's (earliest start, then lowest stream id)."""
        device = DeviceQueues("A100", 0)
        streams = [Stream(device=device, stream_id=s) for s in range(16)]
        for s in streams:
            for i in range(3):
                s.enqueue("compute", f"k{s.stream_id}.{i}", 1.0, 0.5)
        twins = copy.deepcopy(streams)
        heap, scan = Timeline(), Timeline()
        flush_streams(streams, heap)
        scan_flush_streams(twins, scan)
        assert heap.ops == scan.ops
        # k0.1 and k2.0 both start at 2.0, when k1.0 frees the engine:
        # the lower stream id wins the tie.
        assert [op.label for op in heap.ops[:3]] == ["k0.0", "k1.0", "k0.1"]


def _job(mode: str, ab: bool):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(400, 2)).cumsum(axis=0)
    y = rng.normal(size=(400, 2)).cumsum(axis=0) if ab else None
    return matrix_profile(x, y, m=16, mode=mode, n_tiles=100)


class TestWholeJobs:
    @pytest.mark.parametrize("mode,ab", [("FP32", False), ("FP16", True)])
    def test_chrome_trace_of_100_tile_job_is_byte_identical(self, tmp_path, mode, ab):
        result = _job(mode, ab)
        with scan_placement():
            oracle = _job(mode, ab)
        assert result.timeline.ops == oracle.timeline.ops
        assert result.modeled_time == oracle.modeled_time
        got = export_chrome_trace(result, tmp_path / "heap.json").read_bytes()
        want = export_chrome_trace(oracle, tmp_path / "scan.json").read_bytes()
        assert got == want

    def test_per_tile_flush_of_a_stream(self):
        """A job-local timeline (the service and streams) places one
        tile's ops at a time, with one stream pending."""

        def run():
            rng = np.random.default_rng(5)
            inc = IncrementalMatrixProfile(16, RunConfig(mode="FP32"))
            series = rng.normal(size=(300, 2)).cumsum(axis=0)
            for start in range(0, 300, 37):
                inc.append(series[start : start + 37])
            return inc.timeline.ops

        ops = run()
        with scan_placement():
            assert run() == ops
        assert len({op.stream for op in ops}) > 1
