"""Unit tests for the GPUSimulator container and event-driven flush."""

import pytest

from repro.gpu.perfmodel import KernelTiming, TileTiming
from repro.gpu.simulator import GPUSimulator, schedule_tile_timing
from repro.gpu.stream import flush_streams


def _timing(busy=1.0, overhead=0.5, h2d=0.0, d2h=0.0):
    t = TileTiming(h2d_bytes=h2d, d2h_bytes=d2h)
    t.kernels["dist_calc"] = KernelTiming(busy=busy, overhead=overhead)
    return t


class TestGPUSimulator:
    def test_construction(self):
        sim = GPUSimulator("A100", n_gpus=4)
        assert sim.n_gpus == 4
        assert len(sim.gpus[0].streams) == 16

    def test_stream_count_validation(self):
        with pytest.raises(ValueError):
            GPUSimulator("A100", n_streams=17)
        with pytest.raises(ValueError):
            GPUSimulator("A100", n_gpus=0)

    def test_round_robin_streams(self):
        sim = GPUSimulator("A100", n_streams=3)
        gpu = sim.gpus[0]
        ids = [gpu.next_stream().stream_id for _ in range(5)]
        assert ids == [0, 1, 2, 0, 1]

    def test_reset_timeline(self):
        sim = GPUSimulator("A100")
        gpu = sim.gpus[0]
        schedule_tile_timing(gpu, gpu.next_stream(), sim.timeline, _timing(), "t0")
        sim.flush()
        assert sim.timeline.makespan > 0
        sim.reset_timeline()
        assert sim.timeline.makespan == 0.0
        assert all(s.ready == 0.0 for s in gpu.streams)

    def test_reset_timeline_drops_queued_ops(self):
        # An op enqueued before the reset must not be placed into the
        # next experiment's timeline.
        sim = GPUSimulator("A100")
        sim.gpus[0].streams[0].enqueue("compute", "stale:0", 1.0)
        sim.reset_timeline()
        sim.flush()
        assert sim.timeline.ops == []
        assert all(not s.pending for s in sim.gpus[0].streams)

    def test_memory_report(self):
        sim = GPUSimulator("V100", n_gpus=2)
        assert len(sim.memory_report()) == 2


class TestFlushBackfill:
    def test_backfills_overhead_gaps(self):
        # Two tiles on two streams: tile B's kernel fills tile A's
        # overhead gap, so the makespan is below the serial sum.
        sim = GPUSimulator("A100", n_streams=2)
        gpu = sim.gpus[0]
        for label in ("a", "b"):
            t = TileTiming()
            t.kernels["k1"] = KernelTiming(busy=1.0, overhead=1.0)
            t.kernels["k2"] = KernelTiming(busy=1.0, overhead=0.0)
            schedule_tile_timing(gpu, gpu.next_stream(), sim.timeline, t, label)
        sim.flush()
        serial = 2 * (1.0 + 1.0 + 1.0)
        assert sim.timeline.makespan < serial
        # Busy time is exactly 4s; makespan can't be below that.
        assert sim.timeline.makespan >= 4.0

    def test_flush_idempotent(self):
        sim = GPUSimulator("A100")
        gpu = sim.gpus[0]
        schedule_tile_timing(gpu, gpu.next_stream(), sim.timeline, _timing(), "t")
        sim.flush()
        before = sim.timeline.makespan
        sim.flush()  # nothing pending
        assert sim.timeline.makespan == before

    def test_flush_requires_same_device(self):
        sim = GPUSimulator("A100", n_gpus=2)
        s0 = sim.gpus[0].streams[0]
        s1 = sim.gpus[1].streams[0]
        s0.enqueue("compute", "x", 1.0)
        with pytest.raises(ValueError):
            flush_streams([s0, s1], sim.timeline)
        s0.pending.clear()

    def test_ops_ordered_within_stream(self):
        sim = GPUSimulator("A100", n_streams=1)
        gpu = sim.gpus[0]
        t = TileTiming(h2d_bytes=1e9, d2h_bytes=1e9)
        t.kernels["k"] = KernelTiming(busy=1.0, overhead=0.0)
        schedule_tile_timing(gpu, gpu.next_stream(), sim.timeline, t, "t")
        sim.flush()
        ops = sorted(sim.timeline.ops, key=lambda o: o.start)
        assert [o.engine for o in ops] == ["h2d", "compute", "d2h"]
        for a, b in zip(ops, ops[1:]):
            assert b.start >= a.end
