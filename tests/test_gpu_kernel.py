"""Unit tests for repro.gpu.kernel (launch config, grid-stride, costs)."""

import numpy as np
import pytest

from repro.gpu.device import A100, V100
from repro.gpu.kernel import KernelCost, LaunchConfig, grid_stride_chunks


class TestLaunchConfig:
    def test_tuned_matches_paper(self):
        # Section IV: grid 64, block 2560 on V100; block 3456 on A100.
        v = LaunchConfig.tuned_for(V100)
        a = LaunchConfig.tuned_for(A100)
        assert (v.grid, v.block) == (64, 2560)
        assert (a.grid, a.block) == (64, 3456)

    def test_tuned_fills_every_warp_slot(self):
        cfg = LaunchConfig.tuned_for(A100)
        assert cfg.total_threads == A100.max_threads

    def test_occupancy_capped_at_one(self):
        cfg = LaunchConfig(grid=1000, block=1024)
        assert cfg.occupancy(V100) == 1.0

    def test_partial_occupancy(self):
        cfg = LaunchConfig(grid=64, block=1280)  # half of V100's capacity
        assert cfg.occupancy(V100) == pytest.approx(0.5)

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            LaunchConfig(grid=0, block=128)


class TestGridStrideChunks:
    def test_covers_everything_once(self):
        cfg = LaunchConfig(grid=2, block=8)  # 16 threads
        chunks = list(grid_stride_chunks(50, cfg))
        covered = np.concatenate([np.arange(c.start, c.stop) for c in chunks])
        assert np.array_equal(covered, np.arange(50))

    def test_chunk_count_is_rounds(self):
        cfg = LaunchConfig(grid=2, block=8)
        assert len(list(grid_stride_chunks(50, cfg))) == 4  # ceil(50/16)

    def test_empty(self):
        cfg = LaunchConfig(grid=1, block=1)
        assert list(grid_stride_chunks(0, cfg)) == []

    def test_negative_raises(self):
        cfg = LaunchConfig(grid=1, block=1)
        with pytest.raises(ValueError):
            list(grid_stride_chunks(-1, cfg))


class TestKernelCost:
    def test_add_merges(self):
        a = KernelCost(name="k", bytes_dram=10, flops=5, syncs=1, launches=1)
        b = KernelCost(name="k", bytes_dram=20, flops=5, syncs=2, launches=1)
        c = a + b
        assert c.bytes_dram == 30
        assert c.syncs == 3
        assert c.launches == 2

    def test_add_mismatched_names_raises(self):
        with pytest.raises(ValueError):
            KernelCost(name="a") + KernelCost(name="b")

    def test_scaled(self):
        cost = KernelCost(name="k", bytes_dram=100, flops=10, syncs=2, launches=1)
        s = cost.scaled(3)
        assert s.bytes_dram == 300
        assert s.launches == 3
