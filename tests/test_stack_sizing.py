"""Tile stacks are sized by scratch, not by row width.

:meth:`NumericBackend.stack_limit` stacks same-shape tiles up to a
``T * d * width`` row plane of ``SUPER_STEP_ELEMENTS // 32`` elements,
and :func:`super_step_rows` gives a stack a block of at most the larger
of the block one of its tiles uses alone and ``SUPER_STEP_ELEMENTS //
8`` elements; a single tile's block is the plain budget rule.  Pinned
here: the stack sizes and block rows of the benchmark workloads' tile
shapes, the block bound over a grid of shapes and through the main
loop, and that both bounds follow a patched budget.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.engine import JobSpec, NumericBackend
from repro.engine import backends
from repro.engine.backends import SUPER_STEP_ELEMENTS, super_step_rows
from repro.streams import IncrementalMatrixProfile


def _series(n, d, seed=2):
    rng = np.random.default_rng(seed)
    t = np.arange(n)[:, None]
    return np.sin(2 * np.pi * t / (13 + 5 * np.arange(d))) + 0.1 * rng.normal(size=(n, d))


def _limit(n_seg, d, m, n_tiles, **config):
    spec = JobSpec.from_arrays(_series(n_seg + m - 1, d), None, m, RunConfig(**config))
    plan = spec.plan(n_tiles=n_tiles)
    return {
        (t.n_rows, t.n_cols, t.mirror): NumericBackend().stack_limit(plan, t)
        for t in plan.tiles
    }


@pytest.fixture
def stacks(monkeypatch):
    """``(T, block rows)`` of every vector-path ``run_tile`` call."""
    calls = []
    original = backends.super_step_rows

    def spy(steps, width, planes, tiles=1):
        rows = original(steps, width, planes, tiles)
        calls.append((tiles, rows))
        return rows

    monkeypatch.setattr(backends, "super_step_rows", spy)
    return calls


class TestWorkloadShapes:
    def test_batch_tiles(self, stacks):
        # n_seg = 384, d = 2, 100 tiles: 38/39-wide tiles stack 52-53
        # deep instead of 6, so each same-shape group is one stack.
        limits = _limit(384, 2, 16, 100)
        assert limits == {(38, 38, False): 53, (38, 39, False): 52,
                          (39, 38, False): 52, (39, 39, False): 52}
        compute_multi_tile(_series(399, 2), None, 16, RunConfig(mode="FP32", n_tiles=100))
        # Groups of 36, 24, 24 and 16 tiles: short blocks over the stack.
        assert sorted(stacks) == [(16, 13), (24, 8), (24, 8), (36, 5)]
        # Two workers split each group in two.
        stacks.clear()
        compute_multi_tile(_series(399, 2), None, 16, RunConfig(mode="FP32", n_tiles=100),
                           parallel_workers=2)
        assert sorted(stacks) == [(8, 26), (8, 26), (12, 17), (12, 17), (12, 17), (12, 17),
                                  (18, 11), (18, 11)]

    @pytest.mark.parametrize("m, n_seg, rows", [(32, 354, 44), (48, 338, 42)])
    def test_service_mixed_four_tile_jobs(self, stacks, m, n_seg, rows):
        # 3 x 177 = 531-element row planes, 7 fit: an even n_seg gives a
        # 2 x 2 grid of one shape, which runs as one stack of 4.
        width = n_seg // 2
        assert _limit(n_seg, 3, m, 4) == {(width, width, False): 4096 // (3 * width)}
        compute_multi_tile(_series(n_seg + m - 1, 3), None, m,
                           RunConfig(mode="FP32", n_tiles=4))
        assert stacks == [(4, rows)]
        assert rows == width // 4
        # A single tile keeps its whole-budget block.
        stacks.clear()
        compute_multi_tile(_series(n_seg + m - 1, 3), None, m, RunConfig(mode="FP32"))
        assert stacks == [(1, super_step_rows(n_seg, n_seg, 3))]

    def test_batch_kernels(self, stacks):
        # 512-wide, d = 8 tiles fill the cap alone.
        assert set(_limit(1024, 8, 32, 4).values()) == {1}
        compute_multi_tile(_series(1024 + 31, 8), None, 32, RunConfig(mode="FP32", n_tiles=4))
        assert stacks == [(1, 32)] * 4
        # The symmetric job's 256-wide tiles stack in pairs, at the same
        # block elements as one tile alone (64 rows).
        limits = _limit(1024, 8, 32, 16, symmetric_tiles=True)
        assert set(limits.values()) == {2}
        assert super_step_rows(256, 256, 8, 2) * 2 == super_step_rows(256, 256, 8) == 64

    def test_stream_bands(self, stacks):
        # stream_ingest: d = 2, m = 64, 32-sample steps.  Band tiles B
        # (history rows x new columns, transposed) and A (new rows x all
        # columns) differ in shape, so every stack is one tile.
        series = _series(1400, 2)
        inc = IncrementalMatrixProfile(64, RunConfig(mode="FP32"))
        inc.append(series[:1000])
        for i in range(1000, 1400, 32):
            inc.append(series[i : i + 32])
        assert {tiles for tiles, _ in stacks} == {1}


class TestBlockBound:
    @pytest.mark.parametrize("budget", [SUPER_STEP_ELEMENTS, 1 << 12, 7 * 3 * 62, 1])
    def test_grid_of_shapes(self, monkeypatch, budget):
        monkeypatch.setattr(backends, "SUPER_STEP_ELEMENTS", budget)
        for steps, width, d, tiles in itertools.product(
            (1, 5, 38, 177, 512), (1, 7, 38, 177, 512), (1, 2, 3, 8), (1, 2, 6, 53),
        ):
            alone = max(1, min(steps, budget // (d * width)))
            rows = super_step_rows(steps, width, d, tiles)
            assert 1 <= rows <= steps
            if tiles == 1:
                assert rows == alone
            else:
                bound = max(alone * d * width, budget // 8)
                assert rows == 1 or d * tiles * rows * width <= bound
                assert rows <= alone

    def test_main_loop_blocks(self, monkeypatch):
        """The blocks a stacked dispatch runs stay inside the bound."""
        blocks = []
        original = backends.DistCalcKernel.run_block

        def spy(self, start, rows, out):
            blocks.append((out.shape, rows))
            return original(self, start, rows, out)

        monkeypatch.setattr(backends.DistCalcKernel, "run_block", spy)
        compute_multi_tile(_series(399, 2), _series(250, 2, seed=3), 16,
                           RunConfig(mode="FP16", n_tiles=100))
        assert any(planes > 2 for (_, planes, _), _ in blocks)
        for (block, planes, width), rows in blocks:
            assert rows <= block
            if planes > 2:
                # These tiles' whole planes are far below the floor.
                assert planes * block * width <= SUPER_STEP_ELEMENTS // 8

    @pytest.mark.parametrize("budget", [0, 32 * 2 * 38 * 3, 1 << 20])
    def test_cap_follows_the_budget(self, monkeypatch, budget):
        monkeypatch.setattr(backends, "SUPER_STEP_ELEMENTS", budget)
        limits = _limit(384, 2, 16, 100)
        assert limits[(38, 38, False)] == max(1, budget // 32 // (2 * 38))
        for (n_rows, n_cols, _), limit in limits.items():
            assert limit == 1 or limit * 2 * max(n_rows, n_cols) <= budget // 32
