"""Unit tests for the anytime algorithm and the tile planner."""

import numpy as np
import pytest

from repro import matrix_profile
from repro.core import anytime as anytime_module
from repro.core.anytime import AnytimeState, anytime_matrix_profile, convergence_curve
from repro.core.config import RunConfig
from repro.core.planner import plan_tiles, tile_memory_bytes

from .per_row_oracle import PerRowSortScan, PerRowUpdate


class TestAnytime:
    @pytest.fixture(scope="class")
    def pair(self):
        rng = np.random.default_rng(5)
        ref = rng.normal(size=(300, 2)).cumsum(axis=0)
        qry = rng.normal(size=(260, 2)).cumsum(axis=0)
        return ref, qry, 16

    def test_full_fraction_matches_batch(self, pair):
        ref, qry, m = pair
        batch = matrix_profile(ref, qry, m=m, mode="FP64")
        anytime = anytime_matrix_profile(ref, qry, m, fraction=1.0)
        np.testing.assert_allclose(anytime.profile, batch.profile, atol=1e-8)
        assert np.mean(anytime.index == batch.index) > 0.999

    def test_partial_is_upper_bound(self, pair):
        ref, qry, m = pair
        exact = matrix_profile(ref, qry, m=m, mode="FP64")
        approx = anytime_matrix_profile(ref, qry, m, fraction=0.3, seed=1)
        # Processing fewer rows can only leave profile values too high.
        assert np.all(approx.profile >= exact.profile - 1e-9)

    def test_convergence_faster_than_linear(self, pair):
        ref, qry, m = pair
        curve = convergence_curve(ref, qry, m, fractions=(0.25, 0.5, 1.0), seed=2)
        fractions = [c[0] for c in curve]
        converged = [c[1] for c in curve]
        assert converged[-1] == 1.0
        # Anytime property: convergence beats the linear diagonal — at 25%
        # of the work, clearly more than 25% of the entries are already
        # within 5% of their final value (random-walk data is the hard
        # case; structured data converges much faster still).
        assert converged[0] > 0.3
        assert converged[1] > 0.55
        assert converged == sorted(converged)

    def test_callback_and_early_stop(self, pair):
        ref, qry, m = pair
        seen = []

        def cb(state: AnytimeState):
            seen.append(state.fraction)
            if state.fraction >= 0.2:
                raise StopIteration

        anytime_matrix_profile(ref, qry, m, fraction=1.0, callback=cb)
        assert seen  # callback fired
        assert max(seen) < 0.5  # stopped early

    def test_self_join(self, pair):
        ref, _, m = pair
        r = anytime_matrix_profile(ref, None, m, fraction=1.0)
        pos = np.arange(r.n_q_seg)
        valid = r.index[:, 0] >= 0
        assert np.all(np.abs(r.index[valid, 0] - pos[valid]) > m // 4)

    @pytest.mark.parametrize("mode", ("FP64", "FP32", "FP16", "Mixed", "FP16C"))
    @pytest.mark.parametrize("fraction", [1.0, 0.4])
    def test_matches_per_row_oracle(self, mode, fraction, monkeypatch):
        """The block sort/update kernels == the per-row oracle kernels
        (stage-by-stage networks, ``run``/``masked_run``), bit for bit,
        for AB- and self-joins and a partial fraction."""
        rng = np.random.default_rng(9)
        ref = rng.normal(size=(90, 2)).cumsum(axis=0)
        qry = rng.normal(size=(70, 2)).cumsum(axis=0)
        config = RunConfig(mode=mode)
        for query in (qry, None):
            got = anytime_matrix_profile(ref, query, 10, config, fraction=fraction, seed=4)
            with monkeypatch.context() as patch:
                patch.setattr(anytime_module, "SortScanKernel", PerRowSortScan)
                patch.setattr(anytime_module, "UpdateKernel", PerRowUpdate)
                want = anytime_matrix_profile(
                    ref, query, 10, config, fraction=fraction, seed=4
                )
            assert np.array_equal(got.profile, want.profile)
            assert np.array_equal(got.index, want.index)

    def test_invalid_fraction(self, pair):
        ref, qry, m = pair
        with pytest.raises(ValueError):
            anytime_matrix_profile(ref, qry, m, fraction=0.0)

    def test_reduced_precision_mode(self, pair):
        ref, qry, m = pair
        r = anytime_matrix_profile(
            ref, qry, m, config=RunConfig(mode="FP32"), fraction=0.5
        )
        assert np.all(np.isfinite(r.profile))


class TestTileMemory:
    def test_grows_with_tile_size(self):
        small = tile_memory_bytes(100, 100, 8, 32, "FP64")
        big = tile_memory_bytes(1000, 1000, 8, 32, "FP64")
        assert big > small

    def test_fp16_half_of_fp32(self):
        b16 = tile_memory_bytes(1000, 1000, 8, 32, "FP16")
        b32 = tile_memory_bytes(1000, 1000, 8, 32, "FP32")
        assert b16 < b32


class TestPlanTiles:
    def test_small_problem_single_tile(self):
        plan = plan_tiles(1000, 1000, 8, 32, device="A100")
        assert plan.n_tiles == 1
        assert plan.limited_by == "memory"

    def test_huge_problem_needs_tiles(self):
        # 2^26 segments x 64 dims in FP64 cannot sit in 40 GB per stream.
        plan = plan_tiles(2**26, 2**26, 64, 64, mode="FP64", device="A100")
        assert plan.n_tiles > 1
        assert plan.tile_bytes <= 0.9 * 40 * 1024**3 / 16

    def test_accuracy_target_drives_tiles(self):
        plan_loose = plan_tiles(2**16, 2**16, 8, 32, mode="FP16", device="A100")
        plan_tight = plan_tiles(
            2**16, 2**16, 8, 32, mode="FP16", device="A100", target_error=0.05
        )
        assert plan_tight.n_tiles > plan_loose.n_tiles
        assert plan_tight.limited_by == "accuracy"
        assert plan_tight.predicted_error_bound < 0.05 * 1.6  # near the target

    def test_fp64_ignores_accuracy_easily(self):
        plan = plan_tiles(2**16, 2**16, 8, 32, mode="FP64", target_error=0.05)
        assert plan.accuracy_bound_tiles == 1

    def test_plan_consistent_with_grid(self):
        plan = plan_tiles(5000, 4000, 4, 16, target_error=None)
        g_r, g_q = plan.grid
        assert g_r * g_q == plan.n_tiles

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_tiles(0, 10, 4, 16)

    def test_planned_run_meets_target(self, rng):
        # End-to-end: plan for 10% FP16 error on a small problem, execute,
        # and verify the measured error honours the bound's intent.
        from repro.baselines import mstamp

        ref = rng.uniform(0, 1, size=(800, 3))
        qry = rng.uniform(0, 1, size=(800, 3))
        m = 32
        plan = plan_tiles(769, 769, 3, m, mode="FP16", target_error=0.10)
        r = matrix_profile(ref, qry, m=m, mode="FP16", n_tiles=plan.n_tiles)
        p64, _ = mstamp(ref, qry, m)
        err = np.mean(np.abs(r.profile - p64) / np.maximum(p64, 1e-9))
        assert err < 0.10
