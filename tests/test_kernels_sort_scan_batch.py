"""Unit tests for the batch-based sort/scan alternative and the related
RunConfig strategy/fast-path knobs."""

import numpy as np
import pytest

from repro import matrix_profile
from repro.core.config import RunConfig
from repro.gpu.kernel import LaunchConfig
from repro.kernels.sort_scan import SortScanKernel
from repro.kernels.sort_scan_batch import (
    BatchSortScanKernel,
    insertion_sort_columns,
    sequential_inclusive_scan,
)
from repro.precision.modes import policy_for

from .precalc_oracle import kernel_precalc

CFG = LaunchConfig(grid=4, block=64)


class TestInsertionSort:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
    def test_sorts(self, rng, d):
        x = rng.normal(size=(d, 7))
        np.testing.assert_array_equal(
            insertion_sort_columns(x), np.sort(x, axis=0)
        )

    def test_op_count_zero_for_sorted(self, rng):
        x = np.sort(rng.normal(size=(6, 5)), axis=0)
        _, ops = insertion_sort_columns(x, count_ops=True)
        # No moves needed; only the comparison walks are charged.
        assert ops == 5 * 5  # (d-1) * n comparison passes

    def test_op_count_grows_for_reversed(self, rng):
        x = rng.normal(size=(8, 5))
        _, ops_rand = insertion_sort_columns(x, count_ops=True)
        _, ops_rev = insertion_sort_columns(np.sort(x, axis=0)[::-1], count_ops=True)
        assert ops_rev >= ops_rand


class TestSequentialScan:
    def test_matches_cumsum_fp64(self, rng):
        x = rng.normal(size=(7, 4))
        np.testing.assert_allclose(
            sequential_inclusive_scan(x, np.dtype(np.float64)),
            np.cumsum(x, axis=0),
            rtol=1e-12,
        )

    def test_differs_from_fanin_in_fp16(self):
        from repro.kernels.sort_scan import fanin_inclusive_scan

        x = np.full((64, 1), 0.1, dtype=np.float16)
        seq = sequential_inclusive_scan(x, np.dtype(np.float16))
        fan = fanin_inclusive_scan(x, np.dtype(np.float16))
        # Different summation orders round differently at depth 64.
        assert seq[-1, 0] != fan[-1, 0]


class TestBatchKernel:
    def test_same_output_as_cooperative_fp64(self, rng):
        plane = np.abs(rng.normal(size=(6, 9)))
        policy = policy_for("FP64")
        coop = SortScanKernel(config=CFG, policy=policy).run(plane)
        batch = BatchSortScanKernel(config=CFG, policy=policy).run(plane)
        np.testing.assert_allclose(batch, coop, rtol=1e-12)

    def test_cost_reflects_uncoalesced_serial_design(self, rng):
        plane = np.abs(rng.normal(size=(16, 64)))
        policy = policy_for("FP64")
        coop = SortScanKernel(config=CFG, policy=policy)
        coop.run(plane)
        batch = BatchSortScanKernel(config=CFG, policy=policy)
        batch.run(plane)
        # The rejected design moves far more effective DRAM bytes and has
        # no cooperative synchronisation.
        assert batch.cost.bytes_dram > coop.cost.bytes_dram
        assert batch.cost.syncs == 0


class TestRunConfigIntegration:
    def test_batch_strategy_identical_results_fp64(self, rng):
        ref = rng.normal(size=(200, 4))
        qry = rng.normal(size=(180, 4))
        a = matrix_profile(ref, qry, m=16, mode="FP64")
        b_cfg = RunConfig(mode="FP64", sort_strategy="batch")
        from repro.core.single_tile import compute_single_tile

        b = compute_single_tile(ref, qry, 16, b_cfg)
        np.testing.assert_allclose(a.profile, b.profile, atol=1e-12)
        np.testing.assert_array_equal(a.index, b.index)

    def test_batch_strategy_models_slower(self, rng):
        # Compare the *busy* (throughput) term: at tiny test sizes the
        # per-row launch overhead — identical for both strategies —
        # otherwise swamps the difference.
        from repro.engine.backends import run_tile, tile_timing_from_output
        from repro.kernels.layout import to_device_layout
        from repro.precision import policy_for
        from repro.gpu.device import A100

        ref = rng.normal(size=(300, 8))
        policy = policy_for("FP64")
        dev = to_device_layout(ref, policy.storage)
        cfg = RunConfig()
        precalc = kernel_precalc(dev, dev, 16, policy, cfg.launch)
        coop = run_tile(dev, dev, 16, policy, cfg.launch, exclusion_zone=4,
                        precalc=precalc)
        batch = run_tile(
            dev, dev, 16, policy, cfg.launch, exclusion_zone=4,
            sort_strategy="batch", precalc=precalc,
        )
        t_coop = tile_timing_from_output(coop, policy, A100)
        t_batch = tile_timing_from_output(batch, policy, A100)
        assert (
            t_batch.kernels["sort_&_incl_scan"].busy
            > 3 * t_coop.kernels["sort_&_incl_scan"].busy
        )

    def test_invalid_strategy(self):
        with pytest.raises(ValueError, match="sort_strategy"):
            RunConfig(sort_strategy="quick")

    def test_1d_fast_path_identical(self, rng):
        from repro.core.single_tile import compute_single_tile

        x = rng.normal(size=(400, 1)).cumsum(axis=0)
        fast = compute_single_tile(x, None, 16, RunConfig(fast_path_1d=True))
        full = compute_single_tile(x, None, 16, RunConfig(fast_path_1d=False))
        np.testing.assert_allclose(fast.profile, full.profile, atol=1e-12)
        np.testing.assert_array_equal(fast.index, full.index)

    def test_1d_fast_path_cheaper(self, rng):
        from repro.core.single_tile import compute_single_tile

        x = rng.normal(size=(400, 1)).cumsum(axis=0)
        fast = compute_single_tile(x, None, 16, RunConfig(fast_path_1d=True))
        full = compute_single_tile(x, None, 16, RunConfig(fast_path_1d=False))
        assert fast.costs["sort_&_incl_scan"].launches == 0
        assert full.costs["sort_&_incl_scan"].launches > 0
        assert fast.modeled_time <= full.modeled_time

    def test_fast_path_not_applied_above_1d(self, rng):
        from repro.core.single_tile import compute_single_tile

        x = rng.normal(size=(200, 3))
        r = compute_single_tile(x, None, 16, RunConfig(fast_path_1d=True))
        assert r.costs["sort_&_incl_scan"].launches > 0
