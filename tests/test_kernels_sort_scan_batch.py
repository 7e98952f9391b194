"""Unit tests for the batch-based sort/scan ablation
(``tests/sort_scan_batch.py``) and for the two design choices it and the
retired ``RunConfig`` knobs once switched: the cooperative sort, and its
skip at d = 1."""

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.single_tile import compute_single_tile
from repro.engine.backends import run_tile, tile_timing_from_output
from repro.gpu.device import A100
from repro.gpu.kernel import LaunchConfig
from repro.kernels.layout import to_device_layout
from repro.kernels.sort_scan import SortScanKernel
from repro.precision.modes import DTYPE_MAX, TENSOR_CORE_MODES, policy_for

from .per_row_oracle import per_row_tile
from .precalc_oracle import kernel_precalc
from .sort_scan_batch import (
    BatchSortScanKernel,
    insertion_sort_columns,
    sequential_inclusive_scan,
)

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
    """The ablation runs through the per-row oracle, and the d = 1 skip
    is unconditional; the retired knobs resume only at their values."""

    def test_batch_strategy_identical_results_fp64(self, rng):
        policy = policy_for("FP64")
        cfg = RunConfig()
        tr = to_device_layout(rng.normal(size=(200, 4)), policy.storage)
        tq = to_device_layout(rng.normal(size=(180, 4)), policy.storage)
        precalc = kernel_precalc(tr, tq, 16, policy, cfg.launch)
        a = run_tile(tr, tq, 16, policy, cfg.launch, precalc=precalc)
        b = per_row_tile(tr, tq, 16, policy, cfg.launch, precalc=precalc,
                         sort_strategy="batch")
        np.testing.assert_allclose(a.profile, b.profile, atol=1e-12)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_batch_strategy_models_slower(self, rng):
        # Compare the *busy* (throughput) term: at tiny test sizes the
        # per-row launch overhead — identical for both strategies —
        # otherwise swamps the difference.
        ref = rng.normal(size=(300, 8))
        policy = policy_for("FP64")
        dev = to_device_layout(ref, policy.storage)
        cfg = RunConfig()
        precalc = kernel_precalc(dev, dev, 16, policy, cfg.launch)
        coop = run_tile(dev, dev, 16, policy, cfg.launch, exclusion_zone=4,
                        precalc=precalc)
        batch = per_row_tile(
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
            RunConfig.from_dict({**RunConfig().to_dict(), "sort_strategy": "quick"})

    def test_1d_fast_path_identical(self):
        """Why run_tile skips the sort/scan at d = 1: on a ``(1, n)``
        plane it is the identity, bit for bit, in every mode and on the
        fused tensor-core scan."""
        for mode in ("FP64", "FP32", "FP16", "Mixed", "FP16C"):
            policy = policy_for(mode)
            dtype = policy.compute
            wide = [np.dtype(dtype)]
            if policy.mode in TENSOR_CORE_MODES:
                wide.append(np.dtype(np.float32))  # the mma_scan panel
            for plane_dtype in wide:
                rng = np.random.default_rng(0)
                values = np.concatenate([
                    np.abs(rng.normal(size=64)) * 8,
                    np.abs(rng.normal(size=16)) * 2.0**-20,
                    [0.0, 1.0, float(DTYPE_MAX[np.dtype(dtype)])],
                ])
                # Distances as the main loop hands them over: saturated
                # values of the storage precision.
                plane = values.astype(dtype).astype(plane_dtype)[None, :]
                kernel = SortScanKernel(
                    config=CFG, policy=policy,
                    mma_scan=plane_dtype == np.float32 and dtype == np.float16,
                )
                got = kernel.run(plane.copy())
                assert got.dtype == plane.dtype, (mode, plane_dtype)
                assert got.tobytes() == plane.tobytes(), (mode, plane_dtype)

    def test_1d_fast_path_cheaper(self, rng):
        x = rng.normal(size=(400, 1)).cumsum(axis=0)
        r = compute_single_tile(x, None, 16, RunConfig())
        assert r.costs["sort_&_incl_scan"].launches == 0
        assert r.costs["sort_&_incl_scan"].flops == 0

    def test_fast_path_not_applied_above_1d(self, rng):
        x = rng.normal(size=(200, 3))
        r = compute_single_tile(x, None, 16, RunConfig())
        assert r.costs["sort_&_incl_scan"].launches > 0
