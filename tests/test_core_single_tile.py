"""Unit tests for the single-tile algorithm (Pseudocode 1)."""

import numpy as np
import pytest

from repro.baselines.mstamp import mstamp
from repro.core.config import RunConfig
from repro.core.single_tile import compute_single_tile
from repro.engine.backends import run_tile
from repro.gpu.kernel import LaunchConfig
from repro.kernels.layout import to_device_layout
from repro.precision.modes import PrecisionMode, policy_for

from .precalc_oracle import kernel_precalc

CFG = LaunchConfig(grid=4, block=64)


class TestComputeSingleTile:
    def test_matches_cpu_reference_fp64(self, small_pair):
        ref, qry, m = small_pair
        p_ref, i_ref = mstamp(ref, qry, m)
        result = compute_single_tile(ref, qry, m, RunConfig(mode="FP64"))
        np.testing.assert_allclose(result.profile, p_ref, atol=1e-10)
        np.testing.assert_array_equal(result.index, i_ref)

    def test_self_join_excludes_trivial_matches(self, small_pair):
        ref, _, m = small_pair
        result = compute_single_tile(ref, None, m, RunConfig(mode="FP64"))
        # No index may fall inside the exclusion zone of its own position.
        zone = int(np.ceil(m / 4))
        positions = np.arange(result.n_q_seg)
        for k in range(result.d):
            idx = result.index[:, k]
            valid = idx >= 0
            assert np.all(np.abs(idx[valid] - positions[valid]) > zone)

    def test_result_metadata(self, small_pair):
        ref, qry, m = small_pair
        result = compute_single_tile(ref, qry, m, RunConfig(mode="FP32"))
        assert result.mode is PrecisionMode.FP32
        assert result.m == m
        assert result.n_tiles == 1
        assert result.n_gpus == 1
        assert result.modeled_time > 0
        assert set(result.costs) == {
            "precalculation",
            "dist_calc",
            "sort_&_incl_scan",
            "update_mat_prof",
        }

    def test_timeline_has_transfers_and_kernels(self, small_pair):
        ref, qry, m = small_pair
        result = compute_single_tile(ref, qry, m, RunConfig())
        engines = {op.engine for op in result.timeline.ops}
        assert engines == {"h2d", "compute", "d2h"}
        breakdown = result.kernel_breakdown()
        assert len(breakdown) == 4

    def test_dimension_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="d="):
            compute_single_tile(
                rng.normal(size=(50, 2)), rng.normal(size=(50, 3)), 8, RunConfig()
            )

    def test_1d_input(self, rng):
        x = rng.normal(size=300).cumsum()
        result = compute_single_tile(x, None, 16, RunConfig())
        assert result.profile.shape == (285, 1)

    def test_profile_is_float64_host_side(self, small_pair):
        ref, qry, m = small_pair
        result = compute_single_tile(ref, qry, m, RunConfig(mode="FP16"))
        assert result.profile.dtype == np.float64
        assert result.index.dtype == np.int64


class TestRunTile:
    def test_offsets_make_indices_global(self, rng):
        ref = rng.normal(size=(60, 1)).cumsum(axis=0)
        qry = rng.normal(size=(50, 1)).cumsum(axis=0)
        m = 8
        policy = policy_for("FP64")
        tr = to_device_layout(ref, policy.storage)
        tq = to_device_layout(qry, policy.storage)
        out = run_tile(
            tr, tq, m, policy, CFG, row_offset=1000,
            precalc=kernel_precalc(tr, tq, m, policy, CFG),
        )
        assert np.all(out.indices >= 1000)

    def test_exclusion_zone_with_offsets(self, rng):
        # A tile straddling the diagonal must exclude matches near it.
        series = rng.normal(size=(80, 1)).cumsum(axis=0)
        policy = policy_for("FP64")
        dev = to_device_layout(series, policy.storage)
        m = 8
        out = run_tile(dev, dev, m, policy, CFG, exclusion_zone=2,
                       precalc=kernel_precalc(dev, dev, m, policy, CFG))
        n_seg = dev.shape[1] - m + 1
        for j in range(n_seg):
            if out.indices[0, j] >= 0:
                assert abs(out.indices[0, j] - j) > 2

    def test_transfer_byte_accounting(self, rng):
        ref = rng.normal(size=(60, 2))
        policy = policy_for("FP16")
        dev = to_device_layout(ref, policy.storage)
        out = run_tile(dev, dev, 8, policy, CFG,
                       precalc=kernel_precalc(dev, dev, 8, policy, CFG))
        assert out.h2d_bytes == 2 * 60 * 2 * 2  # both series, fp16
        n_seg = 53
        assert out.d2h_bytes == n_seg * 2 * (2 + 8)  # P (fp16) + I (int64)

    def test_m_leaves_no_segments(self, rng):
        policy = policy_for("FP64")
        dev = to_device_layout(rng.normal(size=(10, 1)), policy.storage)
        with pytest.raises(ValueError):
            # The geometry is checked before the precalculation is read.
            run_tile(dev, dev, 11, policy, CFG, precalc=None)
