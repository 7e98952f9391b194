"""Integration tests: all implementations must agree, and the streaming
kernel must match direct evaluation at arbitrary rows."""

import numpy as np
import pytest

from repro import matrix_profile
from repro.baselines.brute_force import brute_force_mdmp
from repro.baselines.mstamp import mstamp
from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.gpu.kernel import LaunchConfig
from repro.gpu.perfmodel import single_tile_costs
from repro.kernels.layout import to_device_layout
from repro.precision.modes import policy_for

from .precalc_oracle import PrecalcKernel, naive_qt_row


class TestThreeWayAgreement:
    """brute force == mSTAMP == simulated-GPU FP64 == tiled FP64."""

    def test_ab_join_chain(self, small_pair):
        ref, qry, m = small_pair
        p_bf, i_bf = brute_force_mdmp(ref, qry, m)
        p_ms, i_ms = mstamp(ref, qry, m)
        gpu = matrix_profile(ref, qry, m=m, mode="FP64")
        tiled = matrix_profile(ref, qry, m=m, mode="FP64", n_tiles=6, n_gpus=2)

        np.testing.assert_allclose(p_ms, p_bf, atol=1e-8)
        np.testing.assert_allclose(gpu.profile, p_ms, atol=1e-8)
        np.testing.assert_allclose(tiled.profile, gpu.profile, atol=1e-10)
        assert np.mean(i_ms == i_bf) > 0.999
        assert np.mean(gpu.index == i_ms) > 0.999
        np.testing.assert_array_equal(tiled.index, gpu.index)

    def test_self_join_chain(self, small_pair):
        ref, _, m = small_pair
        p_bf, i_bf = brute_force_mdmp(ref, None, m)
        gpu = matrix_profile(ref, m=m, mode="FP64")
        mask = np.isfinite(p_bf)
        np.testing.assert_allclose(gpu.profile[mask], p_bf[mask], atol=1e-8)
        assert np.mean(gpu.index == i_bf) > 0.999

    def test_sine_data(self, bounded_pair):
        ref, qry, m = bounded_pair
        p_ms, i_ms = mstamp(ref, qry, m)
        gpu = matrix_profile(ref, qry, m=m, mode="FP64")
        np.testing.assert_allclose(gpu.profile, p_ms, atol=1e-8)


class TestStreamingVsNaive:
    def test_streaming_qt_matches_naive_at_arbitrary_rows(self, rng):
        # Validates the diagonal recurrence against direct dot products at
        # rows far from the restart point, in FP64.
        from repro.kernels.dist_calc import DistCalcKernel

        ref = rng.normal(size=(150, 2)).cumsum(axis=0)
        qry = rng.normal(size=(130, 2)).cumsum(axis=0)
        m = 12
        policy = policy_for("FP64")
        cfg = LaunchConfig(4, 64)
        tr = to_device_layout(ref, policy.storage)
        tq = to_device_layout(qry, policy.storage)
        pre = PrecalcKernel(config=cfg, policy=policy).run(tr, tq, m)
        dk = DistCalcKernel(config=cfg, policy=policy)
        dk.bind(pre)
        for i in range(tr.shape[1] - m + 1):
            dk.run(i)
            if i in (50, 100, 138):
                direct = naive_qt_row(tr, tq, m, i, policy)
                np.testing.assert_allclose(dk.qt, direct, rtol=1e-6, atol=1e-8)


class TestAnalyticCostsMatchExecution:
    """The perfmodel's analytic formulas must agree with the costs the
    executed kernels record (keeps paper-scale projections honest)."""

    @pytest.mark.parametrize("mode", ["FP64", "FP32", "FP16", "Mixed", "FP16C"])
    def test_recorded_equals_analytic(self, rng, mode):
        ref = rng.normal(size=(90, 5))
        qry = rng.normal(size=(70, 5))
        m = 8
        cfg = RunConfig(mode=mode)
        result = compute_multi_tile(ref, qry, m, cfg)
        policy = policy_for(mode)
        analytic = single_tile_costs(
            90 - m + 1,
            70 - m + 1,
            5,
            m,
            policy.itemsize,
            cfg.launch,
            precalc_itemsize=policy.precalc.itemsize,
            compensated=policy.compensated,
        )
        for name in ("dist_calc", "sort_&_incl_scan", "update_mat_prof"):
            got = result.costs[name]
            want = analytic[name]
            assert got.bytes_dram == pytest.approx(want.bytes_dram, rel=1e-9), name
            assert got.bytes_l1 == pytest.approx(want.bytes_l1, rel=1e-9), name
            assert got.flops == pytest.approx(want.flops, rel=1e-9), name
            assert got.syncs == want.syncs, name
            assert got.launches == want.launches, name
        # Precalculation: same formulas by construction.
        got = result.costs["precalculation"]
        want = analytic["precalculation"]
        assert got.flops == pytest.approx(want.flops, rel=1e-9)
        assert got.bytes_dram == pytest.approx(want.bytes_dram, rel=1e-9)


class TestEndToEndScenario:
    def test_motif_discovery_pipeline(self, rng):
        """A planted motif must be discovered through the full public API
        in every precision mode (the Fig. 3 claim)."""
        n, m = 700, 32
        ref = rng.normal(size=(n, 2))
        qry = rng.normal(size=(n, 2))
        wave = 5.0 * np.sin(np.linspace(0, 6.28, m))
        ref[100 : 100 + m, 0] += wave
        qry[400 : 400 + m, 0] += wave
        for mode in ("FP64", "FP32", "FP16", "Mixed", "FP16C"):
            r = matrix_profile(ref, qry, m=m, mode=mode)
            assert abs(int(r.index[400, 0]) - 100) <= 1, mode
