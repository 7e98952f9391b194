"""Integration tests: all implementations must agree, and the streaming
kernel must match direct evaluation at arbitrary rows."""

from collections import Counter

import numpy as np
import pytest

from repro import matrix_profile
from repro.baselines.brute_force import brute_force_mdmp
from repro.baselines.mstamp import mstamp
from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.engine import JobSpec
from repro.engine.backends import backend_for
from repro.engine.dispatch import execute_plan
from repro.gpu.kernel import LaunchConfig
from repro.gpu.perfmodel import (
    dist_calc_cost,
    single_tile_costs,
    sort_scan_cost,
    tc_dist_calc_cost,
    update_cost,
)
from repro.gpu.simulator import GPUSimulator
from repro.kernels.tc_gemm import TC_PANEL_ROWS
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


MODES = ("FP64", "FP32", "FP16", "Mixed", "FP16C")


def _executions(ref, m, cfg, n_tiles):
    """Every tile execution of a self-join of ``ref`` in ``n_tiles`` tiles."""
    plan = JobSpec.from_arrays(ref, None, m, cfg).plan(n_tiles=n_tiles, n_gpus=1)
    backend, _ = backend_for(cfg)
    report = execute_plan(plan, backend, GPUSimulator(cfg.device), keep_executions=True)
    return report.executions


class TestAnalyticCostsMatchExecution:
    """One cost model: an executed tile records exactly what
    ``repro.gpu.perfmodel`` charges for its shape (keeps paper-scale
    projections honest)."""

    @pytest.mark.parametrize("mode", MODES)
    def test_recorded_equals_analytic(self, rng, mode):
        """Every field of every kernel's cost, ``==``: d in {1, 2, 3, 5,
        8, 17}, a wide tile and a tall (transposed) tile."""
        m = 8
        cfg = RunConfig(mode=mode)
        policy = cfg.policy
        for d in (1, 2, 3, 5, 8, 17):
            for n_ref, n_qry in ((40, 70), (70, 40)):
                ref = rng.normal(size=(n_ref, d))
                qry = rng.normal(size=(n_qry, d))
                got = compute_multi_tile(ref, qry, m, cfg).costs
                want = single_tile_costs(
                    n_ref - m + 1, n_qry - m + 1, d, m, policy.itemsize, cfg.launch,
                    precalc_itemsize=policy.precalc.itemsize,
                    compensated=policy.compensated,
                )
                assert got == want, (d, n_ref, n_qry)

    def test_stacked_tiles_carry_their_own_shape(self, rng):
        """Tiles that ran as one stack (T > 1, sharing one charge) each
        carry the main-loop costs of their own shape."""
        d, m = 3, 8
        cfg = RunConfig(mode="FP32")
        executions = _executions(rng.normal(size=(90, d)), m, cfg, 16)
        stacks = Counter(id(ex.output.costs["dist_calc"]) for ex in executions)
        assert max(stacks.values()) > 1
        assert len({(ex.tile.n_rows, ex.tile.n_cols) for ex in executions}) > 1
        size, launch = cfg.policy.itemsize, cfg.launch
        for ex in executions:
            shape = (ex.tile.n_rows, ex.tile.n_cols, d, size, launch)
            costs = ex.output.costs
            assert costs["dist_calc"] == dist_calc_cost(*shape)
            assert costs["sort_&_incl_scan"] == sort_scan_cost(*shape)
            assert costs["update_mat_prof"] == update_cost(*shape)

    def test_mirrored_tile_charges_the_mirror_term(self, rng):
        d, m = 2, 8
        cfg = RunConfig(mode="FP64", symmetric_tiles=True)
        executions = _executions(rng.normal(size=(90, d)), m, cfg, 4)
        assert {ex.tile.mirror for ex in executions} == {False, True}
        for ex in executions:
            shape = (ex.tile.n_rows, ex.tile.n_cols, d, cfg.policy.itemsize, cfg.launch)
            want = update_cost(*shape, mirror=ex.tile.mirror)
            assert ex.output.costs["update_mat_prof"] == want
        mirrored, plain = update_cost(*shape, mirror=True), update_cost(*shape)
        assert mirrored.bytes_dram == plain.bytes_dram
        assert mirrored.bytes_l2 > plain.bytes_l2 and mirrored.flops > plain.flops
        assert mirrored.loop_rounds == 2 * plain.loop_rounds

    @pytest.mark.parametrize("mode", ["Mixed", "FP16C"])
    def test_tensor_core_remainder_panel(self, rng, mode):
        """100 rows run as three full panels plus a 4-row remainder; the
        panel charge is not linear in rows, so the tile is charged per
        panel height."""
        d, m = 3, 8
        cfg = RunConfig(mode=mode, backend="tensor_core")
        n_seg = 3 * TC_PANEL_ROWS + 4
        result = compute_multi_tile(rng.normal(size=(n_seg + m - 1, d)), None, m, cfg)
        assert result.backend == "tensor_core"
        size, launch = cfg.policy.itemsize, cfg.launch
        got = result.costs["dist_calc"]
        assert got == tc_dist_calc_cost(n_seg, n_seg, d, size, launch, TC_PANEL_ROWS)
        full = tc_dist_calc_cost(3 * TC_PANEL_ROWS, n_seg, d, size, launch, TC_PANEL_ROWS)
        rest = tc_dist_calc_cost(4, n_seg, d, size, launch, TC_PANEL_ROWS)
        assert got == full + rest
        assert got.tensor_core and got.launches == 4
        assert result.costs["sort_&_incl_scan"] == sort_scan_cost(n_seg, n_seg, d, size, launch)
        assert result.costs["update_mat_prof"] == update_cost(n_seg, n_seg, d, size, launch)


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
