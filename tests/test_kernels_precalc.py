"""Unit tests for the precalculation kernel."""

import numpy as np
import pytest

from repro.gpu.kernel import LaunchConfig, grid_stride_chunks
from repro.gpu.perfmodel import seed_cost
from repro.kernels.layout import to_device_layout
from repro.precision.modes import policy_for

from .precalc_oracle import PrecalcKernel, naive_qt_row

CFG = LaunchConfig(grid=4, block=64)


def _device_pair(rng, n_r=80, n_q=70, d=2, dtype=np.float64):
    ref = rng.normal(size=(n_r, d)).cumsum(axis=0)
    qry = rng.normal(size=(n_q, d)).cumsum(axis=0)
    return to_device_layout(ref, dtype), to_device_layout(qry, dtype), ref, qry


class TestPrecalcFP64:
    def test_windowed_mean(self, rng):
        tr, tq, ref, _ = _device_pair(rng)
        pre = PrecalcKernel(config=CFG, policy=policy_for("FP64")).run(tr, tq, 8)
        expected = np.lib.stride_tricks.sliding_window_view(ref[:, 0], 8).mean(axis=1)
        np.testing.assert_allclose(pre.mu_r[0], expected, rtol=1e-12)

    def test_inverse_centred_norm(self, rng):
        tr, tq, ref, _ = _device_pair(rng)
        m = 8
        pre = PrecalcKernel(config=CFG, policy=policy_for("FP64")).run(tr, tq, m)
        windows = np.lib.stride_tricks.sliding_window_view(ref[:, 1], m)
        norms = np.linalg.norm(windows - windows.mean(axis=1, keepdims=True), axis=1)
        np.testing.assert_allclose(pre.inv_r[1], 1.0 / norms, rtol=1e-9)

    def test_df_dg_zero_at_origin(self, rng):
        tr, tq, _, _ = _device_pair(rng)
        pre = PrecalcKernel(config=CFG, policy=policy_for("FP64")).run(tr, tq, 8)
        assert np.all(pre.df_r[:, 0] == 0)
        assert np.all(pre.dg_r[:, 0] == 0)

    def test_df_formula(self, rng):
        tr, tq, ref, _ = _device_pair(rng)
        m = 8
        pre = PrecalcKernel(config=CFG, policy=policy_for("FP64")).run(tr, tq, m)
        i = 5
        expected = (ref[i + m - 1, 0] - ref[i - 1, 0]) / 2.0
        assert pre.df_r[0, i] == pytest.approx(expected, rel=1e-12)

    def test_qt_row0_matches_direct_dot(self, rng):
        tr, tq, ref, qry = _device_pair(rng)
        m = 8
        pre = PrecalcKernel(config=CFG, policy=policy_for("FP64")).run(tr, tq, m)
        j = 11
        a = ref[:m, 0] - ref[:m, 0].mean()
        w = qry[j : j + m, 0]
        b = w - w.mean()
        assert pre.qt_row0[0, j] == pytest.approx(np.dot(a, b), rel=1e-9)

    def test_qt_col0_matches_direct_dot(self, rng):
        tr, tq, ref, qry = _device_pair(rng)
        m = 8
        pre = PrecalcKernel(config=CFG, policy=policy_for("FP64")).run(tr, tq, m)
        i = 17
        w = ref[i : i + m, 0]
        a = w - w.mean()
        b = qry[:m, 0] - qry[:m, 0].mean()
        assert pre.qt_col0[0, i] == pytest.approx(np.dot(a, b), rel=1e-9)

    def test_shapes(self, rng):
        tr, tq, _, _ = _device_pair(rng, n_r=80, n_q=70, d=3)
        pre = PrecalcKernel(config=CFG, policy=policy_for("FP64")).run(tr, tq, 8)
        assert pre.n_r_seg == 73
        assert pre.n_q_seg == 63
        assert pre.d == 3
        assert pre.mu_q.shape == (3, 63)
        assert pre.qt_row0.shape == (3, 63)
        assert pre.qt_col0.shape == (3, 73)


class TestPrecalcValidation:
    def test_m_too_small(self, rng):
        tr, tq, _, _ = _device_pair(rng)
        with pytest.raises(ValueError, match="m must be >= 2"):
            PrecalcKernel(config=CFG, policy=policy_for("FP64")).run(tr, tq, 1)

    def test_m_too_long(self, rng):
        tr, tq, _, _ = _device_pair(rng, n_r=20, n_q=20)
        with pytest.raises(ValueError, match="exceeds series lengths"):
            PrecalcKernel(config=CFG, policy=policy_for("FP64")).run(tr, tq, 50)

    def test_dim_mismatch(self, rng):
        tr, _, _, _ = _device_pair(rng, d=2)
        _, tq, _, _ = _device_pair(rng, d=3)
        with pytest.raises(ValueError, match="dimensionality mismatch"):
            PrecalcKernel(config=CFG, policy=policy_for("FP64")).run(tr, tq, 8)

    def test_1d_device_array_rejected(self, rng):
        with pytest.raises(ValueError):
            PrecalcKernel(config=CFG, policy=policy_for("FP64")).run(
                np.zeros(10), np.zeros(10), 4
            )


class TestPrecalcPrecision:
    def test_outputs_in_storage_dtype(self, rng):
        tr, tq, _, _ = _device_pair(rng, dtype=np.float16)
        pre = PrecalcKernel(config=CFG, policy=policy_for("Mixed")).run(tr, tq, 8)
        for arr in (pre.mu_r, pre.inv_q, pre.df_r, pre.qt_row0):
            assert arr.dtype == np.float16

    def test_mixed_more_accurate_than_fp16(self, rng):
        # The precalc in FP32 (Mixed) must track the FP64 reference better
        # than the all-FP16 precalc once the length-m accumulation error
        # dominates the final fp16 storage rounding (long windows, drift).
        n, m = 300, 64
        base = rng.normal(size=(n, 1)).cumsum(axis=0)
        tr64 = to_device_layout(base, np.float64)
        pre64 = PrecalcKernel(config=CFG, policy=policy_for("FP64")).run(tr64, tr64, m)

        tr16 = to_device_layout(base, np.float16)
        pre16 = PrecalcKernel(config=CFG, policy=policy_for("FP16")).run(tr16, tr16, m)
        premx = PrecalcKernel(config=CFG, policy=policy_for("Mixed")).run(tr16, tr16, m)

        ref = pre64.qt_row0.astype(np.float64)
        err16 = np.nanmean(np.abs(pre16.qt_row0.astype(np.float64) - ref))
        errmx = np.nanmean(np.abs(premx.qt_row0.astype(np.float64) - ref))
        assert errmx <= err16

    def test_fp16c_compensation_not_worse_than_mixed(self, rng):
        n, m = 200, 64
        base = rng.uniform(0, 1, size=(n, 1))
        tr64 = to_device_layout(base, np.float64)
        ref = PrecalcKernel(config=CFG, policy=policy_for("FP64")).run(tr64, tr64, m)

        tr16 = to_device_layout(base, np.float16)
        mx = PrecalcKernel(config=CFG, policy=policy_for("Mixed")).run(tr16, tr16, m)
        cp = PrecalcKernel(config=CFG, policy=policy_for("FP16C")).run(tr16, tr16, m)
        err_mx = np.nanmean(
            np.abs(mx.qt_row0.astype(np.float64) - ref.qt_row0.astype(np.float64))
        )
        err_cp = np.nanmean(
            np.abs(cp.qt_row0.astype(np.float64) - ref.qt_row0.astype(np.float64))
        )
        assert err_cp <= err_mx * 1.05  # compensation never meaningfully worse


class TestPrecalcCost:
    def test_cost_recorded_once(self, rng):
        tr, tq, _, _ = _device_pair(rng)
        k = PrecalcKernel(config=CFG, policy=policy_for("FP64"))
        k.run(tr, tq, 8)
        assert k.cost.launches == 1
        assert k.cost.bytes_dram > 0
        assert k.cost.flops > 0

    def test_kahan_quadruples_flops(self, rng):
        tr16, tq16, _, _ = _device_pair(rng, dtype=np.float16)
        k_mx = PrecalcKernel(config=CFG, policy=policy_for("Mixed"))
        k_mx.run(tr16, tq16, 8)
        k_cp = PrecalcKernel(config=CFG, policy=policy_for("FP16C"))
        k_cp.run(tr16, tq16, 8)
        assert k_cp.cost.flops == pytest.approx(4 * k_mx.cost.flops)

    @pytest.mark.parametrize("launch", [LaunchConfig(grid=2, block=4), CFG])
    def test_seed_rounds_are_grid_stride_chunks(self, launch):
        """``seed_cost`` counts rounds by ceiling division; a grid-stride
        walk over the same items takes as many chunks."""
        step = launch.total_threads
        for n_items in (0, 1, step - 1, step, step + 1):
            cost = seed_cost(n_items, 0, 1, 8, policy_for("FP32").precalc.itemsize, launch)
            assert cost.loop_rounds == len(list(grid_stride_chunks(n_items, launch)))


class TestNaiveQtRow:
    def test_matches_streaming_free_reference(self, rng):
        tr, tq, ref, qry = _device_pair(rng)
        m, row = 8, 13
        out = naive_qt_row(tr, tq, m, row, policy_for("FP64"))
        w = ref[row : row + m, 0]
        a = w - w.mean()
        j = 5
        wq = qry[j : j + m, 0]
        b = wq - wq.mean()
        assert out[0, j] == pytest.approx(np.dot(a, b), rel=1e-9)
