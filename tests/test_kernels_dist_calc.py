"""Unit tests for the dist_calc kernel (streaming Eq. 1)."""

import numpy as np
import pytest

from repro.baselines.brute_force import znormalized_distance_matrix
from repro.gpu.kernel import LaunchConfig
from repro.kernels.dist_calc import DistCalcKernel
from repro.kernels.layout import to_device_layout
from repro.precision.modes import policy_for

from .precalc_oracle import PrecalcKernel

CFG = LaunchConfig(grid=4, block=64)


def _run_all_rows(ref, qry, m, mode):
    policy = policy_for(mode)
    tr = to_device_layout(ref, policy.storage)
    tq = to_device_layout(qry, policy.storage)
    pre = PrecalcKernel(config=CFG, policy=policy).run(tr, tq, m)
    dk = DistCalcKernel(config=CFG, policy=policy)
    dk.bind(pre)
    n_r = tr.shape[1] - m + 1
    return [dk.run(i) for i in range(n_r)], dk


class TestStreamingCorrectness:
    def test_every_row_matches_oracle(self, rng):
        ref = rng.normal(size=(70, 2)).cumsum(axis=0)
        qry = rng.normal(size=(60, 2)).cumsum(axis=0)
        m = 8
        planes, _ = _run_all_rows(ref, qry, m, "FP64")
        oracle = znormalized_distance_matrix(ref, qry, m)
        for i, plane in enumerate(planes):
            np.testing.assert_allclose(plane.T, oracle[i], atol=1e-8)

    def test_self_join_diagonal_is_zero(self, rng):
        ref = rng.normal(size=(60, 2)).cumsum(axis=0)
        planes, _ = _run_all_rows(ref, ref, 8, "FP64")
        for i, plane in enumerate(planes):
            assert np.all(np.abs(plane[:, i]) < 1e-6)

    def test_rows_must_start_at_zero(self, rng):
        ref = rng.normal(size=(40, 1))
        policy = policy_for("FP64")
        tr = to_device_layout(ref, policy.storage)
        pre = PrecalcKernel(config=CFG, policy=policy).run(tr, tr, 8)
        dk = DistCalcKernel(config=CFG, policy=policy)
        dk.bind(pre)
        with pytest.raises(RuntimeError, match="rows must be visited in order"):
            dk.run(3)

    def test_distances_nonnegative(self, rng):
        ref = rng.normal(size=(60, 3))
        planes, _ = _run_all_rows(ref, ref, 12, "FP64")
        for plane in planes:
            assert np.all(plane >= 0)


class TestReducedPrecisionBehaviour:
    def test_fp16_distances_finite_after_saturation(self, rng):
        # Large-amplitude data overflows half precision; the kernel must
        # saturate to the max finite value, never emit inf/NaN.
        ref = 100.0 * rng.normal(size=(80, 1)).cumsum(axis=0)
        planes, _ = _run_all_rows(ref, ref, 8, "FP16")
        for plane in planes:
            assert np.all(np.isfinite(plane))

    def test_error_grows_along_stream(self, rng):
        # Rounding error of the recurrence accumulates with the row index
        # (e ~ rows * eps, Section V-B).
        ref = rng.normal(size=(260, 1)).cumsum(axis=0)
        qry = rng.normal(size=(260, 1)).cumsum(axis=0)
        m = 8
        planes16, _ = _run_all_rows(ref, qry, m, "FP16")
        oracle = znormalized_distance_matrix(ref, qry, m)
        n_r = len(planes16)
        errs = np.array(
            [np.mean(np.abs(planes16[i].T.astype(np.float64) - oracle[i])) for i in range(n_r)]
        )
        early = errs[: n_r // 4].mean()
        late = errs[-n_r // 4 :].mean()
        assert late > early

    def test_dtype_of_output(self, rng):
        ref = rng.normal(size=(40, 1))
        planes, _ = _run_all_rows(ref, ref, 8, "FP16")
        assert planes[0].dtype == np.float16


class TestDistCost:
    def test_per_row_accounting(self, rng):
        ref = rng.normal(size=(40, 2))
        planes, dk = _run_all_rows(ref, ref, 8, "FP64")
        n_r = len(planes)
        elems = planes[0].size
        assert dk.cost.launches == n_r
        assert dk.cost.bytes_dram == pytest.approx(3.0 * elems * 8 * n_r)
        assert dk.cost.flops == pytest.approx(8.0 * elems * n_r)
