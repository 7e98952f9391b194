"""Unit tests for the sort_&_incl_scan kernel (bitonic sort + fan-in scan)."""

import sys

import numpy as np
import pytest

from repro.apps.chains import left_right_profile
from repro.core.anytime import anytime_matrix_profile
from repro.core.api import matrix_profile
from repro.core.config import RunConfig
from repro.gpu.kernel import LaunchConfig
from repro.gpu.perfmodel import sort_stage_count
from repro.kernels.dist_calc import _qt_to_dist_lut_f16
from repro.kernels.sort_scan import (
    _BATCHER_MAX_D,
    SortScanKernel,
    _sort_network_inplace,
    fanin_inclusive_scan,
)
from repro.precision.modes import DTYPE_MAX, TENSOR_CORE_MODES, PrecisionMode, policy_for

from .per_row_oracle import bitonic_sort
from .sort_scan_batch import sort_columns_exact

CFG = LaunchConfig(grid=4, block=64)


class TestBitonicSort:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64])
    def test_sorts_every_width(self, rng, d):
        x = rng.normal(size=(d, 9))
        out = bitonic_sort(x)
        np.testing.assert_array_equal(out, np.sort(x, axis=0))

    def test_stage_count_matches_model(self, rng):
        for d in (2, 4, 8, 16, 64, 5, 9):
            _, stages = bitonic_sort(rng.normal(size=(d, 3)), count_stages=True)
            assert stages == sort_stage_count(d)[0]

    def test_input_not_mutated(self, rng):
        x = rng.normal(size=(8, 4))
        copy = x.copy()
        bitonic_sort(x)
        np.testing.assert_array_equal(x, copy)

    def test_fp16_padding_uses_max(self, rng):
        # d=3 padded to 4 with the largest finite half; padding must never
        # leak into the first d sorted outputs.
        x = rng.normal(size=(3, 5)).astype(np.float16)
        out = bitonic_sort(x)
        assert out.shape == (3, 5)
        np.testing.assert_array_equal(out, np.sort(x, axis=0))

    def test_duplicates(self):
        x = np.array([[2.0], [1.0], [2.0], [1.0]])
        np.testing.assert_array_equal(bitonic_sort(x)[:, 0], [1, 1, 2, 2])


class TestFaninScan:
    @pytest.mark.parametrize("d", [1, 2, 4, 7, 16])
    def test_matches_cumsum_fp64(self, rng, d):
        x = rng.normal(size=(d, 6))
        out = fanin_inclusive_scan(x, np.dtype(np.float64))
        np.testing.assert_allclose(out, np.cumsum(x, axis=0), rtol=1e-12)

    def test_stage_count(self, rng):
        _, stages = fanin_inclusive_scan(
            rng.normal(size=(16, 2)), np.dtype(np.float64), count_stages=True
        )
        assert stages == 4

    def test_fanin_order_rounding_differs_from_sequential(self):
        # In fp16 the tree summation order produces different (generally
        # better) rounding than a sequential cumsum — this asserts we do
        # model the fan-in order, not a sequential scan.
        x = np.full((64, 1), 0.1, dtype=np.float16)
        fan = fanin_inclusive_scan(x, np.dtype(np.float16))[-1, 0]
        seq = np.cumsum(x, axis=0)[-1, 0]
        exact = 6.4
        assert abs(float(fan) - exact) <= abs(float(seq) - exact)


class TestSortScanKernel:
    def test_inclusive_average_semantics(self, rng):
        plane = rng.normal(size=(5, 7)) ** 2
        k = SortScanKernel(config=CFG, policy=policy_for("FP64"))
        out = k.run(plane)
        s = np.sort(plane, axis=0)
        expected = np.cumsum(s, axis=0) / np.arange(1, 6)[:, None]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_first_row_is_min(self, rng):
        plane = rng.normal(size=(6, 9)) ** 2
        out = SortScanKernel(config=CFG, policy=policy_for("FP64")).run(plane)
        np.testing.assert_allclose(out[0], plane.min(axis=0), rtol=1e-12)

    def test_last_row_is_mean(self, rng):
        plane = rng.normal(size=(6, 9)) ** 2
        out = SortScanKernel(config=CFG, policy=policy_for("FP64")).run(plane)
        np.testing.assert_allclose(out[-1], plane.mean(axis=0), rtol=1e-12)

    def test_rows_monotone_in_k_is_false_in_general(self, rng):
        # The inclusive average over *sorted* values is non-decreasing in k.
        plane = rng.normal(size=(8, 20)) ** 2
        out = SortScanKernel(config=CFG, policy=policy_for("FP64")).run(plane)
        assert np.all(np.diff(out, axis=0) >= -1e-12)

    def test_cost_syncs(self, rng):
        """A tile of two d = 8 rows is charged one sync per network stage
        and one launch per row."""
        m = 4
        result = matrix_profile(rng.normal(size=(2 + m - 1, 8)),
                                rng.normal(size=(5 + m - 1, 8)), m=m)
        cost = result.costs["sort_&_incl_scan"]
        sort_stages, scan_stages = sort_stage_count(8)
        assert cost.syncs == 2 * (sort_stages + scan_stages)
        assert cost.launches == 2

    def test_d1_passthrough(self, rng):
        plane = np.abs(rng.normal(size=(1, 11)))
        out = SortScanKernel(config=CFG, policy=policy_for("FP64")).run(plane)
        np.testing.assert_allclose(out, plane, rtol=1e-12)


# ---------------------------------------------------------------------------
# The one value-exact sorting network behind every precision

MODES = [mode.value for mode in PrecisionMode]
SORT_DTYPES = [np.float64, np.float32, np.float16]


def _tie_heavy_plane(rng, d, dtype, n=301):
    """Distance-like (non-negative, NaN-free) columns drawn mostly from a
    small pool — exact zeros, the dtype's saturation value and a few
    repeated magnitudes — so most columns hold ties."""
    pool = np.array([0.0, DTYPE_MAX[np.dtype(dtype)], 0.5, 1.0, 3.25, 1e-3])
    pool = pool.astype(dtype)
    plane = pool[rng.integers(0, pool.size, size=(d, n))]
    fresh = rng.random(size=(d, n)) < 0.25
    plane[fresh] = (rng.standard_normal(fresh.sum()) ** 2).astype(dtype)
    return plane


class TestUnifiedSort:
    @pytest.mark.parametrize("dtype", SORT_DTYPES)
    @pytest.mark.parametrize("d", [*range(1, _BATCHER_MAX_D + 1), _BATCHER_MAX_D + 1])
    def test_bytes_match_np_sort_and_oracle(self, rng, dtype, d):
        plane = _tie_heavy_plane(rng, d, dtype)
        before = plane.copy()
        out = sort_columns_exact(plane)
        assert out.dtype == plane.dtype and out.shape == plane.shape
        assert out.tobytes() == np.sort(plane, axis=0).tobytes()
        assert out.tobytes() == bitonic_sort(plane).tobytes()
        assert plane.tobytes() == before.tobytes()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", [3, 8, _BATCHER_MAX_D + 1])
    def test_run_leaves_input_unmodified(self, rng, mode, d):
        kern = SortScanKernel(config=CFG, policy=policy_for(mode))
        # In the compute dtype, so ``astype(copy=False)`` hands the kernel
        # the caller's own buffer.
        plane = _tie_heavy_plane(rng, d, kern.policy.compute)
        plane[:, ::2] = plane[::-1, ::2]  # unsorted columns
        before = plane.copy()
        kern.run(plane)
        assert plane.tobytes() == before.tobytes()


class TestSortNetworkZeroOne:
    @pytest.mark.parametrize("d", range(1, _BATCHER_MAX_D + 1))
    def test_sorts_every_bit_column(self, d):
        # Zero-one principle: a comparator network that sorts all 2^d
        # bit columns sorts every input of d keys.
        bits = (np.arange(2**d)[None, :] >> np.arange(d)[:, None]) & 1
        plane = bits.astype(np.uint8)
        _sort_network_inplace(plane)
        assert (np.diff(plane.astype(np.int8), axis=0) >= 0).all()
        np.testing.assert_array_equal(plane.sum(axis=0), bits.sum(axis=0))


#: Every non-negative half: +0, the subnormals, the normals up to 65504,
#: and +inf.
_NONNEG_F16 = np.arange(0, 0x7C01, dtype=np.uint16).view(np.float16)


def _divided(x, k):
    return (x / np.float16(k)).astype(np.float16)


class TestDivideTable:
    """The half-precision divide-by-k rounds every non-negative half's
    quotient exactly as numpy's half division does."""

    @pytest.mark.parametrize("k", range(1, 18))
    def test_kernel_divides_every_nonneg_half(self, k):
        # One non-zero per column: after the sort (np.sort above 16 rows)
        # the last scan row is that value, divided by k.
        plane = np.zeros((k, _NONNEG_F16.size), dtype=np.float16)
        plane[0] = _NONNEG_F16
        out = SortScanKernel(config=CFG, policy=policy_for("FP16")).run(plane)
        assert out[-1].tobytes() == _divided(_NONNEG_F16, k).tobytes()
        assert not out[:-1].view(np.uint16).any()  # +0, not -0.0


class TestDistanceTablePrecondition:
    """The min/max network sorts, and the half scan's unchecked splits
    round, exactly only while the sorted distances are never NaN or
    ``-0.0``: the half correlation -> distance table guarantees that, and
    saturates infinities, for every input half, NaN and inf included."""

    @pytest.mark.parametrize("m", [2, 16, 32, 100, 1024, 40000])
    def test_qt_to_dist_table_is_finite_and_sign_clean(self, m):
        table = _qt_to_dist_lut_f16(m)
        assert table.size == 65536
        assert np.isfinite(table).all()
        assert not np.signbit(table).any()


def _hard_inputs():
    """The ROADMAP's numerical-edge probes, n=512, d=3."""
    rng = np.random.default_rng(7)
    flat = rng.standard_normal((512, 3)).cumsum(axis=0)
    flat[:100] = flat[100]
    return {
        "mean4e4_sd3e3": 4e4 + 3e3 * rng.standard_normal((512, 3)),
        "mean1e3_sd1e2": 1e3 + 1e2 * rng.standard_normal((512, 3)),
        "flat_prefix": flat,
    }


class TestSortInputPrecondition:
    """min/max agrees with ``np.sort`` value for value only on NaN-free
    planes without ``-0.0``; every plane the kernel sorts must be one."""

    @pytest.mark.parametrize("case", sorted(_hard_inputs()))
    @pytest.mark.parametrize(
        "mode, backend",
        [(mode, "numeric") for mode in MODES]
        + [(mode.value, "tensor_core") for mode in TENSOR_CORE_MODES],
    )
    def test_planes_are_nan_and_sign_free(self, monkeypatch, case, mode, backend):
        seen = []
        run = SortScanKernel.run

        def spy(self, plane, *args, **kwargs):
            seen.append((bool(np.isnan(plane).any()), bool(np.signbit(plane).any())))
            return run(self, plane, *args, **kwargs)

        monkeypatch.setattr(SortScanKernel, "run", spy)
        res = matrix_profile(_hard_inputs()[case], m=32, mode=mode, backend=backend)
        assert res.backend == backend
        assert seen
        assert not any(nan for nan, _ in seen)
        assert not any(sign for _, sign in seen)


class TestNoNpSortInSortScan:
    """The sort stage runs the min/max network; ``np.sort`` is only the
    fallback above ``_BATCHER_MAX_D`` rows."""

    @pytest.fixture
    def sort_calls(self, monkeypatch):
        calls = []
        real = np.sort

        def counting_sort(a, *args, **kwargs):
            calls.append((sys._getframe(1).f_globals.get("__name__"), np.shape(a)))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        return calls

    @staticmethod
    def _from_sort_scan(calls):
        return [shape for module, shape in calls if module == "repro.kernels.sort_scan"]

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_matrix_profile_every_mode(self, sort_calls, rng, d):
        series = rng.standard_normal((160, d)).cumsum(axis=0)
        for mode in MODES:
            matrix_profile(series, m=16, mode=mode, n_tiles=2)
        for mode in TENSOR_CORE_MODES:
            matrix_profile(series, m=16, mode=mode, backend="tensor_core")
        assert self._from_sort_scan(sort_calls) == []

    def test_chains_and_anytime(self, sort_calls, rng):
        series = rng.standard_normal((160, 3)).cumsum(axis=0)
        left_right_profile(series, 16, RunConfig(mode="FP16"))
        anytime_matrix_profile(series, None, 16, RunConfig(mode="FP32"), fraction=0.5)
        assert self._from_sort_scan(sort_calls) == []

    @pytest.mark.parametrize("mode", MODES)
    def test_wide_plane_falls_back(self, sort_calls, rng, mode):
        d = _BATCHER_MAX_D + 1
        plane = np.abs(rng.standard_normal((d, 40)))
        SortScanKernel(config=CFG, policy=policy_for(mode)).run(plane)
        assert (d, 40) in self._from_sort_scan(sort_calls)
