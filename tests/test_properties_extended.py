"""Second round of property-based tests: end-to-end invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import matrix_profile
from repro.core.planner import plan_tiles, tile_memory_bytes
from repro.extensions.transprecision import BF16, TF32, SOFT_FP16, round_to_format
from repro.preprocessing import minmax_normalize, zscore_normalize

SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _series_from_seed(seed: int, n: int, d: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, d)).cumsum(axis=0)


class TestTilingInvariance:
    @given(
        seed=st.integers(0, 100),
        n_tiles=st.integers(1, 12),
        n_gpus=st.integers(1, 5),
    )
    @SLOW
    def test_fp64_result_invariant_to_decomposition(self, seed, n_tiles, n_gpus):
        series = _series_from_seed(seed, 120, 2)
        base = matrix_profile(series, m=12, mode="FP64")
        decomposed = matrix_profile(
            series, m=12, mode="FP64", n_tiles=n_tiles, n_gpus=n_gpus
        )
        np.testing.assert_allclose(decomposed.profile, base.profile, atol=1e-10)
        np.testing.assert_array_equal(decomposed.index, base.index)


class TestNormalisationInvariance:
    @given(
        seed=st.integers(0, 100),
        scale=st.floats(0.1, 100.0),
        offset=st.floats(-50.0, 50.0),
    )
    @SLOW
    def test_profile_invariant_to_affine_maps(self, seed, scale, offset):
        series = _series_from_seed(seed, 100, 2)
        base = matrix_profile(series, m=10, mode="FP64")
        mapped = matrix_profile(series * scale + offset, m=10, mode="FP64")
        np.testing.assert_allclose(mapped.profile, base.profile, atol=1e-6)

    @given(seed=st.integers(0, 200))
    @SLOW
    def test_minmax_output_in_unit_interval(self, seed):
        series = _series_from_seed(seed, 80, 3) * 100
        out = minmax_normalize(series)
        assert out.min() >= -1e-12
        assert out.max() <= 1 + 1e-12

    @given(seed=st.integers(0, 200))
    @SLOW
    def test_zscore_then_zscore_idempotent(self, seed):
        series = _series_from_seed(seed, 80, 2)
        once = zscore_normalize(series)
        twice = zscore_normalize(once)
        np.testing.assert_allclose(once, twice, atol=1e-10)


class TestSoftFormatProperties:
    @given(
        seed=st.integers(0, 500),
        fmt=st.sampled_from([BF16, TF32, SOFT_FP16]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rounding_idempotent_and_monotone(self, seed, fmt):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.normal(size=64) * 10)
        r = round_to_format(x, fmt)
        np.testing.assert_array_equal(r, round_to_format(r, fmt))
        assert np.all(np.diff(r) >= 0)  # rounding preserves order

    @given(seed=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_relative_error_bounded_by_eps(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.1, 1000.0, size=64)
        for fmt in (BF16, TF32):
            r = round_to_format(x, fmt)
            rel = np.abs(r - x) / x
            assert np.all(rel <= fmt.eps * (1 + 1e-12))


class TestPlannerProperties:
    @given(
        n=st.integers(64, 1 << 20),
        d=st.integers(1, 128),
        m=st.sampled_from([16, 64, 256]),
    )
    @settings(max_examples=40, deadline=None)
    def test_tile_bytes_monotone(self, n, d, m):
        assert tile_memory_bytes(n, n, d, m, "FP16") <= tile_memory_bytes(
            n, n, d, m, "FP64"
        )

    @given(
        n=st.integers(256, 1 << 18),
        d=st.sampled_from([4, 16, 64]),
    )
    @settings(max_examples=20, deadline=None)
    def test_plan_respects_budget(self, n, d):
        plan = plan_tiles(n, n, d, 64, mode="FP64", device="A100")
        budget = 0.9 * 40 * 1024**3 / 16
        assert plan.tile_bytes <= budget


class TestStreamingEquivalence:
    @given(seed=st.integers(0, 50), chunk=st.integers(1, 70))
    @SLOW
    def test_streaming_matches_batch(self, seed, chunk):
        from repro.core.config import RunConfig
        from repro.streams import IncrementalMatrixProfile

        rng = np.random.default_rng(seed)
        ref = rng.normal(size=(90, 2))
        qry = rng.normal(size=(70, 2))
        batch = matrix_profile(ref, qry, m=10, mode="FP64")
        stream = IncrementalMatrixProfile(10, RunConfig(), reference=ref)
        for start in range(0, len(qry), chunk):
            stream.append(qry[start : start + chunk])
        profiles, indices = stream.profile()
        np.testing.assert_allclose(profiles, batch.profile, atol=1e-8)
        assert np.mean(indices == batch.index) > 0.99