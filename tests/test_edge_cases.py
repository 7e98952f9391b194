"""API-level edge cases and input hardening."""

import numpy as np
import pytest

from repro import matrix_profile
from repro.baselines.mstamp import mstamp


class TestInputValidation:
    def test_nan_input_rejected(self, rng):
        x = rng.normal(size=(100, 2))
        x[50, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            matrix_profile(x, m=8)

    def test_inf_input_rejected(self, rng):
        x = rng.normal(size=(100, 2))
        x[10, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            matrix_profile(x, m=8)

    def test_integer_input_accepted(self):
        x = np.arange(200).reshape(100, 2) % 7
        r = matrix_profile(x, m=8)
        assert r.profile.dtype == np.float64

    def test_list_input_accepted(self):
        x = [[float(i % 5), float(i % 3)] for i in range(80)]
        r = matrix_profile(np.array(x), m=8)
        assert r.profile.shape == (73, 2)


class TestMinimalSizes:
    def test_m_equals_2(self, rng):
        x = rng.normal(size=(50, 2))
        r = matrix_profile(x, m=2)
        assert r.profile.shape == (49, 2)
        assert np.all(np.isfinite(r.profile))

    def test_two_segments_only(self, rng):
        ref = rng.normal(size=(9, 1))
        qry = rng.normal(size=(9, 1))
        r = matrix_profile(ref, qry, m=8)
        assert r.profile.shape == (2, 1)

    def test_single_query_segment(self, rng):
        ref = rng.normal(size=(50, 1))
        qry = rng.normal(size=(8, 1))
        r = matrix_profile(ref, qry, m=8)
        assert r.profile.shape == (1, 1)
        assert 0 <= r.index[0, 0] < 43

    def test_m_longer_than_series_rejected(self, rng):
        with pytest.raises(ValueError):
            matrix_profile(rng.normal(size=(10, 1)), m=20)

    def test_m_below_two_rejected(self, rng):
        with pytest.raises(ValueError, match="m must be >= 2"):
            matrix_profile(rng.normal(size=(10, 1)), m=1)


class TestDegenerateData:
    def test_constant_series_does_not_crash(self):
        x = np.ones((100, 2))
        r = matrix_profile(x, m=8)
        # Flat windows are ill-conditioned by definition; the contract is
        # "no crash, finite outputs", not meaningful distances.
        assert np.all(np.isfinite(r.profile))

    def test_piecewise_constant(self, rng):
        x = np.repeat(rng.normal(size=(10, 1)), 12, axis=0)
        r = matrix_profile(x, m=8)
        assert r.profile.shape == (113, 1)

    def test_tiny_amplitudes(self, rng):
        x = 1e-150 * rng.normal(size=(100, 1))
        r = matrix_profile(x, m=8, mode="FP64")
        assert np.all(np.isfinite(r.profile))


class TestExclusionZoneEdges:
    def test_zone_covering_everything_yields_no_matches(self, rng):
        x = rng.normal(size=(60, 1))
        r = matrix_profile(x, m=8, exclusion_zone=100)
        assert np.all(r.index == -1)

    def test_zero_zone_allows_adjacent(self, rng):
        x = rng.normal(size=(60, 1))
        r = matrix_profile(x, m=8, exclusion_zone=0)
        positions = np.arange(r.n_q_seg)
        valid = r.index[:, 0] >= 0
        # Only the exact self-match is excluded.
        assert np.all(r.index[valid, 0] != positions[valid])

    def test_ab_join_ignores_zone_by_default(self, rng):
        ref = rng.normal(size=(60, 1))
        # AB joins may legitimately match the same position index.
        r = matrix_profile(ref, ref.copy(), m=8)
        positions = np.arange(r.n_q_seg)
        assert np.mean(r.index[:, 0] == positions) > 0.9  # near-diagonal

    def test_explicit_zone_on_ab_join(self, rng):
        ref = rng.normal(size=(60, 1))
        r = matrix_profile(ref, ref.copy(), m=8, exclusion_zone=4)
        positions = np.arange(r.n_q_seg)
        valid = r.index[:, 0] >= 0
        assert np.all(np.abs(r.index[valid, 0] - positions[valid]) > 4)


class TestAsymmetricJoins:
    def test_reference_much_longer(self, rng):
        ref = rng.normal(size=(500, 2))
        qry = rng.normal(size=(40, 2))
        r = matrix_profile(ref, qry, m=16)
        assert r.profile.shape == (25, 2)
        assert np.all(r.index < 485)

    def test_query_much_longer_tiled(self, rng):
        ref = rng.normal(size=(40, 2))
        qry = rng.normal(size=(500, 2))
        single = matrix_profile(ref, qry, m=16)
        tiled = matrix_profile(ref, qry, m=16, n_tiles=8, n_gpus=3)
        np.testing.assert_array_equal(tiled.index, single.index)

    def test_more_tiles_than_rows(self, rng):
        ref = rng.normal(size=(24, 1))  # 9 reference segments
        qry = rng.normal(size=(200, 1))
        r = matrix_profile(ref, qry, m=16, n_tiles=64)
        p, i = mstamp(ref, qry, 16)
        np.testing.assert_allclose(r.profile, p, atol=1e-10)

    def test_d1_multi_tile_fast_path(self, rng):
        x = rng.normal(size=(300, 1)).cumsum(axis=0)
        a = matrix_profile(x, m=16, n_tiles=9)
        b = matrix_profile(x, m=16)
        np.testing.assert_array_equal(a.index, b.index)


class TestConfigEdges:
    def test_one_stream(self, rng):
        x = rng.normal(size=(200, 2))
        r = matrix_profile(x, m=16, n_tiles=4, n_streams=1)
        assert r.timeline.makespan > 0

    def test_more_gpus_than_tiles(self, rng):
        x = rng.normal(size=(200, 2))
        r = matrix_profile(x, m=16, n_tiles=2, n_gpus=8)
        used = {op.device_index for op in r.timeline.ops}
        assert used == {0, 1}  # only two devices ever see work

    def test_v100_device(self, rng):
        x = rng.normal(size=(200, 2))
        a100 = matrix_profile(x, m=16, device="A100")
        v100 = matrix_profile(x, m=16, device="V100")
        np.testing.assert_array_equal(a100.index, v100.index)  # same math
        assert v100.modeled_time > a100.modeled_time  # older device slower
