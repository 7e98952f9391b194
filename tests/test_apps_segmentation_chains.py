"""Unit tests for FLUSS segmentation and time-series chains."""

import numpy as np
import pytest

from repro import matrix_profile
from repro.apps import chains
from repro.apps.chains import (
    anchored_chain,
    left_right_profile,
    unanchored_chain,
)
from repro.apps.segmentation import (
    arc_curve,
    corrected_arc_curve,
    find_regime_changes,
    segment_regimes,
)
from repro.core.config import RunConfig
from repro.engine import backends

from .per_row_oracle import per_row_left_right

MODES = ("FP64", "FP32", "FP16", "Mixed", "FP16C")


class TestArcCurve:
    def test_simple_arcs(self):
        # 0 <-> 3 and 1 <-> 2: the long arcs (0,3) cover positions 1 and
        # 2; the adjacent arcs (1,2) cover nothing strictly between.
        index = np.array([3, 2, 1, 0])
        arcs = arc_curve(index)
        assert arcs[0] == 0  # nothing crosses before position 1
        assert arcs[1] == 2  # the two directed long arcs
        assert arcs[2] == 2
        assert arcs.shape == (4,)

    def test_negative_indices_skipped(self):
        index = np.array([-1, -1, -1, -1])
        assert np.all(arc_curve(index) == 0)

    def test_1d_required(self):
        with pytest.raises(ValueError):
            arc_curve(np.zeros((3, 2), dtype=int))

    def test_cac_range(self, rng):
        index = rng.integers(0, 200, size=200)
        cac = corrected_arc_curve(index)
        assert np.all(cac >= 0)
        assert np.all(cac <= 1)
        assert cac[0] == 1.0 and cac[-1] == 1.0  # pinned edges

    def test_cac_too_short(self):
        with pytest.raises(ValueError):
            corrected_arc_curve(np.array([0, 1]))


class TestFindRegimes:
    def test_picks_deepest_minima(self):
        cac = np.ones(100)
        cac[30] = 0.1
        cac[70] = 0.2
        assert find_regime_changes(cac, 3, exclusion=10) == [30, 70]

    def test_exclusion_suppresses_neighbours(self):
        cac = np.ones(100)
        cac[30] = 0.1
        cac[33] = 0.15  # within exclusion of 30
        cac[70] = 0.3
        assert find_regime_changes(cac, 3, exclusion=10) == [30, 70]

    def test_single_regime_no_boundaries(self):
        assert find_regime_changes(np.ones(50), 1, exclusion=5) == []


class TestSegmentRegimes:
    def test_two_regime_signal(self, rng):
        # Regime A: fast sine; regime B: slow sawtooth — a clean change.
        t = np.arange(600)
        a = np.sin(2 * np.pi * t[:300] / 10)
        b = ((t[300:] % 40) / 40.0) * 2 - 1
        x = np.concatenate([a, b]) + 0.05 * rng.normal(size=600)
        result = matrix_profile(x, m=25, mode="FP64")
        seg = segment_regimes(result, n_regimes=2)
        assert len(seg.boundaries) == 1
        assert abs(seg.boundaries[0] - 300) < 50
        assert seg.regime_of(100) == 0
        assert seg.regime_of(500) == 1

    def test_cac_dips_at_boundary(self, rng):
        t = np.arange(600)
        a = np.sin(2 * np.pi * t[:300] / 10)
        b = np.sin(2 * np.pi * t[300:] / 37)
        x = np.concatenate([a, b]) + 0.05 * rng.normal(size=600)
        result = matrix_profile(x, m=25, mode="FP64")
        seg = segment_regimes(result, n_regimes=2)
        centre = seg.cac[250:330].min()
        elsewhere = np.median(seg.cac[50:200])
        assert centre < elsewhere * 0.7


class TestLeftRightProfile:
    @pytest.fixture(scope="class")
    def lr(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(250, 1)).cumsum(axis=0)
        return left_right_profile(x, 16)

    def test_direction_constraints(self, lr):
        pos = np.arange(lr.n_seg)
        valid_l = lr.left_index >= 0
        assert np.all(lr.left_index[valid_l] < pos[valid_l])
        valid_r = lr.right_index >= 0
        assert np.all(lr.right_index[valid_r] > pos[valid_r])

    def test_min_of_both_is_full_profile(self, lr):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(250, 1)).cumsum(axis=0)
        full = matrix_profile(x, m=16, mode="FP64")
        combined = np.minimum(lr.left_profile, lr.right_profile)
        np.testing.assert_allclose(combined, full.profile[:, 0], atol=1e-10)

    def test_first_position_has_no_left(self, lr):
        assert lr.left_index[0] == -1
        assert lr.right_index[-1] == -1

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_per_row_oracle(self, mode, monkeypatch):
        """The row-blocked left/right merges == per-row ``masked_run``
        merges, bit for bit, for every k at the default super-step, at
        blocks of one row, at a block size that does not divide the
        segment count and at one block for the whole series."""
        series = np.random.default_rng(3).normal(size=(140, 3)).cumsum(axis=0)
        m = 12
        config = RunConfig(mode=mode)
        n_seg = 140 - m + 1
        for budget in (backends.SUPER_STEP_ELEMENTS, 0, 7 * 3 * n_seg, 1 << 40):
            monkeypatch.setattr(backends, "SUPER_STEP_ELEMENTS", budget)
            for k in (1, 2, 3):
                got = chains.left_right_profile(series, m, config, k=k)
                lp, li, rp, ri = per_row_left_right(series, m, config, k=k)
                assert np.array_equal(got.left_profile, lp.astype(np.float64))
                assert np.array_equal(got.left_index, li)
                assert np.array_equal(got.right_profile, rp.astype(np.float64))
                assert np.array_equal(got.right_index, ri)

    def test_k_validation(self, rng):
        with pytest.raises(ValueError):
            left_right_profile(rng.normal(size=(100, 2)), 8, k=5)


class TestChains:
    def test_drifting_pattern_forms_chain(self, rng):
        # A wave whose frequency drifts: occurrence t matches occurrence
        # t+1 best in each direction -> a long chain.
        m = 32
        n_occ = 6
        x = 0.1 * rng.normal(size=(n_occ * 3 * m, 1))
        positions = []
        for t in range(n_occ):
            pos = t * 3 * m + m
            freq = 2.0 + 0.15 * t  # slow drift
            x[pos : pos + m, 0] += np.sin(
                2 * np.pi * freq * np.arange(m) / m
            )
            positions.append(pos)
        lr = left_right_profile(x, m)
        chain = unanchored_chain(lr)
        assert len(chain) >= n_occ - 2
        # Chain members sit at (or within a few samples of) occurrences.
        for link in chain:
            assert min(abs(link - p) for p in positions) < m

    def test_anchored_chain_starts_at_anchor(self, rng):
        x = rng.normal(size=(150, 1)).cumsum(axis=0)
        lr = left_right_profile(x, 12)
        chain = anchored_chain(lr, 5)
        assert chain[0] == 5
        assert all(a < b for a, b in zip(chain, chain[1:]))

    def test_anchor_out_of_range(self, rng):
        lr = left_right_profile(rng.normal(size=(100, 1)), 8)
        with pytest.raises(ValueError):
            anchored_chain(lr, 1000)
