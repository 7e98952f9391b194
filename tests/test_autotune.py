"""The error-budget planner: bit-identity contract, candidate space,
pinned decisions and wiring."""

import math

import numpy as np
import pytest

from repro.autotune import AutoTuner
from repro.core.api import matrix_profile
from repro.core.config import RunConfig
from repro.engine import backends
from repro.precision.errors import implied_correlation
from repro.precision.modes import PrecisionMode, policy_for
from repro.service import JobRequest, MatrixProfileService
from repro.streams import StreamIngestService, TenantPolicy

MODES = ("FP64", "FP32", "FP16", "Mixed", "FP16C")


def _series(n, d, seed=5):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)).cumsum(axis=0)


# ---------------------------------------------------------------------------
# The bit-identity contract: no error target => identical output


class TestBitIdentity:
    @pytest.mark.parametrize("mode", MODES)
    def test_self_join_identical(self, mode):
        ts = _series(220, 3)
        base = matrix_profile(ts, m=20, mode=mode)
        auto = matrix_profile(ts, m=20, mode=mode, auto=True)
        assert np.array_equal(auto.profile, base.profile, equal_nan=True)
        assert np.array_equal(auto.index, base.index)

    @pytest.mark.parametrize("mode", MODES)
    def test_ab_join_identical(self, mode):
        ref = _series(200, 2, seed=6)
        qry = _series(160, 2, seed=7)
        base = matrix_profile(ref, qry, m=18, mode=mode)
        auto = matrix_profile(ref, qry, m=18, mode=mode, auto=True)
        assert np.array_equal(auto.profile, base.profile, equal_nan=True)
        assert np.array_equal(auto.index, base.index)

    @pytest.mark.parametrize("mode", MODES)
    def test_tensor_core_backend_identical(self, mode):
        # Non-TC modes fall back to the vector path; both must match.
        ts = _series(300, 3, seed=8)
        base = matrix_profile(ts, m=16, mode=mode, backend="tensor_core", n_tiles=4)
        auto = matrix_profile(
            ts, m=16, mode=mode, backend="tensor_core", n_tiles=4, auto=True
        )
        assert np.array_equal(auto.profile, base.profile, equal_nan=True)
        assert np.array_equal(auto.index, base.index)

    def test_auto_config_shares_cache_key(self):
        cfg = AutoTuner().tune(500, 500, 4, 32, mode="FP32").config
        assert cfg.to_dict() == RunConfig(mode="FP32").to_dict()
        assert cfg.cache_key() == RunConfig(mode="FP32").cache_key()

    def test_explicit_knobs_override_tuner(self):
        # The planner picks FP32 with FFT seeds for this shape (see
        # DECISIONS); an explicit precalc strategy wins over its choice.
        ts = _series(363, 1)
        result = matrix_profile(ts, m=64, target_error=1e-1, precalc_strategy="exact")
        base = matrix_profile(ts, m=64, mode="FP32", precalc_strategy="exact")
        assert np.array_equal(result.profile, base.profile, equal_nan=True)
        assert np.array_equal(result.index, base.index)


# ---------------------------------------------------------------------------
# Candidate space and decision structure


class TestTuneDecision:
    def test_chosen_is_fastest_viable(self):
        decision = AutoTuner().tune(400, 400, 3, 32, mode="FP32", target_error=1e-2)
        viable = [c for c in decision.candidates if not c.rejected]
        assert decision.chosen in viable
        assert decision.chosen.predicted_seconds == min(
            c.predicted_seconds for c in viable
        )

    def test_caller_tile_floor_respected(self):
        decision = AutoTuner().tune(300, 300, 2, 16, mode="FP64", n_tiles=4)
        assert decision.chosen.n_tiles >= 4

    def test_no_target_keeps_mode_and_exact_precalc(self):
        for mode in MODES:
            decision = AutoTuner().tune(200, 200, 2, 16, mode=mode)
            assert decision.chosen.mode == PrecisionMode.parse(mode)
            assert decision.chosen.precalc_strategy == "exact"
            assert not decision.mode_changed
            assert len(decision.candidates) == 1

    def test_explain_mentions_candidates_and_roofline(self):
        decision = AutoTuner().tune(256, 256, 4, 32, mode="FP16")
        report = decision.explain()
        assert "roofline" in report
        assert "dist_calc" in report
        assert "chosen:" in report
        assert "occupancy" in report

    def test_explain_busy_is_the_modelled_clock(self):
        from repro.gpu.perfmodel import single_tile_timing
        from repro.reporting import format_seconds

        policy = policy_for("FP16")
        decision = AutoTuner().tune(1024, 1024, 4, 64, mode="FP16")
        timing = single_tile_timing(
            1024, 1024, 4, 64, "A100", policy.itemsize,
            precalc_itemsize=policy.precalc.itemsize,
        )
        report = decision.explain()
        for name, kernel in timing.kernels.items():
            line = next(ln for ln in report.splitlines() if ln.startswith(name))
            assert format_seconds(kernel.busy) in line
        assert format_seconds(timing.compute_total) in report

    def test_config_carries_chosen_knobs(self):
        decision = AutoTuner().tune(300, 300, 2, 24, mode="FP32")
        cfg = decision.config
        assert cfg.parallel_workers == 1
        assert cfg.n_tiles == decision.chosen.n_tiles
        assert cfg.mode == PrecisionMode.FP32


class TestErrorTargetTier:
    def test_tight_target_forces_wide_mode(self):
        decision = AutoTuner().tune(400, 400, 2, 64, mode="FP16",
                                    target_error=1e-10)
        assert decision.chosen.mode == PrecisionMode.FP64
        assert decision.chosen.error_bound <= 1e-10

    def test_infeasible_modes_rejected_with_reason(self):
        decision = AutoTuner().tune(400, 400, 2, 64, mode="FP16",
                                    target_error=1e-10)
        rejected = [c for c in decision.candidates if c.rejected]
        assert rejected
        assert all(c.note for c in rejected)
        assert any(c.mode == PrecisionMode.FP16 for c in rejected)

    def test_loose_target_admits_fft_candidates(self):
        decision = AutoTuner().tune(400, 400, 2, 64, mode="FP32",
                                    target_error=0.1)
        strategies = {
            c.precalc_strategy for c in decision.candidates if not c.rejected
        }
        assert "fft" in strategies

    def test_bound_respected_by_every_viable_candidate(self):
        target = 1e-4
        decision = AutoTuner().tune(300, 300, 2, 32, mode="FP64",
                                    target_error=target)
        for c in decision.candidates:
            if not c.rejected:
                assert c.error_bound <= target

    def test_impossible_target_falls_back_to_requested_mode(self):
        decision = AutoTuner().tune(5000, 5000, 2, 64, mode="FP64",
                                    target_error=1e-30)
        assert decision.chosen.mode == PrecisionMode.FP64
        assert math.isfinite(decision.chosen.predicted_seconds)

    @pytest.mark.parametrize("target", (1e-1, 1e-3, 1e-6))
    def test_measured_error_within_target(self, target):
        ts = _series(330, 2, seed=3)
        ref = matrix_profile(ts, m=32).profile
        result = matrix_profile(ts, m=32, mode="FP16", target_error=target)
        err = np.abs(implied_correlation(result.profile.astype(np.float64), 32)
                     - implied_correlation(ref, 32))
        assert err.max() <= target


# ---------------------------------------------------------------------------
# Pinned decisions.  Generated from the previous tuner with its grid
# restricted to 32-row super-steps and one worker (what the cost table
# prices).  Columns: n_r, n_q, d, m, target, requested mode,
# self-join, caller tiles -> mode, backend, symmetric, tiles, precalc.

DECISIONS = [
    (4096, 4096, 8, 16, 1e-1, "FP64", True, 16, "Mixed", "tensor_core", True, 16, "exact"),  # tc
    (4096, 4096, 8, 16, 1e-1, "FP16", True, 16, "Mixed", "tensor_core", True, 16, "exact"),  # tc
    (4096, 4096, 8, 64, 1e-1, "FP64", True, 16, "Mixed", "tensor_core", True, 16, "exact"),  # tc
    (4096, 4096, 8, 64, 1e-1, "FP16", True, 16, "Mixed", "tensor_core", True, 16, "exact"),  # tc
    (300, 300, 1, 16, 1e-1, "FP64", True, 16, "FP32", "numeric", True, 16, "exact"),  # sym
    (300, 300, 4, 64, 1e-2, "FP64", True, 16, "FP32", "numeric", True, 16, "fft"),  # sym
    (1000, 1000, 1, 16, 1e-3, "FP64", True, 16, "FP32", "numeric", True, 16, "exact"),  # sym
    (1000, 1000, 4, 64, 1e-4, "FP64", True, 16, "FP32", "numeric", True, 16, "fft"),  # sym
    (2048, 2048, 1, 16, 1e-3, "FP64", True, 16, "FP32", "numeric", True, 16, "exact"),  # sym
    (2048, 2048, 4, 64, 1e-3, "FP64", True, 16, "FP32", "numeric", True, 16, "fft"),  # sym
    (4096, 4096, 1, 16, 1e-1, "FP64", True, 16, "FP32", "numeric", True, 16, "exact"),  # sym
    (4096, 4096, 4, 64, 1e-1, "FP64", True, 16, "FP32", "numeric", True, 16, "fft"),  # sym
    (300, 300, 1, 64, 1e-1, "FP64", True, None, "FP32", "numeric", False, 1, "fft"),  # fft
    (300, 300, 4, 64, 1e-3, "FP32", True, None, "FP32", "numeric", False, 1, "fft"),  # fft
    (300, 300, 8, 64, 1e-5, "FP16", True, None, "FP64", "numeric", False, 1, "fft"),  # fft
    (1000, 1000, 4, 64, 1e-2, "Mixed", True, None, "FP32", "numeric", False, 1, "fft"),  # fft
    (1000, 507, 8, 64, 1e-5, "FP32", False, None, "FP64", "numeric", False, 1, "fft"),  # fft
    (2048, 1031, 4, 64, 1e-2, "FP16", False, None, "FP32", "numeric", False, 1, "fft"),  # fft
    (2048, 2048, 8, 64, 1e-5, "FP16", True, None, "FP64", "numeric", False, 1, "fft"),  # fft
    (4096, 4096, 4, 64, 1e-2, "Mixed", True, None, "FP32", "numeric", False, 1, "fft"),  # fft
    (300, 300, 1, 16, 1e-4, "FP64", True, None, "FP32", "numeric", False, 1, "exact"),  # tight
    (300, 300, 4, 16, 1e-4, "Mixed", True, None, "FP32", "numeric", False, 1, "exact"),  # tight
    (300, 300, 8, 16, 1e-5, "FP16", True, None, "FP64", "numeric", False, 1, "exact"),  # tight
    (1000, 1000, 4, 16, 1e-4, "FP32", True, None, "FP64", "numeric", False, 1, "exact"),  # tight
    (1000, 507, 8, 16, 1e-5, "FP32", False, None, "FP64", "numeric", False, 1, "exact"),  # tight
    (2048, 1031, 4, 16, 1e-4, "FP64", False, 16, "FP64", "numeric", False, 16, "exact"),  # tight
    (2048, 2048, 8, 16, 1e-5, "FP16", True, None, "FP64", "numeric", False, 1, "exact"),  # tight
    (4096, 2055, 4, 16, 1e-4, "FP32", False, 16, "FP64", "numeric", False, 16, "exact"),  # tight
    (300, 300, 1, 16, 1e-1, "FP64", True, None, "FP32", "numeric", False, 1, "exact"),  # loose
    (300, 300, 4, 16, 1e-2, "FP16", True, None, "FP32", "numeric", False, 1, "exact"),  # loose
    (1000, 1000, 1, 16, 1e-1, "FP64", True, None, "FP32", "numeric", False, 1, "exact"),  # loose
    (1000, 1000, 4, 16, 1e-2, "FP16", True, None, "FP32", "numeric", False, 1, "exact"),  # loose
    (2048, 2048, 1, 16, 1e-1, "FP64", True, None, "FP32", "numeric", False, 1, "exact"),  # loose
    (2048, 2048, 4, 16, 1e-2, "FP16", True, None, "FP32", "numeric", False, 1, "exact"),  # loose
    (4096, 4096, 1, 16, 1e-1, "FP64", True, None, "FP32", "numeric", False, 1, "exact"),  # loose
    (4096, 4096, 4, 16, 1e-2, "FP16", True, None, "FP32", "numeric", False, 1, "exact"),  # loose
    (5000, 5000, 2, 64, 1e-30, "FP64", True, None, "FP64", "numeric", False, 1, "exact"),  # fallback
    (400, 400, 2, 64, 1e-30, "FP16", True, None, "FP16", "numeric", False, 1, "exact"),  # fallback
    (2048, 1031, 4, 32, 1e-20, "Mixed", False, 16, "Mixed", "numeric", False, 16, "exact"),  # fallback
    (1000, 1000, 8, 16, 1e-18, "FP32", True, 4, "FP32", "numeric", False, 4, "exact"),  # fallback
    (4096, 4096, 8, 32, 5e-2, "Mixed", True, None, "FP32", "numeric", False, 1, "exact"),  # tc rescue
    (4096, 2055, 8, 32, 5e-2, "Mixed", False, None, "FP32", "numeric", False, 1, "exact"),  # tc rescue
    (8192, 8192, 8, 32, 5e-2, "Mixed", True, None, "FP32", "numeric", False, 1, "exact"),  # tc rescue
    (4096, 4096, 16, 32, 1e-1, "FP16C", True, 4, "Mixed", "tensor_core", True, 4, "exact"),  # tc
    (6000, 6000, 8, 64, 2e-1, "FP64", True, None, "Mixed", "tensor_core", False, 1, "exact"),  # tc
    (4096, 4096, 8, 16, 1e-1, "FP32", False, 16, "Mixed", "tensor_core", False, 16, "exact"),  # tc
    (400, 400, 2, 64, 1e-10, "FP16", True, None, "FP64", "numeric", False, 1, "fft"),  # tight
    (300, 300, 2, 32, 1e-4, "FP64", True, None, "FP32", "numeric", False, 1, "exact"),  # tight
]


class TestPinnedDecisions:
    @pytest.mark.parametrize("case", DECISIONS, ids=lambda c: "-".join(map(str, c[:8])))
    def test_matches_pinned_choice(self, case):
        n_r, n_q, d, m, target, mode, self_join, n_tiles, *expected = case
        chosen = AutoTuner().tune(
            n_r, n_q, d, m, mode=mode, self_join=self_join,
            target_error=target, n_tiles=n_tiles,
        ).chosen
        assert [
            chosen.mode.value, chosen.backend, chosen.symmetric_tiles,
            chosen.n_tiles, chosen.precalc_strategy,
        ] == expected


class TestRowBlockFor:
    """The shapes the retired ``row_block_for`` was tuned on keep their
    large super-steps under the one element budget."""

    @pytest.mark.parametrize("n_samples", (384, 385, 386, 387))
    @pytest.mark.parametrize("m", (32, 48))
    @pytest.mark.parametrize("n_tiles", (1, 4))
    @pytest.mark.parametrize("mode", ("FP64", "FP32", "Mixed", "FP16"))
    def test_service_mixed_shapes_get_128(self, monkeypatch, n_samples, m, n_tiles,
                                          mode):
        # row_block_for gave every service_mixed job 128-row blocks.  The
        # budget gives single tiles 122-129 rows, and a 4-tile job's
        # stack at most the block one of its tiles takes alone — the
        # whole tile in one super-step — spread over its tiles.
        steps = []
        original = backends.super_step_rows

        def recording(*args):
            steps.append((*args, original(*args)))
            return steps[-1][-1]

        monkeypatch.setattr(backends, "super_step_rows", recording)
        MatrixProfileService(n_gpus=1, n_workers=1, use_cache=False).submit_and_wait(
            JobRequest(reference=_series(n_samples, 3), m=m, mode=mode,
                       n_tiles=n_tiles))
        assert steps
        for tile_rows, width, planes, tiles, rows in steps:
            assert planes == 3
            assert rows * planes * tiles * width <= backends.SUPER_STEP_ELEMENTS
            if n_tiles == 1:
                assert tiles == 1 and abs(rows - 128) <= 128 // 16
            else:
                assert tile_rows > 128
                assert rows == max(1, tile_rows // tiles)

    def test_spill_budget(self):
        # 4 planes x 8 rows x 4096 cols = 2**17 elements: a wide tile's
        # step stops at the budget, far short of 128 rows.
        assert backends.super_step_rows(4096, 4096, 4) == 8
        assert backends.super_step_rows(4096, 4096, 3) == 10
        assert 4 * 8 * 4096 == backends.SUPER_STEP_ELEMENTS


# ---------------------------------------------------------------------------
# Layer wiring: service and streams


class TestServiceWiring:
    def test_service_output_unchanged_by_tuning(self):
        ts = _series(180, 3, seed=9)
        out = MatrixProfileService(
            n_gpus=1, n_workers=1
        ).submit_and_wait(JobRequest(reference=ts, m=20, mode="FP16"))
        base = matrix_profile(ts, m=20, mode="FP16", n_tiles=out.tiles_total)
        assert np.array_equal(out.result.profile, base.profile, equal_nan=True)
        assert np.array_equal(out.result.index, base.index)


class TestStreamTargetError:
    """A tenant's ``target_error`` alone drives its band modes."""

    #: Per-band modes the previous tuner picked for this tenant with its
    #: separate ``autotune`` flag set (without it every band ran FP64).
    EXPECTED = {
        5e-2: ["FP32"] * 8,
        1e-3: ["FP32"] * 8,
        1e-6: ["FP64"] * 8,
    }

    def _drive(self, target):
        svc = StreamIngestService(n_gpus=1, n_workers=1)
        data = _series(400, 2, seed=11)
        svc.register("t", TenantPolicy(m=16, mode="FP64", target_error=target),
                     initial=data[:80])
        modes = [
            svc.ingest("t", data[i:i + 40]).mode.value for i in range(80, 400, 40)
        ]
        return svc, modes

    @pytest.mark.parametrize("target", sorted(EXPECTED))
    def test_band_modes_follow_target(self, target):
        svc, modes = self._drive(target)
        assert modes == self.EXPECTED[target]
        reference, _ = self._drive(None)[0].profile("t")
        profile, _ = svc.profile("t")
        err = np.abs(implied_correlation(profile.astype(np.float64), 16)
                     - implied_correlation(reference, 16))
        assert np.nanmax(err) <= target

