"""The error-budget planner: bit-identity contract, candidate space,
pinned decisions and wiring."""

import math

import numpy as np
import pytest

from repro.autotune import AutoTuner
from repro.core.api import matrix_profile
from repro.core.config import RunConfig
from repro.core.planner import row_block_for, tile_edges
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
        assert cfg.row_block != RunConfig.row_block
        assert cfg.cache_key() == RunConfig(mode="FP32").cache_key()

    def test_explicit_knobs_override_tuner(self):
        ts = _series(150, 2)
        result = matrix_profile(ts, m=16, auto=True, row_block=1)
        base = matrix_profile(ts, m=16, row_block=1)
        assert np.array_equal(result.profile, base.profile, equal_nan=True)


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

    def test_row_block_clamped_to_tile_rows(self):
        decision = AutoTuner().tune(40, 40, 1, 8, mode="FP64")
        assert decision.config.row_block == 40

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
        assert "row_block" in report
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
        assert cfg.row_block == row_block_for(300, 300, 2, "FP32")
        assert cfg.parallel_workers == 1
        assert cfg.n_tiles == decision.chosen.n_tiles
        assert cfg.mode == PrecisionMode.FP32

    def test_target_runs_at_default_row_block(self):
        decision = AutoTuner().tune(1000, 1000, 2, 32, mode="FP32", target_error=1e-2)
        assert decision.config.row_block == RunConfig.row_block


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
# restricted to row_block 32 and one worker (what every error-target run
# now executes at).  Columns: n_r, n_q, d, m, target, requested mode,
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


# ---------------------------------------------------------------------------
# row_block_for: the closed form of the previous tuner's no-target pick

#: (n, d, mode, requested tiles, row_block) sampled from the previous
#: tuner's no-target choices on square self-joins.
NO_TARGET_PICKS = [
    (64, 1, "FP64", 1, 64),
    (64, 3, "FP32", 4, 32),
    (64, 8, "FP16", 16, 16),
    (128, 1, "Mixed", 100, 13),
    (128, 4, "FP64", 1, 128),
    (128, 16, "FP32", 4, 64),
    (256, 2, "FP16", 16, 64),
    (256, 4, "Mixed", 100, 26),
    (384, 1, "FP64", 1, 128),
    (384, 3, "FP32", 4, 128),
    (384, 8, "FP16", 16, 96),
    (512, 1, "Mixed", 100, 52),
    (512, 4, "FP64", 1, 128),
    (512, 16, "FP32", 4, 128),
    (1024, 2, "FP16", 16, 128),
    (1024, 4, "Mixed", 100, 103),
    (2048, 1, "FP64", 1, 128),
    (2048, 3, "FP32", 4, 128),
    (2048, 8, "FP16", 16, 128),
    (4096, 1, "Mixed", 100, 128),
    (4096, 4, "FP64", 1, 16),
    (4096, 16, "FP32", 16, 32),
    (8192, 2, "FP16", 100, 128),
    (8192, 4, "FP16C", 4, 64),
]


class TestRowBlockFor:
    @pytest.mark.parametrize("n_samples", (384, 385, 386, 387))
    @pytest.mark.parametrize("m", (32, 48))
    @pytest.mark.parametrize("n_tiles", (1, 4))
    @pytest.mark.parametrize("mode", ("FP64", "FP32", "Mixed", "FP16"))
    def test_service_mixed_shapes_get_128(self, n_samples, m, n_tiles, mode):
        n_seg = n_samples - m + 1
        assert row_block_for(*tile_edges(n_seg, n_seg, n_tiles), 3, mode) == 128

    @pytest.mark.parametrize("case", NO_TARGET_PICKS, ids=lambda c: "-".join(map(str, c)))
    def test_matches_previous_no_target_pick(self, case):
        n, d, mode, n_tiles, expected = case
        decision = AutoTuner().tune(
            n, n, d, 16, mode=mode, n_tiles=n_tiles if n_tiles > 1 else None
        )
        assert decision.config.row_block == expected

    def test_spill_budget(self):
        # 4 planes x 128 rows x 4096 cols x d=4 x 8 B = 64 MiB: too big;
        # 16 rows is the largest block within 8 MiB.
        assert row_block_for(4096, 4096, 4, "FP64") == 16
        assert row_block_for(4096, 1 << 21, 1, "FP64") == 1
        assert row_block_for(5, 100, 1, "FP32") == 5


# ---------------------------------------------------------------------------
# Layer wiring: service and streams


class TestServiceWiring:
    def test_every_admitted_job_is_tuned(self, monkeypatch):
        import repro.service.service as service_module

        blocks = []

        def recording(*args):
            blocks.append(row_block_for(*args))
            return blocks[-1]

        monkeypatch.setattr(service_module, "row_block_for", recording)
        svc = MatrixProfileService(n_gpus=1, n_workers=1, use_cache=False)
        ts = _series(387, 3)
        for mode in ("FP64", "Mixed", "FP16"):
            svc.submit_and_wait(JobRequest(reference=ts, m=32, mode=mode, n_tiles=4))
        assert blocks == [128, 128, 128]

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

    def test_bands_keep_policy_row_block(self):
        svc, _ = self._drive(5e-2)
        assert svc.tenant("t").stream.config.row_block == RunConfig.row_block
