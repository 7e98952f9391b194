"""Tensor-core execution path: kernel parity, fused sort, backend routing,
fixed panel height, escalation composition and the planner's backend
axis."""

import numpy as np
import pytest

from repro.autotune import AutoTuner
from repro.autotune.planner import predicted_seconds
from repro.core.api import matrix_profile
from repro.baselines.brute_force import znormalized_distance_matrix
from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.core.single_tile import compute_single_tile
from repro.engine import backends
from repro.engine.backends import (
    NumericBackend,
    TensorCoreBackend,
    backend_for,
    run_tile,
)
from repro.engine.faults import FaultPlan
from repro.engine.health import HealthPolicy
from repro.gpu.device import SKYLAKE16
from repro.gpu.occupancy import launch_for_full_occupancy
from repro.kernels.layout import to_device_layout
from repro.kernels.sort_scan import _batcher_pairs
from repro.kernels.tc_gemm import TcGemmKernel
from repro.kernels.update import UpdateKernel
from repro.precision.errors import tc_gemm_error_bound
from repro.precision.modes import TENSOR_CORE_MODES, PrecisionMode, policy_for

from .precalc_oracle import PrecalcKernel, kernel_precalc

N_SEG = 96
D = 4
M = 16
BLOCK = 32
LAUNCH = launch_for_full_occupancy("a100")


def _series(seed, length, d=D):
    rng = np.random.default_rng(seed)
    t = np.arange(length)[:, None]
    base = np.sin(2 * np.pi * t / (7.0 + np.arange(d)[None, :]))
    return base + 0.35 * rng.standard_normal((length, d))


def _tc_corr_error(mode, ser_r, ser_q):
    """Max |corr - FP64 oracle| of the tensor-core dist_calc output."""
    policy = policy_for(mode)
    tr = to_device_layout(ser_r, policy.storage)
    tq = to_device_layout(ser_q, policy.storage)
    n_r = tr.shape[1] - M + 1
    ref = znormalized_distance_matrix(ser_r, ser_q, M)
    ref_corr = 1.0 - ref.transpose(2, 0, 1) ** 2 / (2.0 * M)
    dist = TcGemmKernel(config=LAUNCH, policy=policy)
    dist.bind(PrecalcKernel(config=LAUNCH, policy=policy).run(tr, tq, M))
    err = 0.0
    for i0 in range(0, n_r, BLOCK):
        b = min(BLOCK, n_r - i0)
        blk = dist.run_block(i0, b, None).astype(np.float64)
        corr = 1.0 - blk**2 / (2.0 * M)
        err = max(err, float(np.nanmax(np.abs(corr - ref_corr[:, i0:i0 + b]))))
    return err, dist


# ---------------------------------------------------------------------------
# Kernel parity against the brute-force oracle


class TestTcGemmParity:
    @pytest.mark.parametrize("mode", ["Mixed", "FP16C"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_self_join_within_bound(self, mode, seed):
        ser = _series(seed, N_SEG + M - 1)
        err, _ = _tc_corr_error(mode, ser, ser)
        assert err <= tc_gemm_error_bound(N_SEG, M, mode, panel_rows=BLOCK)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ab_join_within_bound(self, seed):
        ser_r = _series(seed, N_SEG + M - 1)
        ser_q = _series(seed + 100, N_SEG + M - 1)
        err, _ = _tc_corr_error("Mixed", ser_r, ser_q)
        assert err <= tc_gemm_error_bound(N_SEG, M, "Mixed", panel_rows=BLOCK)

    def test_cost_record_marks_tensor_core(self):
        policy = policy_for("Mixed")
        tr = to_device_layout(_series(3, N_SEG + M - 1), policy.storage)
        out = run_tile(tr, tr, M, policy, LAUNCH, main_loop="tensor_core",
                       precalc=kernel_precalc(tr, tr, M, policy, LAUNCH))
        cost = out.costs["dist_calc"]
        assert cost.tensor_core
        # One modelled launch per super-step panel, not per row.
        assert cost.launches == -(-N_SEG // BLOCK)

    @pytest.mark.parametrize("mode", ["FP64", "FP32", "FP16"])
    def test_rejects_non_tc_modes(self, mode):
        policy = policy_for(mode)
        ser = _series(0, N_SEG + M - 1)
        tr = to_device_layout(ser, policy.storage)
        kern = TcGemmKernel(config=LAUNCH, policy=policy)
        pre = PrecalcKernel(config=LAUNCH, policy=policy).run(tr, tr, M)
        with pytest.raises(ValueError, match="tensor-core"):
            kern.bind(pre)


class TestQuantiseF16:
    def test_matches_astype_roundtrip(self):
        rng = np.random.default_rng(0)
        # Normals, subnormal-landing products, overflow, inf/nan, zeros.
        vals = np.concatenate([
            rng.standard_normal(4096),
            rng.standard_normal(4096) * 2.0**-20,
            rng.standard_normal(16) * 1e6,
            [np.inf, -np.inf, np.nan, 0.0, -0.0, 65504.0, -65504.0, 65520.0],
        ]).astype(np.float32)
        buf = vals.copy().reshape(1, -1)
        kern = TcGemmKernel(config=LAUNCH, policy=policy_for("Mixed"))
        kern._quantise_f16(buf)
        with np.errstate(over="ignore"):
            ref = vals.astype(np.float16).astype(np.float32)
        # Bit-exact, the sign of zero and NaN payloads included.
        assert np.array_equal(buf.ravel().view(np.uint32), ref.view(np.uint32))


class TestBatcherNetwork:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_zero_one_principle_exhaustive(self, d):
        pairs = _batcher_pairs(d)
        for bits in range(2**d):
            a = np.array([(bits >> i) & 1 for i in range(d)], dtype=np.float32)
            for i, j in pairs:
                if a[i] > a[j]:
                    a[i], a[j] = a[j], a[i]
            assert (np.diff(a) >= 0).all(), (d, bits)

    @pytest.mark.parametrize("d", [10, 13, 16])
    def test_sorts_random_inputs(self, d):
        rng = np.random.default_rng(d)
        pairs = _batcher_pairs(d)
        for _ in range(50):
            a = rng.standard_normal(d).astype(np.float32)
            ref = np.sort(a)
            for i, j in pairs:
                if a[i] > a[j]:
                    a[i], a[j] = a[j], a[i]
            assert np.array_equal(a, ref)


# ---------------------------------------------------------------------------
# Reduce-before-narrow update path


class TestUpdateWideBlock:
    def _blocks(self, seed=0, d=3, b=8, n_q=40):
        rng = np.random.default_rng(seed)
        # f16-representable values so wide and narrow reductions agree
        # bit-for-bit (the wide path's win on non-representable values is
        # covered by the oracle parity tests).
        narrow = np.abs(rng.standard_normal((d, b, n_q))).astype(np.float16)
        return narrow.astype(np.float32), narrow

    @pytest.mark.parametrize("masked", [False, True])
    def test_wide_block_matches_narrow(self, masked):
        wide, narrow = self._blocks()
        d, b, n_q = wide.shape
        policy = policy_for("Mixed")
        mask = None
        if masked:
            cols = np.arange(n_q)
            mask = np.abs(cols[None, :] - np.arange(b)[:, None]) <= 4
        k_w = UpdateKernel(config=LAUNCH, policy=policy)
        k_n = UpdateKernel(config=LAUNCH, policy=policy)
        k_w.allocate(d, n_q)
        k_n.allocate(d, n_q)
        k_w.run_block(wide, 0, mask=mask)
        k_n.run_block(narrow, 0, mask=mask)
        assert k_w.profile.dtype == policy.storage
        assert np.array_equal(
            k_w.profile.view(np.uint8), k_n.profile.view(np.uint8)
        )
        assert np.array_equal(k_w.indices, k_n.indices)

    def test_wide_block_input_not_aliased_into_profile(self):
        wide, _ = self._blocks(seed=1)
        policy = policy_for("Mixed")
        kern = UpdateKernel(config=LAUNCH, policy=policy)
        kern.allocate(*wide.shape[::2])
        kern.run_block(wide, 0)
        assert kern.profile.dtype == np.float16


# ---------------------------------------------------------------------------
# Backend routing and config plumbing


class TestBackendRouting:
    def test_tensor_core_honoured_for_tc_modes(self):
        for mode in TENSOR_CORE_MODES:
            cfg = RunConfig(mode=mode, backend="tensor_core")
            backend, reason = backend_for(cfg)
            assert isinstance(backend, TensorCoreBackend)
            assert reason is None

    @pytest.mark.parametrize("mode", ["FP64", "FP32", "FP16"])
    def test_non_tc_mode_falls_back_with_reason(self, mode):
        cfg = RunConfig(mode=mode, backend="tensor_core")
        backend, reason = backend_for(cfg)
        assert type(backend) is NumericBackend
        assert "no tensor-core formulation" in reason

    def test_device_without_tensor_cores_falls_back(self):
        cfg = RunConfig(
            mode="Mixed", device="skylake16", backend="tensor_core"
        )
        backend, reason = backend_for(cfg)
        assert type(backend) is NumericBackend
        assert "no tensor cores" in reason

    def test_numeric_request_never_reports_fallback(self):
        backend, reason = backend_for(RunConfig(mode="FP64"))
        assert type(backend) is NumericBackend
        assert reason is None

    def test_run_tile_rejects_tc_for_ineligible_mode(self):
        policy = policy_for("FP32")
        tr = to_device_layout(_series(0, 64 + M - 1), policy.storage)
        with pytest.raises(ValueError, match="tensor-core main loop"):
            run_tile(tr, tr, M, policy, LAUNCH, main_loop="tensor_core",
                     precalc=kernel_precalc(tr, tr, M, policy, LAUNCH))

    def test_single_tile_records_backend(self):
        ser = _series(5, 120)
        res = compute_single_tile(
            ser, None, M, RunConfig(mode="Mixed", backend="tensor_core")
        )
        assert res.backend == "tensor_core"
        assert res.backend_fallback_reason is None
        assert np.isfinite(res.profile).all()

    def test_single_tile_records_fallback_reason(self):
        ser = _series(5, 120)
        res = compute_single_tile(
            ser, None, M, RunConfig(mode="FP64", backend="tensor_core")
        )
        assert res.backend == "numeric"
        assert "no tensor-core formulation" in res.backend_fallback_reason

    def test_multi_tile_records_backend(self):
        ser = _series(6, 260)
        res = compute_multi_tile(
            ser, None, M, RunConfig(mode="Mixed", n_tiles=2,
                                    backend="tensor_core")
        )
        assert res.backend == "tensor_core"
        assert res.backend_fallback_reason is None
        assert np.isfinite(res.profile).all()
        assert (res.index >= 0).all()


class TestRunConfigBackend:
    def test_round_trip(self):
        cfg = RunConfig(mode="Mixed", backend="tensor_core")
        clone = RunConfig.from_dict(cfg.to_dict())
        assert clone.backend == "tensor_core"
        assert clone.cache_key() == cfg.cache_key()

    def test_backend_is_numerics_visible_in_cache_key(self):
        vec = RunConfig(mode="Mixed")
        tc = RunConfig(mode="Mixed", backend="tensor_core")
        assert vec.cache_key() != tc.cache_key()

    def test_default_backend_is_numeric(self):
        assert RunConfig().backend == "numeric"
        assert RunConfig.from_dict(RunConfig().to_dict()).backend == "numeric"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            RunConfig(backend="wmma")


class TestEscalationComposition:
    def test_escalated_tile_leaves_tc_path(self):
        # A corrupted Mixed tile escalates to FP32, which has no
        # tensor-core formulation: the re-execution silently takes the
        # vector main loop while the job keeps its tensor-core backend.
        rng = np.random.default_rng(9)
        series = rng.normal(size=(260, 2)).cumsum(axis=0)
        series /= np.abs(series).max()
        res = compute_multi_tile(
            series, None, 16,
            RunConfig(mode="Mixed", n_tiles=2, backend="tensor_core"),
            health=HealthPolicy(),
            fault_plan=FaultPlan(seed=11, corrupt_rate=1.0),
        )
        assert res.backend == "tensor_core"
        assert set(res.escalations.values()) == {PrecisionMode.FP32}
        assert np.isfinite(res.profile).all()
        assert (res.index >= 0).all()


# ---------------------------------------------------------------------------
# The panel height is fixed: the host super-step budget cannot change
# tensor-core bytes


class TestPanelHeight:
    """The vector path's super-step budget is outside ``cache_key()``, so
    it must not move the tensor-core output: the panel runs at
    ``TC_PANEL_ROWS`` whatever the budget."""

    @pytest.fixture(scope="class")
    def walks(self):
        rng = np.random.default_rng(3)
        return (
            rng.standard_normal((600, 4)).cumsum(axis=0),
            rng.standard_normal((450, 4)).cumsum(axis=0),
        )

    @pytest.mark.parametrize("mode", [m.value for m in TENSOR_CORE_MODES])
    @pytest.mark.parametrize("ab", [False, True], ids=["self", "ab"])
    def test_super_step_budget_is_bit_exact(self, walks, mode, ab, monkeypatch):
        ref, qry = walks[0], walks[1] if ab else None
        outs = []
        for budget in (backends.SUPER_STEP_ELEMENTS, 0, 7 * 4 * 585, 1 << 40):
            monkeypatch.setattr(backends, "SUPER_STEP_ELEMENTS", budget)
            outs.append(matrix_profile(ref, qry, m=16, mode=mode,
                                       backend="tensor_core"))
        assert outs[0].backend == "tensor_core"
        for out in outs[1:]:
            np.testing.assert_array_equal(out.profile, outs[0].profile)
            np.testing.assert_array_equal(out.index, outs[0].index)

    @pytest.mark.parametrize("mode", [m.value for m in TENSOR_CORE_MODES])
    def test_auto_matches_default(self, walks, mode):
        base = matrix_profile(walks[0], m=16, mode=mode, backend="tensor_core")
        auto = matrix_profile(walks[0], m=16, mode=mode, backend="tensor_core",
                              auto=True)
        np.testing.assert_array_equal(auto.profile, base.profile)
        np.testing.assert_array_equal(auto.index, base.index)


# ---------------------------------------------------------------------------
# Planner: backend axis and rescue


class TestAutotunerBackendAxis:
    def test_no_backend_axis_without_target(self):
        decision = AutoTuner().tune(400, 400, 4, 32, mode="Mixed")
        assert all(c.backend == "numeric" for c in decision.candidates)

    def test_backend_axis_under_target(self):
        decision = AutoTuner().tune(
            400, 400, 4, 32, mode="Mixed", target_error=0.1
        )
        tc = [c for c in decision.candidates if c.backend == "tensor_core"]
        assert tc and any(not c.rejected for c in tc)
        # Only the TC-eligible modes grow the axis.
        assert all(c.mode in TENSOR_CORE_MODES for c in tc)

    def test_gated_off_without_tensor_cores(self):
        tuner = AutoTuner()
        tuner.device = SKYLAKE16
        assert tuner._backends(PrecisionMode.MIXED, 0.1) == ("numeric",)

    def test_tc_rescue_when_vector_bound_explodes(self):
        # At this scale the vector Mixed bound needs more tiles than the
        # planner admits, but the per-panel TC bound (32-row panels)
        # stays under the target: the rescue path must still surface
        # viable tensor-core candidates.
        decision = AutoTuner().tune(
            3072, 3072, 8, 32, mode="Mixed", target_error=0.1
        )
        viable_tc = [
            c for c in decision.candidates
            if c.backend == "tensor_core" and not c.rejected
        ]
        viable_vec_mixed = [
            c for c in decision.candidates
            if c.backend == "numeric" and not c.rejected
            and c.mode is PrecisionMode.MIXED
        ]
        assert viable_tc
        assert not viable_vec_mixed

    def test_tc_candidates_rejected_above_target(self):
        decision = AutoTuner().tune(
            8192, 8192, 8, 32, mode="Mixed", target_error=0.05
        )
        tc = [c for c in decision.candidates if c.backend == "tensor_core"]
        assert tc
        assert all(c.rejected for c in tc)
        assert any("tc error bound above target" in (c.note or "") for c in tc)

    def test_tc_pricing_uses_tc_factors(self):
        tiles = [(256, 256, 1, False)]
        vec = predicted_seconds(tiles, 8, 32, PrecisionMode.MIXED, 256, 256)
        tc = predicted_seconds(
            tiles, 8, 32, PrecisionMode.MIXED, 256, 256, backend="tensor_core"
        )
        assert tc != vec
