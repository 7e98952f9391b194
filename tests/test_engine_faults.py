"""Deterministic fault injection and the recovery paths it exercises.

The chaos matrix: storms are reproduced across several seeds and both
placement policies, and every storm must end with zero dropped tiles,
every corrupted tile escalated, and a final profile within the escalated
modes' error scale of the fault-free run.
"""

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.engine import (
    ExecutionPolicy,
    HealthPolicy,
    JobSpec,
    NumericBackend,
    ProfileAccumulator,
    RoundRobinPlacement,
    TransientDeviceError,
    execute_plan,
    tile_key,
)
from repro.engine.faults import FaultPlan
from repro.gpu.memory import DeviceOutOfMemoryError
from repro.gpu.simulator import GPUSimulator


def _series(n=240, d=2, seed=5):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 16.0 * np.pi, n)
    base = np.sin(t)[:, None] * np.linspace(0.5, 1.5, d)
    return base + 0.1 * rng.normal(size=(n, d))


@pytest.fixture
def spec_and_plan():
    config = RunConfig(mode="FP16", n_tiles=9, n_gpus=3)
    spec = JobSpec.from_arrays(_series(), None, 16, config)
    return spec, spec.plan()


class TestDeterminism:
    def test_same_seed_same_storm(self, spec_and_plan):
        spec, plan = spec_and_plan
        draws = [
            FaultPlan(seed=42, corrupt_rate=0.5)._draw("corrupt", t, 0)
            for t in plan.tiles
        ]
        again = [
            FaultPlan(seed=42, corrupt_rate=0.5)._draw("corrupt", t, 0)
            for t in plan.tiles
        ]
        assert draws == again
        other = [
            FaultPlan(seed=43, corrupt_rate=0.5)._draw("corrupt", t, 0)
            for t in plan.tiles
        ]
        assert draws != other

    def test_draw_keyed_by_geometry_not_id(self, spec_and_plan):
        # Splits renumber tile ids; the storm must not move with them.
        spec, plan = spec_and_plan
        tile = plan.tiles[3]
        renumbered = tile.__class__(
            99, tile.row_start, tile.row_stop, tile.col_start, tile.col_stop
        )
        fp = FaultPlan(seed=7)
        assert fp._draw("corrupt", tile, 0) == fp._draw("corrupt", renumbered, 0)

    def test_draws_roughly_uniform(self, spec_and_plan):
        spec, plan = spec_and_plan
        fp = FaultPlan(seed=0)
        draws = [
            fp._draw("transient", t, a)
            for t in plan.tiles
            for a in range(20)
        ]
        assert 0.3 < float(np.mean(draws)) < 0.7


class TestValidation:
    @pytest.mark.parametrize("field", ["transient_rate", "oom_rate", "corrupt_rate"])
    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rates_must_be_probabilities(self, field, rate):
        with pytest.raises(ValueError, match=field):
            FaultPlan(**{field: rate})

    def test_corrupt_count_positive(self):
        with pytest.raises(ValueError, match="corrupt_count"):
            FaultPlan(corrupt_count=0)


class TestInjector:
    def test_oom_draw_raises_oom(self, spec_and_plan):
        spec, plan = spec_and_plan
        fp = FaultPlan(seed=1, oom_rate=1.0)
        with pytest.raises(DeviceOutOfMemoryError):
            fp.injector("job", plan.tiles[0], 0, 0)
        assert fp.event_counts() == {"oom": 1}

    def test_first_attempt_only_lets_retries_through(self, spec_and_plan):
        spec, plan = spec_and_plan
        fp = FaultPlan(seed=1, transient_rate=1.0)
        with pytest.raises(TransientDeviceError):
            fp.injector("job", plan.tiles[0], 0, 0)
        fp.injector("job", plan.tiles[0], 1, 1)  # attempt 1: clean
        assert fp.event_counts() == {"transient": 1}

    def test_sick_gpu_fails_every_attempt(self, spec_and_plan):
        spec, plan = spec_and_plan
        fp = FaultPlan(seed=1, sick_gpus=(2,))
        for attempt in range(3):
            with pytest.raises(TransientDeviceError, match="sick"):
                fp.injector("job", plan.tiles[0], 2, attempt)
        fp.injector("job", plan.tiles[0], 0, 0)  # healthy device: clean
        assert fp.event_counts() == {"sick": 3}


# The chaos matrix: >= 3 seeds x both placement policies.
@pytest.mark.parametrize("placement_kind", ["static", "round-robin"])
@pytest.mark.parametrize("seed", [3, 17, 29])
class TestFaultStorm:
    def _run(self, spec, plan, fault_plan, placement_kind):
        sim = GPUSimulator(
            spec.config.device, spec.config.n_gpus, spec.config.n_streams
        )
        accumulator = ProfileAccumulator(spec.d, spec.n_q_seg, spec.policy)
        placement = (
            RoundRobinPlacement(sim.n_gpus)
            if placement_kind == "round-robin"
            else None  # StaticPlacement from the plan's assignment
        )
        report = execute_plan(
            plan,
            NumericBackend(),
            sim,
            accumulator=accumulator,
            placement=placement,
            policy=ExecutionPolicy(
                health=HealthPolicy(), max_retries=3, fault_plan=fault_plan
            ),
        )
        return report, accumulator

    def test_storm_completes_with_every_corruption_escalated(
        self, seed, placement_kind, spec_and_plan
    ):
        spec, plan = spec_and_plan
        fault_plan = FaultPlan(seed=seed, transient_rate=0.15, corrupt_rate=0.4)
        report, accumulator = self._run(spec, plan, fault_plan, placement_kind)

        # Zero dropped tiles.
        assert report.tiles_completed == report.tiles_total == plan.n_tiles
        assert not report.partial

        # Every corrupted tile escalated, and nothing else did.
        id_of = {tile_key(t): t.tile_id for t in plan.tiles}
        corrupted = {id_of[k] for k in fault_plan.corrupted_tile_keys()}
        assert set(report.escalations) == corrupted
        assert report.health_failures == len(corrupted)

        # The storm was non-trivial for this matrix cell.
        assert fault_plan.events, "storm injected nothing — rates too low"

        # Final profile is sane, FP16-error-close to the fault-free run,
        # and — because escalated tiles compute *wider* than FP16 — no
        # less accurate against the FP64 ground truth than fault-free
        # FP16 itself.
        clean = compute_multi_tile(_series(), None, 16, spec.config)
        exact = compute_multi_tile(
            _series(), None, 16, spec.config.with_(mode="FP64")
        )
        profile = accumulator.host_profile().astype(np.float64)
        assert np.isfinite(profile).all()
        assert (accumulator.host_index() >= 0).all()
        diff = np.abs(profile - clean.profile.astype(np.float64))
        assert float(diff.max()) < 0.5  # FP16 streaming-error scale
        err_storm = np.abs(profile - exact.profile).max()
        err_clean = np.abs(
            clean.profile.astype(np.float64) - exact.profile
        ).max()
        assert err_storm <= err_clean + 0.05

    def test_storm_is_placement_invariant_in_events(
        self, seed, placement_kind, spec_and_plan
    ):
        # The injected corruption set depends only on (seed, geometry) —
        # dispatch order and placement must not change which tiles the
        # storm hits (sick GPUs aside, which are placement-coupled).
        spec, plan = spec_and_plan
        fault_plan = FaultPlan(seed=seed, corrupt_rate=0.4)
        self._run(spec, plan, fault_plan, placement_kind)
        expected = {
            tile_key(t)
            for t in plan.tiles
            if FaultPlan(seed=seed, corrupt_rate=0.4)._draw("corrupt", t, 0) < 0.4
        }
        assert fault_plan.corrupted_tile_keys() == expected


class TestSickGPU:
    def test_round_robin_routes_around_sick_device(self):
        config = RunConfig(mode="FP32", n_tiles=9, n_gpus=3)
        series = _series()
        fault_plan = FaultPlan(seed=1, sick_gpus=(2,))
        result = compute_multi_tile(
            series, None, 16, config,
            health=HealthPolicy(), fault_plan=fault_plan, max_retries=3,
        )
        assert result.n_tiles == 9
        assert np.isfinite(result.profile).all()
        assert fault_plan.event_counts().get("sick", 0) > 0

    def test_all_gpus_sick_exhausts_with_device_trail(self):
        from repro.engine import TileRetryExhaustedError

        config = RunConfig(mode="FP32", n_tiles=4, n_gpus=2)
        series = _series()
        fault_plan = FaultPlan(seed=1, sick_gpus=(0, 1))
        with pytest.raises(TileRetryExhaustedError, match="GPUs tried"):
            compute_multi_tile(
                series, None, 16, config,
                health=HealthPolicy(), fault_plan=fault_plan, max_retries=2,
            )


class TestOOMSplit:
    def test_injected_oom_splits_tile_and_completes(self):
        config = RunConfig(mode="FP32", n_tiles=4, n_gpus=2)
        series = _series()
        fault_plan = FaultPlan(seed=9, oom_rate=0.4)
        clean = compute_multi_tile(series, None, 16, config)
        result = compute_multi_tile(
            series, None, 16, config,
            fault_plan=fault_plan, oom_split=True,
        )
        assert fault_plan.event_counts().get("oom", 0) > 0
        assert result.split_tiles
        # Children re-cover the parent exactly: same profile bits as the
        # unsplit run (same mode, same per-tile restart points per child
        # -- the merge is associative over finer tiles in FP32? No:
        # finer tiles restart the precalc, so only closeness holds).
        assert np.allclose(
            result.profile, clean.profile, atol=1e-3
        )
        assert result.n_tiles > clean.n_tiles

    def test_real_memory_pressure_splits_until_tiles_fit(self):
        # Not injected: a genuinely tiny device OOMs on the planned tile
        # and the engine splits until the children actually fit.
        from dataclasses import replace

        from repro.gpu.device import A100

        tiny = replace(A100, mem_capacity=48 * 1024)
        config = RunConfig(mode="FP32", device=tiny, n_tiles=1)
        series = _series(n=500)
        reference = compute_multi_tile(
            series, None, 16, RunConfig(mode="FP32", n_tiles=1)
        )
        with pytest.raises(DeviceOutOfMemoryError):
            compute_multi_tile(series, None, 16, config)
        result = compute_multi_tile(series, None, 16, config, oom_split=True)
        assert result.split_tiles
        assert result.n_tiles > 1
        assert np.allclose(result.profile, reference.profile, atol=1e-3)

    def test_oom_without_split_propagates(self):
        config = RunConfig(mode="FP32", n_tiles=4, n_gpus=2)
        series = _series()
        fault_plan = FaultPlan(seed=9, oom_rate=1.0)
        with pytest.raises(DeviceOutOfMemoryError):
            compute_multi_tile(series, None, 16, config, fault_plan=fault_plan)
