"""The engine dispatch loop: placement, retry, deadlines, observers.

Covers the production behaviours the service relies on — retry-on-a-
different-device up to exhaustion, anytime deadline cancellation with a
valid partial merge — through the engine's observer hooks, plus the
round-robin placement regression: the all-excluded fallback must advance
the cursor instead of pinning one GPU.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.engine import (
    ExecutionPolicy,
    JobSpec,
    NumericBackend,
    ProfileAccumulator,
    RoundRobinPlacement,
    TileObserver,
    TileRetryExhaustedError,
    TransientDeviceError,
    execute_plan,
)
from repro.gpu.device import A100
from repro.gpu.memory import DeviceOutOfMemoryError
from repro.gpu.simulator import GPUSimulator
from repro.service.scheduler import TileScheduler


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class Recorder(TileObserver):
    def __init__(self):
        self.starts = []
        self.completes = []
        self.retries = []
        self.deadline_remaining = None

    def on_tile_start(self, tile, gpu_id, attempt):
        self.starts.append((tile.tile_id, gpu_id, attempt))

    def on_tile_complete(self, tile, gpu_id, execution):
        self.completes.append((tile.tile_id, gpu_id))

    def on_tile_retry(self, tile, gpu_id, attempt, error):
        self.retries.append((tile.tile_id, gpu_id, attempt))

    def on_deadline(self, remaining):
        self.deadline_remaining = [t.tile_id for t in remaining]


@pytest.fixture
def plan_and_sim(rng):
    ref = rng.normal(size=(200, 2))
    config = RunConfig(n_tiles=4, n_gpus=2)
    spec = JobSpec.from_arrays(ref, None, 24, config)
    plan = spec.plan()
    sim = GPUSimulator(config.device, config.n_gpus, config.n_streams)
    return spec, plan, sim


class TestRoundRobinPlacement:
    def test_skips_excluded_devices(self):
        placement = RoundRobinPlacement(2)
        assert [placement.pick(None, {0}) for _ in range(3)] == [1, 1, 1]

    def test_all_excluded_fallback_rotates(self):
        # Regression: the old scheduler's fallback returned the cursor
        # without advancing it, pinning every fallback pick to one GPU.
        placement = RoundRobinPlacement(3)
        excluded = {0, 1, 2}
        picks = [placement.pick(None, excluded) for _ in range(3)]
        assert sorted(picks) == [0, 1, 2]

    def test_scheduler_pick_gpu_fallback_rotates(self):
        sim = GPUSimulator("A100", n_gpus=2)
        scheduler = TileScheduler(sim)
        picks = {scheduler._placement.pick(None, {0, 1}) for _ in range(2)}
        assert picks == {0, 1}

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError, match="n_gpus"):
            RoundRobinPlacement(0)


class TestRetry:
    def test_retry_runs_on_a_different_gpu(self, plan_and_sim):
        spec, plan, sim = plan_and_sim

        def injector(label, tile, gpu_id, attempt):
            if tile.tile_id == 1 and attempt == 0:
                raise TransientDeviceError("injected")

        recorder = Recorder()
        acc = ProfileAccumulator(spec.d, spec.n_q_seg, spec.policy)
        report = execute_plan(
            plan,
            NumericBackend(),
            sim,
            accumulator=acc,
            placement=RoundRobinPlacement(sim.n_gpus),
            observers=[recorder],
            policy=ExecutionPolicy(
                max_retries=2, fault_plan=SimpleNamespace(injector=injector)
            ),
        )
        assert report.tiles_completed == 4
        assert report.tile_retries == 1
        (failed,) = [s for s in recorder.starts if s[0] == 1 and s[2] == 0]
        (retried,) = [s for s in recorder.starts if s[0] == 1 and s[2] == 1]
        assert retried[1] != failed[1]  # different device on attempt 1
        assert recorder.retries == [(1, failed[1], 0)]

    def test_retry_exhaustion_raises(self, plan_and_sim):
        spec, plan, sim = plan_and_sim

        def injector(label, tile, gpu_id, attempt):
            if tile.tile_id == 2:
                raise TransientDeviceError("always down")

        recorder = Recorder()
        with pytest.raises(TileRetryExhaustedError) as excinfo:
            execute_plan(
                plan,
                NumericBackend(),
                sim,
                placement=RoundRobinPlacement(sim.n_gpus),
                observers=[recorder],
                policy=ExecutionPolicy(
                    max_retries=1, fault_plan=SimpleNamespace(injector=injector)
                ),
            )
        assert excinfo.value.tile_id == 2
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.last, TransientDeviceError)
        # One retry observed (attempt 0 -> 1); attempt 1 exhausted.
        assert recorder.retries == [(2, recorder.retries[0][1], 0)]

    def test_negative_max_retries_rejected(self, plan_and_sim):
        with pytest.raises(ValueError, match="max_retries"):
            ExecutionPolicy(max_retries=-1)


class TestDeadline:
    def test_deadline_partial_merge_is_upper_bound(self, rng):
        ref = rng.normal(size=(200, 2))
        config = RunConfig(n_tiles=4, n_gpus=2)
        spec = JobSpec.from_arrays(ref, None, 24, config)
        clock = FakeClock()

        def tick(label, tile, gpu_id, attempt):
            clock.t += 1.0

        recorder = Recorder()
        acc = ProfileAccumulator(spec.d, spec.n_q_seg, spec.policy)
        sim = GPUSimulator(config.device, config.n_gpus, config.n_streams)
        report = execute_plan(
            spec.plan(),
            NumericBackend(),
            sim,
            accumulator=acc,
            observers=[recorder],
            deadline_at=2.5,
            clock=clock,
            policy=ExecutionPolicy(fault_plan=SimpleNamespace(injector=tick)),
        )
        assert report.deadline_hit
        assert report.partial
        assert report.tiles_completed == 3
        assert recorder.deadline_remaining == [3]
        assert [c[0] for c in recorder.completes] == [0, 1, 2]
        # The partial merge is a valid upper bound of the exact profile.
        exact = compute_multi_tile(ref, None, 24, config)
        partial = acc.host_profile()
        assert np.all(partial >= exact.profile - 1e-12)
        # Columns only tile 3 could improve stay upper bounds; columns
        # covered by completed tiles are already exact.
        covered = np.zeros(spec.n_q_seg, dtype=bool)
        for tile in spec.plan().tiles[:2]:  # tiles 0, 1 span all columns
            covered[tile.col_start : tile.col_stop] = True
        assert covered.all()

    def test_deadline_before_any_tile_completes(self, plan_and_sim):
        # Already past the deadline at dispatch time: nothing executes,
        # observers see the *full* tile list abandoned, and the merge is
        # the accumulator's identity — every column parked at the dtype
        # limit with index -1 (a trivially valid upper bound).
        spec, plan, sim = plan_and_sim
        clock = FakeClock()
        clock.t = 1.0
        recorder = Recorder()
        acc = ProfileAccumulator(spec.d, spec.n_q_seg, spec.policy)
        report = execute_plan(
            plan,
            NumericBackend(),
            sim,
            accumulator=acc,
            observers=[recorder],
            deadline_at=0.5,
            clock=clock,
        )
        assert report.deadline_hit
        assert report.partial
        assert report.tiles_completed == 0
        assert recorder.starts == [] and recorder.completes == []
        assert recorder.deadline_remaining == [t.tile_id for t in plan.tiles]
        profile = acc.host_profile()
        limit = np.finfo(profile.dtype).max
        assert (profile == limit).all()
        assert (acc.host_index() == -1).all()

    def test_no_deadline_completes_everything(self, plan_and_sim):
        spec, plan, sim = plan_and_sim
        recorder = Recorder()
        report = execute_plan(
            plan, NumericBackend(), sim, observers=[recorder]
        )
        assert not report.deadline_hit
        assert not report.partial
        assert report.tiles_completed == 4
        assert recorder.deadline_remaining is None


class TestBackendCleanup:
    def test_oom_mid_tile_frees_partial_allocations(self, rng):
        # The workspace reservation OOMs after both uploads succeeded;
        # the context-managed backend must release them on the way out.
        tiny = replace(A100, mem_capacity=64 * 1024)
        ref = rng.normal(size=(900, 4))
        config = RunConfig(device=tiny)
        spec = JobSpec.from_arrays(ref, None, 32, config)
        sim = GPUSimulator(tiny, n_gpus=1)
        with pytest.raises(DeviceOutOfMemoryError):
            execute_plan(spec.plan(n_tiles=1, n_gpus=1), NumericBackend(), sim)
        assert sim.gpus[0].memory.in_use == 0

    def test_static_placement_follows_plan_assignment(self, plan_and_sim):
        spec, plan, sim = plan_and_sim
        recorder = Recorder()
        execute_plan(plan, NumericBackend(), sim, observers=[recorder])
        assert [gpu for _, gpu, _ in recorder.starts] == plan.assignment
