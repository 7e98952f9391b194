"""Stacked tile batches: same-shape tiles of a plan run as one main loop.

The dispatcher groups queued tiles by ``(n_rows, n_cols, mirror, mode)``
and the numeric backend runs each group as one stacked main loop over a
tile axis.  Every test here compares a stacked dispatch with the same
plan run in batches of one tile (``stack_limit`` patched to one) or
with the per-row oracle, and asserts that profile, index, every kernel
cost, the modelled time and the merge time are bit-identical — with
retries, OOM splits, health escalations and a journaled crash hitting
tiles inside a batch.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.core.tiling import compute_tile_list
from repro.engine import (
    ExecutionPolicy,
    HealthPolicy,
    JobSpec,
    NumericBackend,
    ProfileAccumulator,
    RunJournal,
    TileObserver,
    TileRetryExhaustedError,
    TransientDeviceError,
    execute_plan,
    resume_plan,
)
from repro.engine import backends
from repro.engine.backends import TensorCoreBackend
from repro.gpu.memory import DeviceOutOfMemoryError
from repro.gpu.simulator import GPUSimulator
from repro.gpu.tracing import export_chrome_trace
from repro.precision.modes import PrecisionMode

from .per_row_oracle import per_row_engine

MODES = ("FP64", "FP32", "FP16", "Mixed", "FP16C")
TC_MODES = ("Mixed", "FP16C")


def _series(n=300, d=3, seed=11):
    rng = np.random.default_rng(seed)
    t = np.arange(n)[:, None]
    base = np.sin(2 * np.pi * t / np.linspace(23.0, 71.0, d))
    return base + 0.2 * rng.normal(size=(n, d))


@pytest.fixture
def stacks(monkeypatch):
    """Tile geometries of every ``run_tile`` call, one tuple per call."""
    calls = []
    original = backends.run_tile

    def spy(tr_dev, *args, **kwargs):
        if tr_dev.ndim == 3:
            calls.append(tuple(zip(kwargs["row_offset"], kwargs["col_offset"])))
        else:
            calls.append(((kwargs["row_offset"], kwargs["col_offset"]),))
        return original(tr_dev, *args, **kwargs)

    monkeypatch.setattr(backends, "run_tile", spy)
    return calls


@pytest.fixture
def wide_cap(monkeypatch):
    """A stack cap wide enough that each same-shape group is one batch,
    so the batch layout the tests describe does not depend on the
    default."""
    monkeypatch.setattr(NumericBackend, "stack_limit", lambda self, plan, tile: 64)


@contextmanager
def batches_of_one(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(NumericBackend, "stack_limit", lambda self, plan, tile: 1)
        yield


def _assert_same(got, want):
    assert got.profile.dtype == want.profile.dtype
    assert got.profile.tobytes() == want.profile.tobytes()
    assert np.array_equal(got.index, want.index)
    assert got.costs == want.costs
    assert got.modeled_time == want.modeled_time
    assert got.merge_time == want.merge_time


def _both(monkeypatch, stacks, run):
    """``run()`` stacked, then in batches of one; both results."""
    stacked = run()
    assert max(len(call) for call in stacks) > 1, "nothing was stacked"
    with batches_of_one(monkeypatch):
        stacks.clear()
        single = run()
    assert max(len(call) for call in stacks) == 1
    return stacked, single


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("ab", [False, True], ids=["self", "ab"])
    @pytest.mark.parametrize("mode", MODES)
    def test_stacked_matches_batches_of_one(self, monkeypatch, stacks, mode, ab, workers):
        x, y = _series(), _series(seed=12)
        config = RunConfig(mode=mode, n_tiles=16, n_gpus=2)

        def run():
            return compute_multi_tile(
                x, y if ab else None, 16, config, parallel_workers=workers
            )

        _assert_same(*_both(monkeypatch, stacks, run))

    @pytest.mark.parametrize("ab", [False, True], ids=["self", "ab"])
    @pytest.mark.parametrize("mode", MODES)
    def test_stacked_matches_per_row_oracle(self, monkeypatch, stacks, mode, ab):
        x, y = _series(n=200), _series(n=200, seed=12)
        config = RunConfig(mode=mode, n_tiles=9, n_gpus=2)
        with per_row_engine():
            oracle = compute_multi_tile(x, y if ab else None, 16, config)
        # Blocks of one row, of seven rows of one 62-wide d = 3 tile
        # (fewer per stacked tile), and of the whole tile.  The stack cap
        # derives from the budget too; the wide cap keeps the small
        # budgets stacking.
        monkeypatch.setattr(NumericBackend, "stack_limit", lambda self, plan, tile: 64)
        for budget in (0, 7 * 3 * 62, 1 << 40):
            monkeypatch.setattr(backends, "SUPER_STEP_ELEMENTS", budget)
            stacks.clear()
            stacked = compute_multi_tile(x, y if ab else None, 16, config)
            assert max(len(call) for call in stacks) > 1
            _assert_same(stacked, oracle)

    @pytest.mark.parametrize("mode", MODES)
    def test_symmetric_mirror_tiles(self, monkeypatch, stacks, mode):
        config = RunConfig(mode=mode, n_tiles=16, symmetric_tiles=True)
        run = lambda: compute_multi_tile(_series(), None, 16, config)
        _assert_same(*_both(monkeypatch, stacks, run))

    def test_symmetric_stacks_mirror_tiles(self, stacks):
        config = RunConfig(mode="FP16", n_tiles=16, symmetric_tiles=True)
        stacked = compute_multi_tile(_series(), None, 16, config)
        # Mirrored tiles (row band before column band) were stacked.
        assert any(len(call) > 1 and call[0][0] < call[0][1] for call in stacks)
        with per_row_engine():
            oracle = compute_multi_tile(_series(), None, 16, config)
        _assert_same(stacked, oracle)

    @pytest.mark.parametrize("mode", MODES)
    def test_tall_tiles_stack_transposed(self, monkeypatch, stacks, mode):
        # 285 x 45 segments in a 4 x 4 grid: ~71 x 11 tiles, which run
        # transposed (1 super-step of query columns instead of 3 of rows).
        x, y = _series(d=2), _series(n=60, d=2, seed=12)
        config = RunConfig(mode=mode, n_tiles=16)
        run = lambda: compute_multi_tile(x, y, 16, config)
        _assert_same(*_both(monkeypatch, stacks, run))
        with per_row_engine():
            oracle = compute_multi_tile(x, y, 16, config)
        _assert_same(run(), oracle)

    @pytest.mark.parametrize("mode", ["FP32", "FP16"])
    def test_wide_exclusion_zone(self, monkeypatch, stacks, mode):
        config = RunConfig(mode=mode, n_tiles=16, exclusion_zone=90)
        run = lambda: compute_multi_tile(_series(), None, 16, config)
        _assert_same(*_both(monkeypatch, stacks, run))

    def test_one_dimension_skips_the_sort(self, monkeypatch, stacks):
        config = RunConfig(mode="FP16", n_tiles=16)
        run = lambda: compute_multi_tile(_series(d=1), None, 16, config)
        _assert_same(*_both(monkeypatch, stacks, run))


class TestTensorCoreStacks:
    """The tensor-core main loop stacks like the vector loop: stacked
    dispatch equals batches of one down to every timeline op and the
    Chrome trace."""

    def _assert_same_trace(self, got, want, tmp_path):
        _assert_same(got, want)
        assert got.backend == want.backend == "tensor_core"
        assert got.timeline.ops == want.timeline.ops
        paths = [export_chrome_trace(r, tmp_path / name)
                 for r, name in ((got, "got.json"), (want, "want.json"))]
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("ab", [False, True], ids=["self", "ab"])
    @pytest.mark.parametrize("mode", TC_MODES)
    def test_stacked_matches_batches_of_one(self, monkeypatch, stacks, tmp_path,
                                            mode, ab, d):
        x, y = _series(d=d), _series(d=d, seed=12)
        config = RunConfig(mode=mode, n_tiles=16, n_gpus=2, backend="tensor_core")
        run = lambda: compute_multi_tile(x, y if ab else None, 16, config)
        self._assert_same_trace(*_both(monkeypatch, stacks, run), tmp_path)

    @pytest.mark.parametrize("mode", TC_MODES)
    def test_symmetric_mirror_tiles(self, monkeypatch, stacks, tmp_path, mode):
        config = RunConfig(mode=mode, n_tiles=16, backend="tensor_core",
                           symmetric_tiles=True)
        run = lambda: compute_multi_tile(_series(), None, 16, config)
        self._assert_same_trace(*_both(monkeypatch, stacks, run), tmp_path)

    @pytest.mark.parametrize("mode", TC_MODES)
    def test_escalation_takes_the_vector_path(self, monkeypatch, stacks, tmp_path,
                                              mode):
        config = RunConfig(mode=mode, n_tiles=16, n_gpus=2, backend="tensor_core")
        target = _target(config)

        def run():
            faults = _TileFaults(target, corrupt=True, attempts=None)
            result = compute_multi_tile(
                _series(), None, 16, config, fault_plan=faults,
                health=HealthPolicy(),
            )
            assert result.escalations == {target.tile_id: PrecisionMode.FP32}
            return result

        self._assert_same_trace(*_both(monkeypatch, stacks, run), tmp_path)


class TestBatchFormation:
    def test_cap_sizes_the_stack(self):
        backend = NumericBackend()
        cap = backends.SUPER_STEP_ELEMENTS // 32
        big = JobSpec.from_arrays(_series(n=2000, d=8), None, 32, RunConfig())
        plan = big.plan(n_tiles=4)
        # A 985-column, d=8 tile leaves no room for a second in the cap.
        assert 2 * 8 * plan.tiles[0].n_cols > cap
        assert backend.stack_limit(plan, plan.tiles[0]) == 1
        small = JobSpec.from_arrays(_series(n=400, d=2), None, 16, RunConfig())
        plan = small.plan(n_tiles=100)
        width = plan.tiles[0].n_cols
        limit = backend.stack_limit(plan, plan.tiles[0])
        assert limit == cap // (2 * width) > 1

    def test_small_tensor_core_tiles_stack(self):
        # One rule for both main loops: a 71 x 71, d = 3 tile stacks as
        # deep on the tensor-core loop as on the vector loop.
        config = RunConfig(mode="FP16C", backend="tensor_core")
        plan = JobSpec.from_arrays(_series(), None, 16, config).plan(n_tiles=16)
        tile = plan.tiles[5]
        cap = backends.SUPER_STEP_ELEMENTS // 32 // (3 * tile.n_cols)
        assert TensorCoreBackend().stack_limit(plan, tile) == cap > 1
        assert NumericBackend().stack_limit(plan, tile) == cap

    def test_deadline_runs_batches_of_one(self, stacks):
        spec = JobSpec.from_arrays(_series(), None, 16, RunConfig(n_tiles=16))
        plan = spec.plan()
        sim = GPUSimulator(spec.config.device, 1)
        report = execute_plan(
            plan, NumericBackend(), sim, deadline_at=time.monotonic() + 1e6
        )
        assert report.tiles_completed == 16
        assert max(len(call) for call in stacks) == 1

    def test_workers_each_get_a_batch(self, wide_cap, stacks):
        # 9 same-shape tiles of one group, two workers: two batches.
        tiles = compute_tile_list(285, 285, 16)
        group = [t for t in tiles if (t.n_rows, t.n_cols) == (71, 71)]
        config = RunConfig(mode="FP32", n_tiles=16)
        compute_multi_tile(_series(), None, 16, config, parallel_workers=2)
        sizes = sorted(
            len(call) for call in stacks
            if all((r, c) in {(t.row_start, t.col_start) for t in group} for r, c in call)
        )
        assert sizes == [4, 5]

    def test_placement_sees_queue_order(self):
        """Batches regroup tiles by shape, but a dynamic placement still
        picks in queue order: round-robin by plan position."""

        class Starts(TileObserver):
            def __init__(self):
                self.picks = []

            def on_tile_start(self, tile, gpu_id, attempt):
                self.picks.append((tile.tile_id, gpu_id))

        starts = Starts()
        compute_multi_tile(
            _series(), None, 16, RunConfig(n_tiles=16, n_gpus=3),
            observers=(starts,), max_retries=1,
        )
        assert starts.picks == [(i, i % 3) for i in range(16)]


class _TileFaults:
    """fault_plan stand-in hitting one tile geometry inside a batch."""

    def __init__(self, tile, error=None, attempts=(0,), corrupt=False):
        self.key = (tile.row_start, tile.row_stop, tile.col_start, tile.col_stop)
        self.error = error
        self.attempts = attempts
        self.corrupt = corrupt
        self.fired = 0

    def _hit(self, tile, attempt):
        key = (tile.row_start, tile.row_stop, tile.col_start, tile.col_stop)
        return key == self.key and (self.attempts is None or attempt in self.attempts)

    def injector(self, label, tile, gpu_id, attempt):
        if self.error is not None and self._hit(tile, attempt):
            self.fired += 1
            raise self.error

    def corruptor(self, label, tile, gpu_id, attempt, output):
        if self.corrupt and self._hit(tile, attempt):
            self.fired += 1
            output.profile[0, 0] = -1.0


def _target(config):
    """The 7th tile of the plan: one of the 9 same-shape 71 x 71 tiles."""
    spec = JobSpec.from_arrays(_series(), None, 16, config)
    tile = spec.plan().tiles[6]
    assert (tile.n_rows, tile.n_cols) == (71, 71)
    return tile


class TestFaultsInsideABatch:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_retry(self, monkeypatch, stacks, workers):
        config = RunConfig(mode="FP16", n_tiles=16, n_gpus=3)
        target = _target(config)

        def run():
            faults = _TileFaults(target, TransientDeviceError("flaky"))
            result = compute_multi_tile(
                _series(), None, 16, config, fault_plan=faults,
                max_retries=2, parallel_workers=workers,
            )
            assert faults.fired == 1
            return result

        _assert_same(*_both(monkeypatch, stacks, run))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_oom_split(self, monkeypatch, stacks, workers):
        config = RunConfig(mode="FP32", n_tiles=16, n_gpus=2)
        target = _target(config)

        def run():
            faults = _TileFaults(target, DeviceOutOfMemoryError(0, 0, "gpu (injected)"))
            result = compute_multi_tile(
                _series(), None, 16, config, fault_plan=faults,
                oom_split=True, parallel_workers=workers,
            )
            assert result.split_tiles and result.n_tiles == 19
            return result

        _assert_same(*_both(monkeypatch, stacks, run))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_health_escalation(self, monkeypatch, stacks, workers):
        config = RunConfig(mode="FP16", n_tiles=16, n_gpus=2)
        target = _target(config)

        def run():
            faults = _TileFaults(target, corrupt=True, attempts=None)
            result = compute_multi_tile(
                _series(), None, 16, config, fault_plan=faults,
                health=HealthPolicy(), parallel_workers=workers,
            )
            assert set(result.escalations) == {target.tile_id}
            return result

        _assert_same(*_both(monkeypatch, stacks, run))


class TestJournal:
    def test_group_commit_per_wave(self, monkeypatch, tmp_path):
        waves = []
        original = RunJournal.record

        def spy(self, executions, accumulator):
            waves.append(len(executions))
            return original(self, executions, accumulator)

        monkeypatch.setattr(RunJournal, "record", spy)
        config = RunConfig(mode="FP32", n_tiles=16)
        path = tmp_path / "journal"
        full = compute_multi_tile(_series(), None, 16, config, journal=path)
        assert sum(waves) == 16 and len(waves) < 16
        records = RunJournal.open(path).completed_records()
        assert [r["tile_id"] for r in records] == list(range(16))
        plain = compute_multi_tile(_series(), None, 16, config)
        _assert_same(full, plain)

    def test_crash_mid_batch_resumes(self, wide_cap, tmp_path):
        class KillAt:
            """Kills the run at the ``allow + 1``-th injector call."""

            corruptor = None

            def __init__(self, allow):
                self.allow, self.seen = allow, 0

            def injector(self, label, tile, gpu_id, attempt):
                self.seen += 1
                if self.seen > self.allow:
                    raise KeyboardInterrupt("killed mid-batch")

        config = RunConfig(mode="FP16", n_tiles=16, n_gpus=2)
        uninterrupted = compute_multi_tile(_series(), None, 16, config)
        path = tmp_path / "journal"
        # Injector calls run batch by batch: [0], [1-3], [4, 8, 12], then
        # the 71 x 71 batch [5, 6, 7, 9, ...]; the 10th call is tile 7.
        with pytest.raises(KeyboardInterrupt):
            compute_multi_tile(
                _series(), None, 16, config, journal=path, fault_plan=KillAt(9)
            )
        ids = [r["tile_id"] for r in RunJournal.open(path).completed_records()]
        assert ids == list(range(7))
        resumed = resume_plan(path)
        assert resumed.resumed_tiles == 7
        assert resumed.profile.tobytes() == uninterrupted.profile.tobytes()
        assert np.array_equal(resumed.index, uninterrupted.index)
        assert resumed.costs == uninterrupted.costs
        assert resumed.merge_time == uninterrupted.merge_time

    @pytest.mark.parametrize("max_retries", [0, 1])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_commit_before_raise(self, wide_cap, tmp_path, workers, max_retries):
        """Tile k+1 exhausts its retries while tile k is finished or in
        flight: tile k is committed and journaled before the error."""
        config = RunConfig(mode="FP32", n_tiles=16, n_gpus=2)
        spec = JobSpec.from_arrays(_series(), None, 16, config)
        failing = spec.plan().tiles[9]
        uninterrupted = compute_multi_tile(_series(), None, 16, config)
        path = tmp_path / "journal"
        faults = _TileFaults(failing, TransientDeviceError("dead"), attempts=None)
        with pytest.raises(TileRetryExhaustedError):
            compute_multi_tile(
                _series(), None, 16, config, journal=path, fault_plan=faults,
                max_retries=max_retries, parallel_workers=workers,
            )
        ids = [r["tile_id"] for r in RunJournal.open(path).completed_records()]
        assert ids == list(range(9))
        resumed = resume_plan(path)
        assert resumed.resumed_tiles == 9
        assert resumed.profile.tobytes() == uninterrupted.profile.tobytes()
        assert np.array_equal(resumed.index, uninterrupted.index)
        assert resumed.costs == uninterrupted.costs
        assert resumed.merge_time == uninterrupted.merge_time

    def test_commit_before_raise_without_journal(self, wide_cap):
        """The accumulator also holds the committed prefix."""
        config = RunConfig(mode="FP32", n_tiles=16)
        spec = JobSpec.from_arrays(_series(), None, 16, config)
        plan = spec.plan()
        faults = _TileFaults(plan.tiles[9], RuntimeError("lost"), attempts=None)
        sim = GPUSimulator(config.device, 1)
        acc = ProfileAccumulator(spec.d, spec.n_q_seg, spec.policy)
        committed = []

        class Commits(TileObserver):
            def on_tile_complete(self, tile, gpu_id, execution):
                committed.append(tile.tile_id)

        with pytest.raises(RuntimeError, match="lost"):
            execute_plan(plan, NumericBackend(), sim, accumulator=acc,
                         observers=[Commits()],
                         policy=ExecutionPolicy(fault_plan=faults))
        assert committed == list(range(9))
