"""Checkpoint/resume: the tile journal and its bit-identity contract.

A killed run resumed from its journal recomputes zero journaled tiles
and produces a profile bit-identical to the uninterrupted run; the
crash window between the state snapshot and the log line costs exactly
one re-merged tile and stays bit-identical (the strict-< merge is
idempotent).
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.engine import JobSpec, RunJournal, TileObserver, resume_plan
from repro.engine.checkpoint import JOURNAL_VERSION

GOLDEN = Path(__file__).parent / "golden"


class Counter(TileObserver):
    def __init__(self):
        self.started = []

    def on_tile_start(self, tile, gpu_id, attempt):
        self.started.append(tile.tile_id)


class KillPlan:
    """fault_plan stand-in that kills the run after ``allow`` tile starts.

    KeyboardInterrupt is deliberately not an engine-handled error: it
    rips through execute_plan exactly like a real SIGINT would.
    """

    corruptor = None

    def __init__(self, allow):
        self.allow = allow
        self.seen = 0

    def injector(self, label, tile, gpu_id, attempt):
        self.seen += 1
        if self.seen > self.allow:
            raise KeyboardInterrupt("killed mid-run")


def _series(n=220, d=2, seed=5):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 16.0 * np.pi, n)
    base = np.sin(t)[:, None] * np.linspace(0.5, 1.5, d)
    return base + 0.1 * rng.normal(size=(n, d))


@pytest.fixture
def config():
    return RunConfig(mode="FP32", n_tiles=4, n_gpus=2)


class TestJournalLifecycle:
    def test_full_run_journal_contents(self, tmp_path, config):
        path = tmp_path / "journal"
        result = compute_multi_tile(_series(), None, 16, config, journal=path)
        journal = RunJournal.open(path)
        meta = journal.meta()
        assert meta["version"] == JOURNAL_VERSION
        assert meta["m"] == 16
        assert len(meta["tiles"]) == result.n_tiles
        assert journal.series_path.exists()
        assert journal.state_path.exists()
        records = journal.completed_records()
        assert len(records) == result.n_tiles
        assert {r["tile_id"] for r in records} == set(range(result.n_tiles))
        assert all(r["mode"] == "FP32" for r in records)

    def test_create_refuses_existing_journal(self, tmp_path, config):
        path = tmp_path / "journal"
        compute_multi_tile(_series(), None, 16, config, journal=path)
        spec = JobSpec.from_arrays(_series(), None, 16, config)
        with pytest.raises(FileExistsError, match="already exists"):
            RunJournal.create(path, spec, spec.plan())

    def test_open_missing_and_bad_version(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no journal"):
            RunJournal.open(tmp_path / "nope")
        path = tmp_path / "future"
        path.mkdir()
        (path / "meta.json").write_text(json.dumps({"version": 999}))
        with pytest.raises(ValueError, match="version"):
            RunJournal.open(path)

    def test_layout_only_spec_cannot_be_journaled(self, config):
        spec = JobSpec.from_arrays(_series(), None, 16, config)
        tr, tq = spec.layouts()
        layouts_only = JobSpec.from_layouts(tr, tq, 16, config)
        with pytest.raises(ValueError, match="host series"):
            RunJournal.create("/nonexistent", layouts_only, layouts_only.plan())


class TestKillAndResume:
    def _kill_mid_run(self, tmp_path, config, series, allow=2):
        path = tmp_path / "journal"
        with pytest.raises(KeyboardInterrupt):
            compute_multi_tile(
                series, None, 16, config,
                journal=path, fault_plan=KillPlan(allow),
            )
        return path

    def test_resume_recomputes_zero_journaled_tiles(self, tmp_path, config):
        series = _series()
        uninterrupted = compute_multi_tile(series, None, 16, config)
        path = self._kill_mid_run(tmp_path, config, series, allow=2)
        assert len(RunJournal.open(path).completed_records()) == 2

        counter = Counter()
        resumed = resume_plan(path, observers=(counter,))
        # Only the two missing tiles executed...
        assert sorted(counter.started) == [2, 3]
        assert resumed.resumed_tiles == 2
        # ...and the merged output is bit-identical to the run that was
        # never interrupted.
        assert np.array_equal(resumed.profile, uninterrupted.profile)
        assert np.array_equal(resumed.index, uninterrupted.index)
        assert resumed.merge_time == uninterrupted.merge_time
        assert resumed.costs.keys() == uninterrupted.costs.keys()
        for name, cost in resumed.costs.items():
            assert cost.flops == uninterrupted.costs[name].flops

    def test_resume_of_complete_run_executes_nothing(self, tmp_path, config):
        series = _series()
        path = tmp_path / "journal"
        full = compute_multi_tile(series, None, 16, config, journal=path)
        counter = Counter()
        resumed = resume_plan(path, observers=(counter,))
        assert counter.started == []
        assert resumed.resumed_tiles == full.n_tiles
        assert np.array_equal(resumed.profile, full.profile)
        assert np.array_equal(resumed.index, full.index)

    def test_kill_before_first_tile_resumes_from_zero(self, tmp_path, config):
        series = _series()
        uninterrupted = compute_multi_tile(series, None, 16, config)
        path = self._kill_mid_run(tmp_path, config, series, allow=0)
        journal = RunJournal.open(path)
        assert journal.completed_records() == []
        assert not journal.state_path.exists()
        resumed = resume_plan(path)
        assert resumed.resumed_tiles == 0
        assert np.array_equal(resumed.profile, uninterrupted.profile)

    def test_crash_window_remerge_is_idempotent(self, tmp_path, config):
        # Simulate the crash *between* the state snapshot and the log
        # line by deleting the last log line: the snapshot then already
        # holds that tile's merge, and resume re-executes + re-merges it.
        series = _series()
        uninterrupted = compute_multi_tile(series, None, 16, config)
        path = tmp_path / "journal"
        compute_multi_tile(series, None, 16, config, journal=path)
        journal = RunJournal.open(path)
        lines = journal.log_path.read_text().splitlines()
        dropped = json.loads(lines[-1])
        journal.log_path.write_text("\n".join(lines[:-1]) + "\n")

        counter = Counter()
        resumed = resume_plan(path, observers=(counter,))
        # Exactly the in-flight tile re-executed...
        assert counter.started == [dropped["tile_id"]]
        assert resumed.resumed_tiles == len(lines) - 1
        # ...and the repeated identical merge changed nothing.
        assert np.array_equal(resumed.profile, uninterrupted.profile)
        assert np.array_equal(resumed.index, uninterrupted.index)

    def test_journal_with_retired_config_key_resumes(self, tmp_path, config):
        """Journals written while ``amortize_precalc`` was a config field
        store it in their config dict; they must still resume, and
        bit-identically."""
        series = _series()
        uninterrupted = compute_multi_tile(series, None, 16, config)
        spec = JobSpec.from_arrays(series, None, 16, config)
        journal = RunJournal.create(tmp_path / "journal", spec, spec.plan())
        meta = journal.meta()
        meta["config"]["amortize_precalc"] = False
        journal.meta_path.write_text(json.dumps(meta))
        with pytest.raises(KeyboardInterrupt):
            compute_multi_tile(
                series, None, 16, config, journal=journal, fault_plan=KillPlan(2),
            )
        assert len(journal.completed_records()) == 2

        resumed = resume_plan(journal.path)
        assert resumed.resumed_tiles == 2
        assert np.array_equal(resumed.profile.view(np.uint8),
                              uninterrupted.profile.view(np.uint8))
        assert np.array_equal(resumed.index, uninterrupted.index)

    def test_journal_from_row_block_release_resumes(self, tmp_path):
        """A journal written by the release whose ``RunConfig`` still had
        ``row_block`` (killed after 4 of 9 FP16 tiles; its ``meta.json``
        config carries ``"row_block": 8``) resumes to that release's
        uninterrupted profile and index, bit for bit."""
        path = tmp_path / "journal"
        shutil.copytree(GOLDEN / "journal_row_block", path)
        assert RunJournal.open(path).meta()["config"]["row_block"] == 8
        resumed = resume_plan(path)
        assert resumed.resumed_tiles == 4
        expected = np.load(path / "expected.npz")
        assert np.array_equal(resumed.profile.view(np.uint8),
                              expected["profile"].view(np.uint8))
        assert np.array_equal(resumed.index, expected["index"])

    @pytest.mark.parametrize(
        "knob, value", [("sort_strategy", "batch"), ("fast_path_1d", False)]
    )
    def test_journal_from_a_removed_main_loop_path_is_refused(
        self, tmp_path, knob, value
    ):
        """The golden journal carries the retired numerics knobs at the
        values the main loop still computes; at any other value it was
        computed by a removed path, so resuming it raises instead of
        mixing its committed tiles with tiles of another path."""
        path = tmp_path / "journal"
        shutil.copytree(GOLDEN / "journal_row_block", path)
        meta_path = path / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert (meta["config"]["sort_strategy"], meta["config"]["fast_path_1d"]) == (
            "bitonic", True)
        meta["config"][knob] = value
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=knob):
            resume_plan(path)

    def test_resume_is_itself_resumable(self, tmp_path, config):
        series = _series()
        uninterrupted = compute_multi_tile(series, None, 16, config)
        path = self._kill_mid_run(tmp_path, config, series, allow=1)
        with pytest.raises(KeyboardInterrupt):
            resume_plan(path, fault_plan=KillPlan(allow=1))
        assert len(RunJournal.open(path).completed_records()) == 2
        resumed = resume_plan(path)
        assert resumed.resumed_tiles == 2
        assert np.array_equal(resumed.profile, uninterrupted.profile)

    def test_parallel_crash_keeps_committed_prefix(self, tmp_path):
        """Parallel dispatch journals tiles as they commit, so a crash
        leaves the committed prefix and resume stays bit-identical."""

        class CrashAt:
            corruptor = None

            def injector(self, label, tile, gpu_id, attempt):
                if tile.tile_id == 12:
                    raise RuntimeError("node lost")

        config = RunConfig(mode="FP16", n_tiles=16, n_gpus=2)
        series = _series()
        uninterrupted = compute_multi_tile(series, None, 16, config)
        path = tmp_path / "journal"
        with pytest.raises(RuntimeError, match="node lost"):
            compute_multi_tile(
                series, None, 16, config, journal=path,
                fault_plan=CrashAt(), parallel_workers=2,
            )
        ids = [r["tile_id"] for r in RunJournal.open(path).completed_records()]
        # When tile 12 failed, the other worker may still have held tile
        # 10 or 11, with tile 11 finished behind it.
        assert ids == list(range(len(ids)))
        assert len(ids) >= 12 - 2

        resumed = resume_plan(path)
        assert resumed.resumed_tiles == len(ids)
        assert np.array_equal(resumed.profile, uninterrupted.profile)
        assert np.array_equal(resumed.index, uninterrupted.index)

    def test_resume_carries_journaled_escalations(self, tmp_path):
        from repro.engine import HealthPolicy
        from repro.engine.faults import FaultPlan
        from repro.precision.modes import PrecisionMode

        config = RunConfig(mode="FP16", n_tiles=4, n_gpus=2)
        series = _series()
        path = tmp_path / "journal"
        first = compute_multi_tile(
            series, None, 16, config, journal=path,
            health=HealthPolicy(),
            fault_plan=FaultPlan(seed=11, corrupt_rate=1.0, corrupt_count=2),
        )
        assert first.escalations
        resumed = resume_plan(path)
        assert resumed.escalations == {
            tid: PrecisionMode.MIXED for tid in range(first.n_tiles)
        }


class TestResumeRunsTheJournaledBackend:
    """Resume runs the backend the journaled config names, and a journal
    handed to a run is resumed wherever it is handed in."""

    def _interrupted(self, tmp_path, config, series):
        path = tmp_path / "journal"
        with pytest.raises(KeyboardInterrupt):
            compute_multi_tile(
                series, None, 16, config, journal=path, fault_plan=KillPlan(2),
            )
        assert len(RunJournal.open(path).completed_records()) == 2
        return path

    def test_tensor_core_resume_is_bit_identical(self, tmp_path):
        config = RunConfig(
            mode="Mixed", backend="tensor_core", n_tiles=4, n_gpus=2
        )
        series = _series(n=300, d=3)
        uninterrupted = compute_multi_tile(series, None, 16, config)
        assert uninterrupted.backend == "tensor_core"
        resumed = resume_plan(self._interrupted(tmp_path, config, series))
        assert resumed.resumed_tiles == 2
        assert np.array_equal(resumed.profile.view(np.uint8),
                              uninterrupted.profile.view(np.uint8))
        assert np.array_equal(resumed.index, uninterrupted.index)
        assert resumed.backend == "tensor_core"
        assert resumed.backend_fallback_reason is None

    def test_open_journal_handed_to_matrix_profile_is_resumed(self, tmp_path):
        from repro import matrix_profile

        config = RunConfig(mode="FP32", n_tiles=4, n_gpus=2)
        series = _series(n=300, d=3)
        uninterrupted = compute_multi_tile(series, None, 16, config)
        path = self._interrupted(tmp_path, config, series)
        counter = Counter()
        resumed = matrix_profile(
            series, m=16, mode="FP32", n_tiles=4, n_gpus=2,
            journal=RunJournal.open(path), observers=(counter,),
        )
        assert sorted(counter.started) == [2, 3]
        assert resumed.resumed_tiles == 2
        assert np.array_equal(resumed.profile.view(np.uint8),
                              uninterrupted.profile.view(np.uint8))
        assert np.array_equal(resumed.index, uninterrupted.index)
        assert resumed.merge_time == uninterrupted.merge_time
