"""Tests for the repro.service job service subsystem."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro import matrix_profile
from repro.core.config import RunConfig
from repro.core.result import MatrixProfileResult
from repro.gpu.device import A100
from repro.precision.modes import PrecisionMode
from repro.service import (
    DOWNGRADE_LADDER,
    AdmissionController,
    JobRequest,
    JobStatus,
    LoadEstimator,
    MatrixProfileService,
    ResultCache,
    TileRetryExhaustedError,
    TransientDeviceError,
    cache_key,
    series_digest,
)


class FakeClock:
    """Deterministic clock: advances by ``step`` on every read."""

    def __init__(self, step=0.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


@pytest.fixture
def series(rng):
    return rng.normal(size=(120, 2)).cumsum(axis=0)


def quiet_estimator():
    """A non-learning estimator that never triggers downgrades."""
    return LoadEstimator("A100", seconds_per_cell=1e-12, learn=False)


def make_service(**kw):
    kw.setdefault("n_gpus", 2)
    kw.setdefault("n_workers", 1)
    kw.setdefault("estimator", quiet_estimator())
    return MatrixProfileService(**kw)


class TestJobModel:
    def test_series_digest_content_addressed(self, rng):
        a = rng.normal(size=(50, 2))
        assert series_digest(a) == series_digest(a.copy())
        assert series_digest(a) != series_digest(a + 1e-9)
        assert series_digest(a) != series_digest(a.astype(np.float32))

    def test_request_validation(self, series):
        with pytest.raises(ValueError, match="deadline"):
            JobRequest(reference=series, m=8, deadline=0.0)
        with pytest.raises(ValueError, match="m must be"):
            JobRequest(reference=series, m=1)

    def test_request_parses_mode_string(self, series):
        req = JobRequest(reference=series, m=8, mode="fp16c")
        assert req.mode is PrecisionMode.FP16C


class TestResultCache:
    def _result(self, n=10, d=2):
        return MatrixProfileResult(
            profile=np.zeros((n, d)),
            index=np.zeros((n, d), dtype=np.int64),
            mode=PrecisionMode.FP64,
            m=8,
        )

    def test_hit_miss_counters(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", self._result())
        assert cache.get("k") is not None
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_lru_eviction_by_entries(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", self._result())
        cache.put("b", self._result())
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", self._result())
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_eviction_by_bytes(self):
        one = self._result(n=100)
        per_entry = one.profile.nbytes + one.index.nbytes
        cache = ResultCache(max_entries=100, max_bytes=2 * per_entry)
        for key in "abc":
            cache.put(key, self._result(n=100))
        assert len(cache) == 2
        assert cache.payload_bytes <= 2 * per_entry

    def test_cache_key_separates_configs(self):
        digest = "d" * 16
        base = RunConfig(mode="FP16", n_tiles=4)
        assert cache_key(digest, None, 8, base) != cache_key(
            digest, None, 8, base.with_(n_tiles=8)
        )
        assert cache_key(digest, None, 8, base) != cache_key(
            digest, None, 16, base
        )
        assert cache_key(digest, None, 8, base) != cache_key(
            digest, "q" * 16, 8, base
        )


class TestAdmission:
    def _controller(self, parallelism=1):
        # 1e-3 s/cell: a 105-segment self-join (~22k cells) estimates ~22 s.
        est = LoadEstimator("A100", seconds_per_cell=1e-3, learn=False)
        return AdmissionController(est, parallelism=parallelism)

    def test_no_deadline_never_downgrades(self):
        ctl = self._controller()
        for job_id in range(5):
            decision = ctl.admit(job_id, 100, 100, 4, "FP64", slack=None)
            assert decision.effective is PrecisionMode.FP64
            assert not decision.degraded

    def test_fits_at_requested_mode(self):
        ctl = self._controller()
        decision = ctl.admit(1, 100, 100, 4, "FP64", slack=1e9)
        assert decision.effective is PrecisionMode.FP64

    def test_backlog_walks_down_the_ladder(self):
        ctl = self._controller()
        # FP64 estimate is 40 s/job: the first job fits a 60 s budget, the
        # following ones see growing backlog and shed precision in order.
        seen = []
        for job_id in range(6):
            decision = ctl.admit(job_id, 100, 100, 4, "FP64", slack=60.0)
            seen.append(decision.effective)
        assert seen[0] is PrecisionMode.FP64
        assert seen[-1] is PrecisionMode.FP16
        positions = [DOWNGRADE_LADDER.index(mode) for mode in seen]
        assert positions == sorted(positions)  # monotone degradation

    def test_overload_admits_at_fastest_rung(self):
        ctl = self._controller()
        for job_id in range(20):
            decision = ctl.admit(job_id, 100, 100, 4, "FP64", slack=1.0)
        assert decision.effective is PrecisionMode.FP16
        assert decision.downgrade_steps == 3

    def test_fp16c_kept_when_unloaded_and_shed_to_fp16(self):
        ctl = self._controller()
        first = ctl.admit(1, 100, 100, 4, "FP16C", slack=1e9)
        assert first.effective is PrecisionMode.FP16C
        for job_id in range(2, 20):
            last = ctl.admit(job_id, 100, 100, 4, "FP16C", slack=1.0)
        assert last.effective is PrecisionMode.FP16
        assert last.downgrade_steps == 1

    def test_complete_releases_backlog(self):
        ctl = self._controller()
        ctl.admit(1, 100, 100, 4, "FP64", slack=None)
        assert ctl.backlog_seconds() > 0
        ctl.complete(1)
        assert ctl.backlog_seconds() == 0
        assert ctl.queue_depth == 0

    def test_parallelism_divides_backlog(self):
        serial = self._controller(parallelism=1)
        wide = self._controller(parallelism=8)
        for ctl in (serial, wide):
            for job_id in range(4):
                ctl.admit(job_id, 100, 100, 4, "FP64", slack=None)
        # Backlog is 160 s; one FP64 job estimates 40 s.  Serial sees
        # 160 + 40 > 70 (and even FP16 cannot fit); eight-way sees
        # 160/8 + 40 = 60 <= 70.
        slack = 70.0
        assert serial.admit(99, 100, 100, 4, "FP64", slack).degraded
        assert not wide.admit(99, 100, 100, 4, "FP64", slack).degraded

    def test_mode_factors_reward_downgrades(self):
        est = LoadEstimator("A100")
        factors = [est.mode_factor(mode) for mode in DOWNGRADE_LADDER]
        assert factors[0] == 1.0
        assert all(b < a for a, b in zip(factors, factors[1:])), factors

    def test_estimator_learning_tracks_observations(self):
        est = LoadEstimator("A100", seconds_per_cell=1.0, learn=True, ema_weight=0.5)
        est.observe(10, 10, 1, "FP64", elapsed=1.0)  # 0.01 s/cell observed
        assert est.seconds_per_cell < 1.0


class TestServiceEndToEnd:
    def test_matches_library_compute_path(self, series):
        service = make_service()
        outcome = service.submit_and_wait(
            JobRequest(reference=series, m=8, mode="FP32")
        )
        assert outcome.status is JobStatus.COMPLETED
        expected = matrix_profile(
            series, m=8, mode="FP32", n_tiles=outcome.result.n_tiles
        )
        np.testing.assert_allclose(
            outcome.result.profile, expected.profile, atol=1e-5
        )
        np.testing.assert_array_equal(outcome.result.index, expected.index)

    def test_repeat_submission_hits_cache(self, series):
        service = make_service()
        request = JobRequest(reference=series, m=8)
        first = service.submit_and_wait(request)
        second = service.submit_and_wait(JobRequest(reference=series, m=8))
        assert not first.cache_hit and second.cache_hit
        assert second.result is first.result
        assert service.cache.stats()["hits"] == 1

    def test_different_mode_misses_cache(self, series):
        service = make_service()
        service.submit_and_wait(JobRequest(reference=series, m=8, mode="FP64"))
        other = service.submit_and_wait(
            JobRequest(reference=series, m=8, mode="FP16")
        )
        assert not other.cache_hit

    def test_cache_disabled(self, series):
        service = make_service(use_cache=False)
        service.submit_and_wait(JobRequest(reference=series, m=8))
        outcome = service.submit_and_wait(JobRequest(reference=series, m=8))
        assert service.cache is None and not outcome.cache_hit

    def test_priority_orders_processing(self, series):
        service = make_service()
        low = service.submit(JobRequest(reference=series, m=8, priority=5))
        high = service.submit(
            JobRequest(reference=series[:100], m=8, priority=-5)
        )
        order = []
        original = service._execute

        def spy(job, started):
            order.append(job.job_id)
            return original(job, started)

        service._execute = spy
        service.process_all()
        assert order == [high.job_id, low.job_id]
        assert low.done and high.done

    def test_ab_join(self, rng):
        ref = rng.normal(size=(100, 3)).cumsum(axis=0)
        qry = rng.normal(size=(80, 3)).cumsum(axis=0)
        service = make_service()
        outcome = service.submit_and_wait(JobRequest(reference=ref, query=qry, m=8))
        assert outcome.result.profile.shape == (73, 3)

    def test_dimension_mismatch_rejected(self, rng):
        service = make_service()
        with pytest.raises(ValueError, match="d="):
            service.submit(
                JobRequest(
                    reference=rng.normal(size=(50, 2)),
                    query=rng.normal(size=(50, 3)),
                    m=8,
                )
            )

    def test_window_too_long_rejected(self, series):
        service = make_service()
        with pytest.raises(ValueError, match="too long"):
            service.submit(JobRequest(reference=series[:10], m=64))

    def test_worker_threads_drain_queue(self, series):
        service = make_service(n_workers=2)
        jobs = [
            service.submit(JobRequest(reference=series[: 100 + 5 * i], m=8))
            for i in range(6)
        ]
        with service:
            pass  # __exit__ drains then stops the workers
        assert all(job.done for job in jobs)
        assert all(job.outcome.status is JobStatus.COMPLETED for job in jobs)
        snap = service.metrics.snapshot()
        assert snap.jobs_completed == 6
        assert snap.jobs_in_flight == 0


class TestFailureHandling:
    def test_transient_failure_retried_on_other_gpu(self, series):
        attempts = []

        def injector(label, tile, gpu_id, attempt):
            attempts.append((tile.tile_id, gpu_id, attempt))
            if attempt == 0 and tile.tile_id == 0:
                raise TransientDeviceError(f"injected on gpu {gpu_id}")

        service = make_service(fault_plan=SimpleNamespace(injector=injector))
        outcome = service.submit_and_wait(
            JobRequest(reference=series, m=8, n_tiles=4)
        )
        assert outcome.status is JobStatus.COMPLETED
        assert outcome.tile_retries == 1
        tile0 = [(gpu, att) for tid, gpu, att in attempts if tid == 0]
        assert len(tile0) == 2
        assert tile0[0][0] != tile0[1][0]  # retried on a different device
        # The retry must not corrupt the numerics.
        expected = matrix_profile(series, m=8, n_tiles=outcome.result.n_tiles)
        np.testing.assert_allclose(outcome.result.profile, expected.profile)

    def test_retries_exhausted_fails_job(self, series):
        def always_fail(label, tile, gpu_id, attempt):
            raise TransientDeviceError("persistent fault")

        service = make_service(fault_plan=SimpleNamespace(injector=always_fail), max_retries=2)
        outcome = service.submit_and_wait(JobRequest(reference=series, m=8))
        assert outcome.status is JobStatus.FAILED
        assert outcome.result is None
        assert "TileRetryExhaustedError" in outcome.error
        assert service.metrics.snapshot().jobs_failed == 1

    def test_failed_job_releases_backlog(self, series):
        def always_fail(label, tile, gpu_id, attempt):
            raise TransientDeviceError("persistent fault")

        service = make_service(fault_plan=SimpleNamespace(injector=always_fail))
        service.submit_and_wait(JobRequest(reference=series, m=8))
        assert service.admission.queue_depth == 0

    def test_retry_exhausted_error_attributes(self):
        err = TileRetryExhaustedError(3, 2, TransientDeviceError("x"))
        assert err.tile_id == 3 and err.attempts == 2
        assert "tile 3" in str(err)

    def test_oom_triggers_replan_with_finer_tiling(self, rng):
        tiny = replace(A100, name="A100", mem_capacity=64 * 1024)
        service = make_service(device=tiny, n_gpus=1)
        # Disable the proactive planner so the job starts at one tile and
        # must recover through the reactive OOM -> re-tile loop.
        service._plan_tiles = lambda job, config: job.request.n_tiles or 1
        outcome = service.submit_and_wait(
            JobRequest(reference=rng.normal(size=(900, 4)), m=32)
        )
        assert outcome.status is JobStatus.COMPLETED
        assert outcome.result.n_tiles >= 16  # 1 -> 4 -> 16 at least
        assert np.all(np.isfinite(outcome.result.profile))

    def test_planner_avoids_oom_proactively(self, rng):
        tiny = replace(A100, name="A100", mem_capacity=64 * 1024)
        service = make_service(device=tiny, n_gpus=1)
        outcome = service.submit_and_wait(
            JobRequest(reference=rng.normal(size=(900, 4)), m=32)
        )
        assert outcome.status is JobStatus.COMPLETED
        assert outcome.result.n_tiles > 1


class TestDeadlineExpiry:
    def test_expired_deadline_yields_partial_upper_bound(self, series):
        # A frozen clock that only the per-tile injector advances: the
        # deadline expires after exactly three of the four tiles.
        clock = FakeClock(step=0.0)

        def tick(label, tile, gpu_id, attempt):
            clock.t += 1.0

        service = make_service(clock=clock, cache=None, fault_plan=SimpleNamespace(injector=tick))
        outcome = service.submit_and_wait(
            JobRequest(reference=series, m=8, deadline=2.5, n_tiles=4)
        )
        assert outcome.status is JobStatus.PARTIAL
        assert outcome.deadline_missed
        assert 0 < outcome.tiles_completed < outcome.tiles_total
        state = outcome.partial_state
        assert state is not None and 0 < state.fraction < 1
        # Partial profile is a valid upper bound on the true profile.
        true = matrix_profile(series, m=8, n_tiles=4)
        assert np.all(outcome.result.profile >= true.profile - 1e-9)
        snap = service.metrics.snapshot()
        assert snap.jobs_partial == 1 and snap.deadline_misses == 1

    def test_partial_results_not_cached(self, series):
        clock = FakeClock(step=0.0)

        def tick(label, tile, gpu_id, attempt):
            clock.t += 1.0

        service = make_service(clock=clock, fault_plan=SimpleNamespace(injector=tick))
        outcome = service.submit_and_wait(
            JobRequest(reference=series, m=8, deadline=2.5, n_tiles=4)
        )
        assert outcome.status is JobStatus.PARTIAL
        assert len(service.cache) == 0

    def test_generous_deadline_completes(self, series):
        service = make_service()
        outcome = service.submit_and_wait(
            JobRequest(reference=series, m=8, deadline=1e6, n_tiles=4)
        )
        assert outcome.status is JobStatus.COMPLETED
        assert not outcome.deadline_missed


class TestServiceDowngrades:
    def test_burst_downgrades_instead_of_dropping(self, series):
        # A deliberately pessimistic, non-learning estimator: every job
        # estimates far beyond the deadline budget once a backlog exists,
        # so the controller sheds precision; the real compute is fast and
        # every job still completes in full.
        estimator = LoadEstimator("A100", seconds_per_cell=1e-4, learn=False)
        service = make_service(estimator=estimator, use_cache=False)
        jobs = [
            service.submit(JobRequest(reference=series, m=8, deadline=10.0))
            for _ in range(8)
        ]
        service.process_all()
        outcomes = [job.outcome for job in jobs]
        assert all(o.status is JobStatus.COMPLETED for o in outcomes)
        assert outcomes[0].effective_mode is PrecisionMode.FP64
        assert any(o.degraded for o in outcomes)
        snap = service.metrics.snapshot()
        assert snap.precision_downgrades > 0
        assert snap.downgraded_jobs > 0
        assert snap.jobs_failed == 0


class TestServiceFaultTolerance:
    def test_corruption_escalates_and_reports(self, series):
        from repro.engine.faults import FaultPlan

        plan = FaultPlan(seed=11, corrupt_rate=1.0, corrupt_count=2)
        service = make_service(fault_plan=plan, use_cache=False)
        outcome = service.submit_and_wait(
            JobRequest(reference=series, m=8, mode="FP16", n_tiles=4)
        )
        assert outcome.status is JobStatus.COMPLETED
        assert outcome.tile_escalations == outcome.result.n_tiles
        assert set(outcome.result.escalations.values()) == {PrecisionMode.MIXED}
        assert np.isfinite(outcome.result.profile).all()
        snap = service.metrics.snapshot()
        assert snap.tile_escalations == outcome.tile_escalations
        assert snap.jobs_failed == 0

    def test_health_checks_disabled_lets_corruption_poison_merge(self, series):
        from repro.engine.faults import FaultPlan

        # Negative corrupted values win every strict-< merge: without
        # health checks the poisoned profile completes "successfully".
        plan = FaultPlan(seed=11, corrupt_rate=1.0)
        service = make_service(
            fault_plan=plan, health=None, use_cache=False
        )
        outcome = service.submit_and_wait(
            JobRequest(reference=series, m=8, mode="FP16", n_tiles=4)
        )
        assert outcome.status is JobStatus.COMPLETED
        assert outcome.tile_escalations == 0
        assert (outcome.result.profile < 0).any()

    def test_injected_oom_splits_tiles_when_enabled(self, series):
        from repro.engine.faults import FaultPlan

        plan = FaultPlan(seed=9, oom_rate=1.0)
        service = make_service(
            fault_plan=plan, oom_tile_split=True, use_cache=False
        )
        outcome = service.submit_and_wait(
            JobRequest(reference=series, m=8, n_tiles=4)
        )
        assert outcome.status is JobStatus.COMPLETED
        assert outcome.tile_splits > 0
        assert plan.event_counts().get("oom", 0) > 0
        snap = service.metrics.snapshot()
        assert snap.tile_splits == outcome.tile_splits
        expected = matrix_profile(series, m=8, n_tiles=4)
        np.testing.assert_allclose(
            outcome.result.profile, expected.profile, atol=1e-3
        )


class TestMetricsAndReporting:
    def test_snapshot_to_rows_renders(self, series):
        from repro.reporting import render_service_metrics

        service = make_service()
        service.submit_and_wait(JobRequest(reference=series, m=8))
        service.submit_and_wait(JobRequest(reference=series, m=8))
        text = render_service_metrics(service.metrics.snapshot())
        assert "cache hit rate" in text and "50.0%" in text
        assert "jobs completed" in text

    def test_percentiles(self):
        from repro.service import percentile

        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 100) == 100.0
        assert percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 101)

    def test_latency_window_is_bounded(self):
        from repro.service import ServiceMetrics, percentile
        from repro.service.metrics import LATENCY_HISTORY

        metrics = ServiceMetrics()
        latencies = [float(i) for i in range(3 * LATENCY_HISTORY)]
        for latency in latencies:
            metrics.record_completion(latency)
        window = latencies[-LATENCY_HISTORY:]
        assert list(metrics._latencies) == window
        snap = metrics.snapshot()
        assert snap.jobs_completed == len(latencies)
        assert snap.latency_p50 == percentile(window, 50)
        assert snap.latency_p95 == percentile(window, 95)
        assert snap.latency_p50 != percentile(latencies, 50)

    def test_concurrent_records_lose_no_update(self):
        import sys
        import threading

        from repro.service import ServiceMetrics
        from repro.streams import StreamCounters

        metrics = ServiceMetrics()
        n_threads, n_calls = 8, 500
        delta = StreamCounters(appends=1, samples=3, rebases=1)

        def hammer(k):
            for _ in range(n_calls):
                metrics.record_submission()
                metrics.record_completion(0.5, tiles=2, retries=1)
                metrics.record_stream(f"t{k}", delta)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(k,)) for k in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        snap = metrics.snapshot()
        total = n_threads * n_calls
        assert snap.jobs_submitted == snap.jobs_completed == total
        assert snap.tiles_executed == 2 * total and snap.tile_retries == total
        assert snap.stream_appends == total and snap.stream_samples == 3 * total
        assert snap.stream_tenants == n_threads and snap.jobs_in_flight == 0

    def test_latency_percentiles_populated(self, series):
        service = make_service()
        for _ in range(3):
            service.submit_and_wait(JobRequest(reference=series, m=8))
        snap = service.metrics.snapshot()
        assert 0 < snap.latency_p50 <= snap.latency_p95
        assert snap.jobs_per_second > 0


class TestServiceCLI:
    def test_serve_command(self, capsys):
        from repro.cli import main

        code = main([
            "serve", "--jobs", "4", "-n", "96", "-m", "8", "-d", "2",
            "--distinct", "2", "--workers", "1", "--show-ladder",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "service metrics" in out
        assert "downgrade ladder" in out
        assert "job 4" in out or "completed" in out

    def test_submit_command(self, tmp_path, capsys, rng):
        from repro.cli import main

        csv = tmp_path / "series.csv"
        np.savetxt(csv, rng.normal(size=(80, 2)).cumsum(axis=0), delimiter=",")
        code = main(["submit", str(csv), "-m", "8", "--mode", "FP32"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: completed" in out
        assert "ran FP32" in out
