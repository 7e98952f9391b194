"""Cluster tier tests: sharding, node storms, recovery, elasticity.

The cluster chaos matrix: node storms (crash / straggler / degraded
link) are reproduced across >= 3 seeds, both placement policies, and
both join shapes, and every stormed run must finish with zero dropped
tiles and a profile bit-identical to the fault-free run on the same
fleet — the tier's headline node-loss recovery claim.  The acceptance
storm kills 25% of an eight-node fleet in every precision mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    BackpressureError,
    ClusterAutoscaler,
    ClusterDispatcher,
    ClusterSpec,
    HeartbeatDetector,
    NodeFaultPlan,
    QuotaExceededError,
    TenantQuota,
    resume_cluster,
)
from repro.core.config import RetryPolicy, RunConfig
from repro.engine.accumulate import ProfileAccumulator
from repro.engine.backends import NumericBackend
from repro.engine.checkpoint import RunJournal, tile_key
from repro.engine.dispatch import (
    ExecutionPolicy,
    TileRetryExhaustedError,
    execute_plan,
)
from repro.engine.plan import JobSpec
from repro.gpu.memory import DeviceOutOfMemoryError
from repro.gpu.simulator import GPUSimulator
from repro.precision.modes import PrecisionMode


def _series(n=220, d=2, seed=5):
    """Bounded-amplitude series (safe for FP16 storms)."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    base = np.stack(
        [np.sin(2 * np.pi * t / (16 + 5 * k)) for k in range(d)], axis=1
    )
    return base + 0.1 * rng.standard_normal((n, d))


def _spec(join="self", mode=PrecisionMode.FP64, m=24, retry_policy=None):
    ref = _series(seed=5)
    qry = None if join == "self" else _series(n=200, seed=6)
    config = RunConfig(mode=mode, retry_policy=retry_policy)
    return JobSpec.from_arrays(ref, qry, m, config)


# Fault-free baselines, cached per (join, placement, mode, fleet shape).
_BASELINES: dict = {}


def _baseline(join, cluster, mode=PrecisionMode.FP64, n_tiles=8):
    key = (join, cluster.placement, cluster.n_nodes, cluster.gpus_per_node,
           mode, n_tiles)
    if key not in _BASELINES:
        spec = _spec(join, mode)
        _BASELINES[key] = ClusterDispatcher(cluster).run(spec, n_tiles=n_tiles)
    return _BASELINES[key]


class TestClusterSpecValidation:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match="at least one node"):
            ClusterSpec(n_nodes=0)
        with pytest.raises(ValueError, match="at least one node"):
            ClusterSpec(n_nodes=2, gpus_per_node=0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError, match="interconnect_bandwidth"):
            ClusterSpec(n_nodes=2, interconnect_bandwidth=0.0)
        with pytest.raises(ValueError, match="interconnect_bandwidth"):
            ClusterSpec(n_nodes=2, interconnect_bandwidth=-1.0)

    def test_rejects_nonpositive_latency(self):
        with pytest.raises(ValueError, match="mpi_latency"):
            ClusterSpec(n_nodes=2, mpi_latency=0.0)

    def test_rejects_device_typo_with_named_field(self):
        with pytest.raises(ValueError, match="device"):
            ClusterSpec(n_nodes=2, device="A100, V100")
        with pytest.raises(ValueError, match="heterogeneous"):
            ClusterSpec(n_nodes=2, device="NotADevice")

    def test_rejects_unknown_placement(self):
        with pytest.raises(ValueError, match="placement"):
            ClusterSpec(n_nodes=2, placement="random")

    @pytest.mark.parametrize("placement", ["round_robin", "block"])
    def test_tile_mapping_stays_in_fleet(self, placement):
        cluster = ClusterSpec(n_nodes=3, gpus_per_node=2, placement=placement)
        n_tiles = 17
        for tid in range(n_tiles):
            assert 0 <= cluster.node_of(tid, n_tiles) < cluster.n_nodes
            assert 0 <= cluster.gpu_of(tid) < cluster.gpus_per_node

    def test_block_placement_is_contiguous(self):
        cluster = ClusterSpec(n_nodes=4, placement="block")
        nodes = [cluster.node_of(t, 16) for t in range(16)]
        assert nodes == sorted(nodes)
        assert set(nodes) == {0, 1, 2, 3}

    def test_roundtrip(self):
        cluster = ClusterSpec(
            n_nodes=3, gpus_per_node=2, device="V100",
            interconnect_bandwidth=1e9, mpi_latency=5e-6, placement="block",
        )
        assert ClusterSpec.from_dict(cluster.to_dict()) == cluster


class TestStrongScaling:
    """Fault-free modelled strong scaling (the Section VII projection)."""

    N, D, M = 2**16, 64, 64

    def _run(self, n_nodes, n=None, mode="FP64", n_tiles=None):
        cluster = ClusterSpec(n_nodes)
        n = n or self.N
        config = RunConfig(mode=mode, device=cluster.device_spec)
        return ClusterDispatcher(cluster).run(
            JobSpec.modeled(n, n, self.D, self.M, config), n_tiles=n_tiles
        )

    def test_default_fleet_shape(self):
        cluster = ClusterSpec(4)
        assert cluster.total_gpus == 16
        assert cluster.device_spec.name == "A100"

    def test_single_node_has_no_communication(self):
        r = self._run(1)
        assert r.broadcast_time == 0.0  # no peers to broadcast to
        assert r.gather_time == 0.0
        assert r.gpu_makespan > 0
        assert r.total_time > r.gpu_makespan  # merge still happens

    def test_every_node_gets_tiles(self):
        r = self._run(4)
        assert len(r.nodes) == 4
        assert all(n.n_tiles > 0 for n in r.nodes)
        assert sum(n.n_tiles for n in r.nodes) == 4 * ClusterSpec(4).total_gpus

    def test_two_nodes_speed_up(self):
        assert self._run(2).total_time < self._run(1).total_time

    def test_efficiency_saturates(self):
        base = self._run(1)
        effs = [self._run(nn).efficiency_vs(base) for nn in (2, 4, 8)]
        assert effs[0] > effs[2]

    def test_bigger_problems_scale_better(self):
        # The paper's claim that the workload is not communication-bound:
        # at 16x the problem area the 8-node efficiency must improve.
        small = self._run(8, n=2**14).efficiency_vs(self._run(1, n=2**14))
        big = self._run(8).efficiency_vs(self._run(1))
        assert big > small

    def test_communication_grows_with_nodes(self):
        r2, r8 = self._run(2), self._run(8)
        assert r8.broadcast_time > r2.broadcast_time
        assert r8.gather_time > r2.gather_time

    def test_reduced_precision_cheaper_transfers(self):
        r64 = self._run(4, mode="FP64")
        r16 = self._run(4, mode="FP16")
        assert r16.broadcast_time < r64.broadcast_time
        assert r16.total_time < r64.total_time

    def test_explicit_tile_count(self):
        r = self._run(2, n_tiles=64)
        assert sum(n.n_tiles for n in r.nodes) == 64


class TestRetryPolicy:
    def test_default_is_immediate(self):
        policy = RetryPolicy()
        assert policy.delay("tile", 0) == 0.0
        assert policy.delay("tile", 5) == 0.0

    def test_deterministic_and_seeded(self):
        a = RetryPolicy(base_delay=0.1, seed=7)
        b = RetryPolicy(base_delay=0.1, seed=7)
        c = RetryPolicy(base_delay=0.1, seed=8)
        assert a.delay("k", 2) == b.delay("k", 2)
        assert a.delay("k", 2) != c.delay("k", 2)

    def test_exponential_growth_capped(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.35,
                             jitter=0.0)
        assert policy.delay("k", 0) == pytest.approx(0.1)
        assert policy.delay("k", 1) == pytest.approx(0.2)
        assert policy.delay("k", 2) == pytest.approx(0.35)  # capped
        assert policy.delay("k", 9) == pytest.approx(0.35)

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=1.0, jitter=0.5)
        for attempt in range(8):
            d = policy.delay("k", attempt)
            assert 0.05 < d <= 0.1

    def test_validation(self):
        with pytest.raises(ValueError, match="base_delay"):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)

    def test_config_roundtrip_and_cache_key(self):
        cfg = RunConfig(retry_policy=RetryPolicy(base_delay=0.2, seed=3))
        again = RunConfig.from_dict(cfg.to_dict())
        assert again.retry_policy == cfg.retry_policy
        # Host-side knob: never part of the numeric identity.
        assert cfg.cache_key() == RunConfig().cache_key()

    def test_execute_plan_applies_backoff(self):
        from repro.engine.backends import NumericBackend
        from repro.engine.dispatch import execute_plan
        from repro.engine.faults import FaultPlan
        from repro.gpu.simulator import GPUSimulator

        spec = _spec(retry_policy=RetryPolicy(base_delay=0.01, seed=1))
        plan = spec.plan(n_tiles=4)
        slept = []

        fault_plan = FaultPlan(seed=3, transient_rate=0.4)
        report = execute_plan(
            plan, NumericBackend(), GPUSimulator("A100", 2),
            policy=ExecutionPolicy(
                max_retries=3, fault_plan=fault_plan, sleeper=slept.append
            ),
        )
        assert report.tile_retries > 0
        assert len(slept) == report.tile_retries
        assert report.backoff_seconds == pytest.approx(sum(slept))
        assert report.backoff_seconds > 0.0

    def test_exhausted_error_carries_node_trail(self):
        err = TileRetryExhaustedError(
            3, 2, RuntimeError("boom"), gpu_ids=(0, 1), node_ids=(2, 5)
        )
        assert err.node_ids == (2, 5)
        assert "nodes tried" in str(err)


class TestHeartbeat:
    def test_detection_latency_window(self):
        det = HeartbeatDetector(interval=0.5, miss_threshold=3, seed=4)
        for node in range(6):
            lat = det.detection_latency(node)
            assert 1.5 <= lat < 2.0
            assert lat == det.detection_latency(node)  # deterministic

    def test_validation(self):
        with pytest.raises(ValueError, match="interval"):
            HeartbeatDetector(interval=0.0)
        with pytest.raises(ValueError, match="miss_threshold"):
            HeartbeatDetector(miss_threshold=0)


class TestNodeFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(ValueError, match="crash_rate"):
            NodeFaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError, match="straggler_factor"):
            NodeFaultPlan(straggler_factor=0.5)
        with pytest.raises(ValueError, match="degraded_link_factor"):
            NodeFaultPlan(degraded_link_factor=0.0)

    def test_seeded_decisions_reproduce(self):
        a = NodeFaultPlan(seed=11, crash_rate=0.5)
        b = NodeFaultPlan(seed=11, crash_rate=0.5)
        assert [a.crashes(n) for n in range(8)] == [
            b.crashes(n) for n in range(8)
        ]
        assert any(a.crashes(n) for n in range(8))


# ----------------------------------------------------------------------
# The chaos matrix: >= 3 seeds x 3 fault kinds x both placements x both
# join shapes, every cell bit-identical to the fault-free fleet.

@pytest.mark.parametrize("seed", [3, 17, 29])
@pytest.mark.parametrize("placement", ["round_robin", "block"])
@pytest.mark.parametrize("kind", ["crash", "straggler", "degraded"])
@pytest.mark.parametrize("join", ["self", "ab"])
class TestNodeStormMatrix:
    def _storm(self, kind, seed, n_nodes):
        if kind == "crash":
            return NodeFaultPlan(seed=seed, crash_nodes=(seed % n_nodes,))
        if kind == "straggler":
            return NodeFaultPlan(seed=seed, straggler_rate=0.6)
        return NodeFaultPlan(seed=seed, degraded_link_rate=0.6)

    def test_storm_is_bit_identical(self, seed, placement, kind, join):
        cluster = ClusterSpec(n_nodes=4, gpus_per_node=1, placement=placement)
        clean = _baseline(join, cluster)
        faults = self._storm(kind, seed, cluster.n_nodes)
        run = ClusterDispatcher(cluster, node_faults=faults).run(
            _spec(join), n_tiles=8
        )
        assert run.dropped_tiles == 0
        assert run.tiles_completed == clean.tiles_completed == 8
        np.testing.assert_array_equal(run.profile, clean.profile)
        np.testing.assert_array_equal(run.index, clean.index)
        if kind == "crash":
            assert run.node_deaths == (seed % cluster.n_nodes,)
            assert run.tiles_resharded > 0
            assert run.recovery_overhead > 0.0
            assert run.total_time > clean.total_time
        elif kind == "straggler":
            assert run.node_deaths == ()
            if faults.event_counts().get("straggler"):
                assert run.gpu_makespan > clean.gpu_makespan
        else:
            assert run.node_deaths == ()
            if faults.event_counts().get("degraded_link"):
                assert run.broadcast_time > clean.broadcast_time


# ----------------------------------------------------------------------
# Acceptance storm: kill 25% of an eight-node fleet in every mode.

@pytest.mark.parametrize("mode", list(PrecisionMode))
class TestQuarterFleetKill:
    def test_zero_dropped_bit_identical(self, mode):
        cluster = ClusterSpec(n_nodes=8, gpus_per_node=1)
        spec = _spec("self", mode)
        clean = _baseline("self", cluster, mode, n_tiles=16)
        faults = NodeFaultPlan(seed=1, crash_nodes=(1, 5))  # 25% of the fleet
        run = ClusterDispatcher(cluster, node_faults=faults).run(
            spec, n_tiles=16
        )
        assert run.dropped_tiles == 0
        assert sorted(run.node_deaths) == [1, 5]
        np.testing.assert_array_equal(run.profile, clean.profile)
        np.testing.assert_array_equal(run.index, clean.index)


class TestRecovery:
    def test_whole_fleet_dead_raises_with_node_trail(self):
        cluster = ClusterSpec(n_nodes=2, gpus_per_node=1)
        faults = NodeFaultPlan(seed=2, crash_nodes=(0, 1))
        with pytest.raises(TileRetryExhaustedError) as info:
            ClusterDispatcher(cluster, node_faults=faults).run(
                _spec(), n_tiles=4
            )
        assert info.value.node_ids == (0, 1)

    def test_anytime_partial_when_fleet_dies(self):
        cluster = ClusterSpec(n_nodes=2, gpus_per_node=1)
        faults = NodeFaultPlan(seed=2, crash_nodes=(0, 1))
        run = ClusterDispatcher(cluster, node_faults=faults).run(
            _spec(), n_tiles=4, anytime=True
        )
        assert run.dropped_tiles > 0
        assert run.tiles_completed < run.tiles_total

    def test_backoff_priced_into_recovery(self):
        cluster = ClusterSpec(n_nodes=4, gpus_per_node=1)
        faults = NodeFaultPlan(seed=1, crash_nodes=(0,))
        policy = RetryPolicy(base_delay=0.5, seed=9)
        with_backoff = ClusterDispatcher(cluster, node_faults=faults).run(
            _spec(retry_policy=policy), n_tiles=8
        )
        without = ClusterDispatcher(cluster, node_faults=faults).run(
            _spec(), n_tiles=8
        )
        assert with_backoff.backoff_seconds > 0.0
        assert with_backoff.recovery_overhead > without.recovery_overhead
        np.testing.assert_array_equal(with_backoff.profile, without.profile)


class _TileOOM:
    """fault_plan stand-in: the tile with geometry ``key`` runs out of
    device memory on its first ``times`` attempts (None: on every one)."""

    corruptor = None

    def __init__(self, key, times=None):
        self.key = key
        self.times = times
        self.hits = 0

    def injector(self, label, tile, gpu_id, attempt):
        if tile_key(tile) == self.key and (
            self.times is None or self.hits < self.times
        ):
            self.hits += 1
            raise DeviceOutOfMemoryError(0, 0, f"gpu{gpu_id} (injected)")


class TestClusterOOMSplit:
    @pytest.mark.parametrize("times", [None, 1])
    @pytest.mark.parametrize("n_nodes", [1, 2])
    def test_split_tile_finishes_in_one_round(self, n_nodes, times):
        """Split children are filed under their planned tile, so an OOMing
        tile is not re-sharded and node-local child ids cannot collide."""
        spec = _spec()
        plan = spec.plan(n_tiles=16)
        first = tile_key(plan.tiles[0])
        run = ClusterDispatcher(
            ClusterSpec(n_nodes=n_nodes, gpus_per_node=1),
            policy=ExecutionPolicy(fault_plan=_TileOOM(first, times), oom_split=True),
        ).run(spec, plan=plan)
        assert run.rounds == 1
        assert run.tiles_completed == run.tiles_total == 16

        acc = ProfileAccumulator(spec.d, spec.n_q_seg, spec.policy)
        report = execute_plan(
            plan, NumericBackend(), GPUSimulator(spec.config.device, 1),
            accumulator=acc,
            policy=ExecutionPolicy(fault_plan=_TileOOM(first, times), oom_split=True),
        )
        assert report.splits
        np.testing.assert_array_equal(run.profile, acc.host_profile())
        np.testing.assert_array_equal(run.index, acc.host_index())
        # Split parents are planned ids; children are numbered per node,
        # so one node numbers them as the single-node run does.
        split = run.to_result(spec).split_tiles
        assert split.keys() == report.splits.keys()
        if n_nodes == 1:
            assert split == report.splits


class TestClusterResultCounters:
    """``to_result`` carries the accumulator's saved-work counters."""

    def _single_node(self, spec):
        from repro import matrix_profile

        return matrix_profile(spec.reference, m=spec.m, mode="FP32", n_tiles=8)

    @pytest.mark.parametrize("n_nodes", [1, 2])
    def test_saved_work_counters(self, n_nodes):
        spec = JobSpec.from_arrays(_series(n=260, d=2), None, 24, RunConfig(mode="FP32"))
        single = self._single_node(spec)
        assert single.precalc_saved_flops > 0
        result = ClusterDispatcher(
            ClusterSpec(n_nodes=n_nodes, gpus_per_node=1)
        ).run(spec, n_tiles=8).to_result(spec)
        np.testing.assert_array_equal(result.profile, single.profile)
        assert result.h2d_saved_bytes == single.h2d_saved_bytes
        assert result.split_tiles == single.split_tiles == {}
        if n_nodes == 1:
            assert result.precalc_saved_flops == single.precalc_saved_flops
        else:
            # Each node builds the planes its own tiles read once, so two
            # nodes amortise less plane work than one — but not none.
            assert 0 < result.precalc_saved_flops < single.precalc_saved_flops


class TestCoordinatorCrashResume:
    def test_resume_mid_recovery_is_bit_identical(self, tmp_path):
        cluster = ClusterSpec(n_nodes=4, gpus_per_node=1)
        spec = _spec()
        clean = _baseline("self", cluster)

        path = tmp_path / "journal"
        dispatcher = ClusterDispatcher(
            cluster, node_faults=NodeFaultPlan(seed=1, crash_nodes=(0, 2))
        )
        journal = RunJournal.create(
            path, spec, spec.plan(n_tiles=8),
            extra={"cluster": cluster.to_dict()},
        )
        real_record = journal.record
        calls = {"n": 0}

        def crashing_record(execution, accumulator):
            if calls["n"] >= 5:
                raise KeyboardInterrupt("coordinator dies mid-recovery")
            calls["n"] += 1
            real_record(execution, accumulator)

        journal.record = crashing_record
        with pytest.raises(KeyboardInterrupt):
            dispatcher.run(spec, n_tiles=8, journal=journal)

        # Resume under a *different* storm: the surviving work must slot
        # into the same ascending-prefix merge order.
        resumed = resume_cluster(
            path, node_faults=NodeFaultPlan(seed=2, crash_nodes=(1,))
        )
        assert resumed.tiles_restored == 5
        assert resumed.tiles_completed == 8
        assert resumed.dropped_tiles == 0
        np.testing.assert_array_equal(resumed.profile, clean.profile)
        np.testing.assert_array_equal(resumed.index, clean.index)

    def test_resume_requires_cluster_meta(self, tmp_path):
        spec = _spec()
        RunJournal.create(tmp_path / "j", spec, spec.plan(n_tiles=4))
        with pytest.raises(ValueError, match="cluster"):
            resume_cluster(tmp_path / "j")


class TestClusterBackend:
    """Nodes run the backend the job's config names, so a tensor-core
    cluster run matches the single-node tensor-core run bit for bit."""

    def _spec(self):
        config = RunConfig(mode="Mixed", backend="tensor_core")
        return JobSpec.from_arrays(_series(n=260, d=3), None, 24, config)

    def _single_node(self, spec):
        from repro import matrix_profile

        return matrix_profile(
            spec.reference, m=spec.m, mode="Mixed", backend="tensor_core",
            n_tiles=8,
        )

    def test_tensor_core_cluster_matches_single_node(self):
        spec = self._spec()
        single = self._single_node(spec)
        assert single.backend == "tensor_core"
        run = ClusterDispatcher(ClusterSpec(n_nodes=2, gpus_per_node=1)).run(
            spec, n_tiles=8
        )
        result = run.to_result(spec)
        assert result.n_tiles == single.n_tiles
        np.testing.assert_array_equal(result.profile.view(np.uint8),
                                      single.profile.view(np.uint8))
        np.testing.assert_array_equal(result.index, single.index)
        assert result.backend == "tensor_core"
        assert result.backend_fallback_reason is None

    def test_tensor_core_cluster_resume_matches_single_node(self, tmp_path):
        spec = self._spec()
        single = self._single_node(spec)
        cluster = ClusterSpec(n_nodes=2, gpus_per_node=1)
        path = tmp_path / "journal"
        journal = RunJournal.create(
            path, spec, spec.plan(n_tiles=8),
            extra={"cluster": cluster.to_dict()},
        )
        real_record = journal.record
        calls = {"n": 0}

        def crashing_record(execution, accumulator):
            if calls["n"] >= 3:
                raise KeyboardInterrupt("coordinator dies")
            calls["n"] += 1
            real_record(execution, accumulator)

        journal.record = crashing_record
        with pytest.raises(KeyboardInterrupt):
            ClusterDispatcher(cluster).run(spec, n_tiles=8, journal=journal)
        resumed = resume_cluster(path)
        assert resumed.tiles_restored == 3
        np.testing.assert_array_equal(resumed.profile.view(np.uint8),
                                      single.profile.view(np.uint8))
        np.testing.assert_array_equal(resumed.index, single.index)
        assert resumed.backend == "tensor_core"


class TestElasticity:
    def test_quota_validation_and_check(self):
        with pytest.raises(ValueError, match="max_pending"):
            TenantQuota(max_pending=0)
        quota = TenantQuota(max_pending=2, max_cells=1000.0)
        quota.check("t", pending=1, cells=10.0)
        with pytest.raises(QuotaExceededError, match="max_pending"):
            quota.check("t", pending=2, cells=10.0)
        with pytest.raises(QuotaExceededError, match="max_cells"):
            quota.check("t", pending=0, cells=5000.0)

    def test_autoscaler_hysteresis_and_cooldown(self):
        scaler = ClusterAutoscaler(
            min_nodes=1, max_nodes=4, scale_up_backlog=10.0,
            scale_down_backlog=1.0, cooldown=2,
        )
        assert scaler.observe(50.0, 2) == 3     # up
        assert scaler.observe(50.0, 3) == 3     # cooldown holds
        assert scaler.observe(50.0, 3) == 3     # still cooling
        assert scaler.observe(50.0, 3) == 4     # up again, clamped next
        assert scaler.observe(5.0, 4) == 4      # inside the deadband
        assert len(scaler.events) == 2

    def test_autoscaler_validation(self):
        with pytest.raises(ValueError, match="max_nodes"):
            ClusterAutoscaler(min_nodes=4, max_nodes=2)
        with pytest.raises(ValueError, match="scale_down_backlog"):
            ClusterAutoscaler(scale_up_backlog=1.0, scale_down_backlog=2.0)

    def test_dispatcher_resize(self):
        dispatcher = ClusterDispatcher(ClusterSpec(n_nodes=2))
        dispatcher.resize(4)
        assert dispatcher.cluster.n_nodes == 4
        assert dispatcher.resize_events == [(2, 4)]
        with pytest.raises(ValueError):
            dispatcher.resize(0)


class TestClusterService:
    def _ts(self):
        return _series(n=240, d=2, seed=9)

    def test_storm_service_matches_fault_free(self):
        from repro.service import JobRequest, MatrixProfileService

        ts = self._ts()
        clean = MatrixProfileService(
            n_gpus=2, cluster=ClusterSpec(n_nodes=4, gpus_per_node=2)
        ).submit_and_wait(JobRequest(ts, m=24))
        stormy_service = MatrixProfileService(
            n_gpus=2,
            cluster=ClusterSpec(n_nodes=4, gpus_per_node=2),
            node_faults=NodeFaultPlan(seed=7, crash_nodes=(1,)),
        )
        out = stormy_service.submit_and_wait(JobRequest(ts, m=24))
        assert out.status.value == "completed"
        np.testing.assert_array_equal(out.result.profile, clean.result.profile)
        np.testing.assert_array_equal(out.result.index, clean.result.index)
        snap = stormy_service.metrics.snapshot()
        assert snap.cluster_jobs == 1
        assert snap.node_deaths == 1
        assert snap.tiles_resharded > 0
        assert snap.recovery_seconds > 0.0
        assert dict(snap.to_rows())["node deaths"] == 1

    def test_quota_and_backpressure_shed_and_count(self):
        from repro.service import JobRequest, MatrixProfileService

        ts = self._ts()
        service = MatrixProfileService(
            n_gpus=2,
            cluster=ClusterSpec(n_nodes=2, gpus_per_node=2),
            default_quota=TenantQuota(max_pending=1),
            max_queue_depth=2,
        )
        service.submit(JobRequest(ts, m=24, tenant="a"))
        with pytest.raises(QuotaExceededError):
            service.submit(JobRequest(ts, m=24, tenant="a"))
        service.submit(JobRequest(ts, m=24, tenant="b"))
        with pytest.raises(BackpressureError):
            service.submit(JobRequest(ts, m=24, tenant="c"))
        service.process_all()
        snap = service.metrics.snapshot()
        assert snap.quota_rejections == 1
        assert snap.backpressure_rejections == 1
        assert snap.jobs_completed == 2

    def test_autoscaler_grows_fleet_under_backlog(self):
        from repro.service import JobRequest, MatrixProfileService

        ts = self._ts()
        service = MatrixProfileService(
            n_gpus=2,
            cluster=ClusterSpec(n_nodes=1, gpus_per_node=2),
            autoscaler=ClusterAutoscaler(
                min_nodes=1, max_nodes=4, scale_up_backlog=1e-4,
                scale_down_backlog=0.0, cooldown=0,
            ),
        )
        for _ in range(3):
            service.submit(JobRequest(ts, m=24))
        service.process_all()
        snap = service.metrics.snapshot()
        assert snap.autoscale_events >= 1
        assert service.cluster_dispatcher.cluster.n_nodes > 1

    def test_tenant_validation(self):
        from repro.service import JobRequest

        with pytest.raises(ValueError, match="tenant"):
            JobRequest(self._ts(), m=24, tenant="")


class TestClusterHealthReport:
    def test_render_cluster_health(self):
        from repro.reporting import render_cluster_health

        cluster = ClusterSpec(n_nodes=4, gpus_per_node=1)
        run = ClusterDispatcher(
            cluster, node_faults=NodeFaultPlan(seed=1, crash_nodes=(2,))
        ).run(_spec(), n_tiles=8)
        text = render_cluster_health(run)
        assert "cluster health" in text
        assert "dead" in text
        assert "re-sharded" in text
        assert "recovery overhead" in text
