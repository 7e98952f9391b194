"""One execution policy for every tier.

:class:`~repro.engine.dispatch.ExecutionPolicy` is the recovery policy a
tier builds once and hands to every plan it runs.  These tests pin:

* its byte classification: every field is declared byte-neutral or
  byte-changing, and varying a byte-neutral field under a transient +
  OOM fault storm leaves the profile, index and costs byte-identical;
* that one instance drives the batch, stream, service and cluster tiers,
  each of which reports the retries, escalations and splits it caused
  (a tier that drops a field fails here);
* its validation at construction.
"""

from __future__ import annotations

import time
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.cluster import ClusterDispatcher, ClusterSpec
from repro.core.config import RetryPolicy, RunConfig
from repro.core.multi_tile import _run_plan, compute_multi_tile
from repro.engine import (
    ExecutionPolicy,
    FaultPlan,
    HealthPolicy,
    JobSpec,
    TileObserver,
    TileRetryExhaustedError,
)
from repro.gpu.memory import DeviceOutOfMemoryError
from repro.gpu.simulator import GPUSimulator
from repro.kernels.layout import to_device_layout
from repro.service import MatrixProfileService
from repro.service.scheduler import TileScheduler
from repro.streams import IncrementalMatrixProfile, StreamIngestService

M = 16
#: Every retry sleeps through the policy's sleeper.
CONFIG = RunConfig(
    mode="FP16", n_tiles=9, n_gpus=3,
    retry_policy=RetryPolicy(base_delay=1e-4, seed=1),
)


def _series(n=240, d=2, seed=5):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 16.0 * np.pi, n)
    return np.sin(t)[:, None] * np.linspace(0.5, 1.5, d) + 0.1 * rng.normal(size=(n, d))


def _storm(corrupt_rate=0.0):
    return FaultPlan(seed=3, transient_rate=0.3, oom_rate=0.3, corrupt_rate=corrupt_rate)


class _Retries(TileObserver):
    def __init__(self):
        self.count = 0

    def on_tile_retry(self, tile, gpu_id, attempt, error):
        self.count += 1


def _batch(policy):
    spec = JobSpec.from_arrays(_series(), None, M, CONFIG)
    retries = _Retries()
    result = _run_plan(spec, spec.plan(), policy=policy, observers=[retries])
    return result, retries.count


class TestByteClassification:
    #: Two values of each byte-neutral field, both enough to recover the
    #: storm.  A field declared byte-neutral needs an entry here.
    VARIANTS = {
        "max_retries": (1, 4),
        "sleeper": (time.sleep, [].append),
    }

    def test_every_field_is_classified_once(self):
        names = {f.name for f in fields(ExecutionPolicy)}
        neutral = set(ExecutionPolicy.BYTE_NEUTRAL)
        changing = set(ExecutionPolicy.BYTE_CHANGING)
        assert not neutral & changing
        assert neutral | changing == names
        assert set(self.VARIANTS) == neutral

    @pytest.mark.parametrize("name", ExecutionPolicy.BYTE_NEUTRAL)
    def test_byte_neutral_field_keeps_output_bytes(self, name):
        runs = []
        for value in self.VARIANTS[name]:
            storm = _storm()
            base = dict(health=HealthPolicy(), max_retries=2, fault_plan=storm,
                        oom_split=True)
            result, retries = _batch(ExecutionPolicy(**{**base, name: value}))
            counts = storm.event_counts()
            assert counts["transient"] == retries > 0
            assert counts["oom"] > 0 and result.split_tiles
            runs.append(result)
        first, second = runs
        assert first.profile.tobytes() == second.profile.tobytes()
        assert np.array_equal(first.index, second.index)
        assert first.costs == second.costs
        assert first.split_tiles == second.split_tiles


class TestOnePolicyEveryTier:
    """One policy instance, four tiers: each reports what it caused."""

    @pytest.fixture
    def run(self):
        slept = []
        policy = ExecutionPolicy(
            health=HealthPolicy(), max_retries=2, fault_plan=_storm(corrupt_rate=0.5),
            oom_split=True, sleeper=slept.append,
        )

        def tier(fn):
            before = len(slept)
            retries, escalations, splits = fn(policy)
            # Every retry waited through the policy's sleeper.
            assert len(slept) - before == retries > 0
            assert escalations > 0
            assert splits > 0

        return tier

    def test_batch(self, run):
        def batch(policy):
            result, retries = _batch(policy)
            return retries, len(result.escalations), len(result.split_tiles)

        run(batch)

    def test_stream(self, run):
        def stream(policy):
            inc = IncrementalMatrixProfile(M, CONFIG, policy=policy)
            series = _series(seed=8)
            for start in range(0, 240, 40):
                inc.append(series[start : start + 40])
            return inc.tile_retries, len(inc.escalations), inc.tiles_split

        run(stream)

    def test_service(self, run):
        def service(policy):
            sim = GPUSimulator(CONFIG.device, CONFIG.n_gpus, CONFIG.n_streams)
            layout = to_device_layout(_series(seed=9), CONFIG.policy.storage)
            job = TileScheduler(sim, policy).execute(
                layout, layout, M, CONFIG, None, n_tiles=9
            )
            return job.tile_retries, len(job.escalations), job.tiles_split

        run(service)

    def test_cluster(self, run):
        def cluster(policy):
            spec = JobSpec.from_arrays(_series(seed=10), None, M, CONFIG)
            result = ClusterDispatcher(
                ClusterSpec(n_nodes=2, gpus_per_node=2), policy=policy
            ).run(spec, n_tiles=9)
            assert result.tiles_completed == result.tiles_total
            # The cluster result keeps no retry count: count the storm's.
            retries = sum(e.kind == "transient" for e in policy.fault_plan.events)
            return retries, len(result.escalations), len(result.split_tiles)

        run(cluster)

    def test_service_tiers_share_the_service_policy(self):
        storm = _storm()
        service = MatrixProfileService(
            n_gpus=2, n_workers=1, health=HealthPolicy(), max_retries=3,
            fault_plan=storm, oom_tile_split=True,
            cluster=ClusterSpec(n_nodes=2, gpus_per_node=1),
        )
        assert service.policy == ExecutionPolicy(
            health=HealthPolicy(), max_retries=3, fault_plan=storm, oom_split=True
        )
        assert service.scheduler.policy is service.policy
        assert service.cluster_dispatcher.policy is service.policy
        ingest = StreamIngestService(service)
        assert ingest._pool()["policy"] is service.policy

    @pytest.mark.parametrize("field", ["max_retries", "oom_split"])
    def test_dropping_a_recovery_field_fails_the_run(self, field):
        policy = ExecutionPolicy(max_retries=2, fault_plan=_storm(), oom_split=True)
        dropped = replace(policy, **{field: getattr(ExecutionPolicy(), field)})
        error = TileRetryExhaustedError if field == "max_retries" else DeviceOutOfMemoryError
        with pytest.raises(error):
            _batch(dropped)


class TestValidation:
    @pytest.mark.parametrize("build", [
        lambda: ExecutionPolicy(max_retries=-1),
        lambda: MatrixProfileService(max_retries=-1),
        lambda: compute_multi_tile(_series(), None, M, CONFIG, max_retries=-1),
    ], ids=["policy", "service", "batch"])
    def test_negative_max_retries_raises_at_construction(self, build):
        with pytest.raises(ValueError, match="max_retries must be >= 0"):
            build()

    def test_policy_is_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionPolicy().max_retries = 3
