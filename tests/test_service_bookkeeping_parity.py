"""Golden parity of the service tier's bookkeeping.

One deterministic script drives the batch service and the stream tier
through every bookkeeping path: a cache hit and a miss, a tile retry, a
deadline partial, a failed job, an OOM re-plan and an OOM split, a
health escalation, precision downgrades, quota and backpressure
rejections, a cluster job with a node death, an autoscale step, and
exact, gated, AB, backpressured and deadline-shedding stream tenants
with sliding re-bases.  Every clock is a fake one that advances a fixed
step per read, so the latencies, throughput and elapsed windows are
reproducible to the bit.

What is recorded: each :class:`MetricsSnapshot` (every field and its
``to_rows()``), both caches' ``stats()``, every :class:`JobOutcome` field
(result and partial state by content digest), every
:class:`IngestReport` and each tenant's :class:`StreamCounters`.  The
serialised record must equal ``tests/golden/service_bookkeeping.json``
byte for byte.

Regenerate the golden (only for an intended change of behaviour)::

    PYTHONPATH=src python tests/test_service_bookkeeping_parity.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.cluster import (
    BackpressureError,
    ClusterAutoscaler,
    ClusterSpec,
    NodeFaultPlan,
    QuotaExceededError,
    TenantQuota,
)
from repro.engine.faults import FaultPlan
from repro.gpu.device import A100
from repro.service import (
    JobRequest,
    LoadEstimator,
    MatrixProfileService,
    TransientDeviceError,
)
from repro.streams import StreamIngestService, TenantPolicy

GOLDEN = Path(__file__).parent / "golden" / "service_bookkeeping.json"


class FakeClock:
    """Advances by ``step`` on every read; ``t`` may also be bumped."""

    def __init__(self, step: float = 0.001):
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.shape}{arr.dtype}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def _plain(value):
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    return str(value)


def _outcome(outcome) -> dict:
    row = {}
    for f in dataclasses.fields(outcome):
        value = getattr(outcome, f.name)
        if f.name == "result" and value is not None:
            value = {
                "digest": _digest(value.profile, value.index),
                "mode": str(value.mode),
                "n_tiles": value.n_tiles,
                "escalations": sorted(
                    (int(k), str(v)) for k, v in value.escalations.items()
                ),
            }
        elif f.name == "partial_state" and value is not None:
            value = {
                "digest": _digest(value.profile, value.index),
                "rows_done": value.rows_done,
                "rows_total": value.rows_total,
            }
        row[f.name] = _plain(value)
    return row


def _service_record(service, outcomes) -> dict:
    snap = service.metrics.snapshot()
    return {
        "snapshot": _plain(dataclasses.asdict(snap)),
        "rows": _plain(snap.to_rows()),
        "cache": None if service.cache is None else _plain(service.cache.stats()),
        "stats_cache": (
            None if service.stats_cache is None
            else _plain(service.stats_cache.stats())
        ),
        "outcomes": [_outcome(o) for o in outcomes],
    }


def _make(**kw) -> MatrixProfileService:
    kw.setdefault("n_gpus", 2)
    kw.setdefault("n_workers", 1)
    kw.setdefault("clock", FakeClock())
    kw.setdefault(
        "estimator",
        LoadEstimator("A100", seconds_per_cell=1e-12, learn=False),
    )
    return MatrixProfileService(**kw)


def _wait_all(service, requests) -> list:
    jobs = [service.submit(r) for r in requests]
    service.process_all()
    return [job.outcome for job in jobs]


def _batch_scenarios(rng) -> dict:
    series = rng.normal(size=(120, 2)).cumsum(axis=0)
    other = rng.normal(size=(100, 2)).cumsum(axis=0)
    record = {}

    # Cache miss, hit, AB join, other modes; tile 1 of every job fails
    # its first attempt (one retry per executed job).
    def flaky(label, tile, gpu_id, attempt):
        if tile.tile_id == 1 and attempt == 0:
            raise TransientDeviceError(f"{label} tile 1")

    service = _make(fault_plan=SimpleNamespace(injector=flaky))
    outcomes = [
        service.submit_and_wait(JobRequest(reference=series, m=8)),
        service.submit_and_wait(JobRequest(reference=series, m=8)),
        service.submit_and_wait(
            JobRequest(reference=series, query=other, m=8, mode="FP32")
        ),
        service.submit_and_wait(
            JobRequest(reference=series, m=8, mode="FP16", n_tiles=4)
        ),
        service.submit_and_wait(
            JobRequest(reference=series, m=8, mode="FP16", n_tiles=4, deadline=1e6)
        ),
    ]
    record["cache"] = _service_record(service, outcomes)

    # Deadline partial: only the per-tile injector advances the clock.
    clock = FakeClock(step=0.0)

    def tick(label, tile, gpu_id, attempt):
        clock.t += 1.0

    service = _make(clock=clock, fault_plan=SimpleNamespace(injector=tick))
    outcomes = [
        service.submit_and_wait(
            JobRequest(reference=series, m=8, deadline=2.5, n_tiles=4)
        )
    ]
    record["deadline"] = _service_record(service, outcomes)

    # A failed job: every attempt of every tile fails.
    def always_fail(label, tile, gpu_id, attempt):
        raise TransientDeviceError("down")

    service = _make(fault_plan=SimpleNamespace(injector=always_fail), max_retries=2)
    outcomes = [service.submit_and_wait(JobRequest(reference=series, m=8))]
    record["failed"] = _service_record(service, outcomes)

    # OOM re-plan: no proactive planner, a tiny device.
    tiny = replace(A100, name="A100", mem_capacity=64 * 1024)
    service = _make(device=tiny, n_gpus=1)
    service._plan_tiles = lambda job, config: job.request.n_tiles or 1
    outcomes = [
        service.submit_and_wait(JobRequest(reference=rng.normal(size=(900, 4)), m=32))
    ]
    record["oom_replan"] = _service_record(service, outcomes)

    # OOM split in place and health escalation of corrupted tiles.
    service = _make(
        fault_plan=FaultPlan(seed=9, oom_rate=1.0), oom_tile_split=True,
        use_cache=False,
    )
    outcomes = [service.submit_and_wait(JobRequest(reference=series, m=8, n_tiles=4))]
    record["oom_split"] = _service_record(service, outcomes)
    service = _make(fault_plan=FaultPlan(seed=11, corrupt_rate=1.0, corrupt_count=2))
    outcomes = [
        service.submit_and_wait(
            JobRequest(reference=series, m=8, mode="FP16", n_tiles=4)
        )
    ]
    record["escalation"] = _service_record(service, outcomes)

    # Precision downgrades under a pessimistic, non-learning estimator.
    service = _make(
        estimator=LoadEstimator("A100", seconds_per_cell=1e-4, learn=False)
    )
    outcomes = _wait_all(
        service, [JobRequest(reference=series, m=8, deadline=10.0) for _ in range(6)]
    )
    record["downgrades"] = _service_record(service, outcomes)

    # Quota and backpressure rejections at submission.
    service = _make(default_quota=TenantQuota(max_pending=1), max_queue_depth=2)
    rejected = []
    requests = [
        JobRequest(reference=series, m=8, tenant=t) for t in ("a", "a", "b", "c")
    ]
    jobs = []
    for request in requests:
        try:
            jobs.append(service.submit(request))
        except (QuotaExceededError, BackpressureError) as exc:
            rejected.append(type(exc).__name__)
    service.process_all()
    record["rejections"] = _service_record(service, [j.outcome for j in jobs])
    record["rejections"]["rejected"] = rejected
    return record


def _cluster_scenarios() -> dict:
    rng = np.random.default_rng(9)
    series = rng.normal(size=(240, 2)).cumsum(axis=0)
    record = {}
    service = _make(
        cluster=ClusterSpec(n_nodes=4, gpus_per_node=2),
        node_faults=NodeFaultPlan(seed=7, crash_nodes=(1,)),
    )
    outcomes = [
        service.submit_and_wait(JobRequest(series, m=24)),
        service.submit_and_wait(JobRequest(series, m=24)),
        service.submit_and_wait(JobRequest(series, m=24, mode="FP32", deadline=1e6)),
    ]
    record["node_death"] = _service_record(service, outcomes)

    service = _make(
        cluster=ClusterSpec(n_nodes=1, gpus_per_node=2),
        autoscaler=ClusterAutoscaler(
            min_nodes=1, max_nodes=4, scale_up_backlog=1e-4,
            scale_down_backlog=0.0, cooldown=0,
        ),
        estimator=LoadEstimator("A100", seconds_per_cell=1e-6, learn=False),
    )
    outcomes = _wait_all(service, [JobRequest(series, m=24) for _ in range(3)])
    record["autoscale"] = _service_record(service, outcomes)
    return record


def _report(report) -> dict:
    row = {}
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        if f.name == "alarms":
            value = [(s.position, s.estimate, s.threshold) for s in value]
        row[f.name] = _plain(value)
    return row


def _stream_scenarios(rng) -> dict:
    t = np.arange(960)
    series = np.stack(
        [np.sin(2 * np.pi * t / 24), np.cos(2 * np.pi * t / 31)], axis=1
    ) + 0.05 * rng.normal(size=(960, 2))
    series[600:616] += rng.normal(scale=2.0, size=(16, 2))  # a shape anomaly
    reference = series[:200] + 0.1
    # Sparse output corruption makes the health policy escalate some
    # stream tiles.
    svc = StreamIngestService(
        service=_make(fault_plan=FaultPlan(seed=5, corrupt_rate=0.05))
    )
    svc.register("exact", TenantPolicy(m=8, mode="FP32", window="sliding", retention=96))
    svc.register(
        "gated",
        TenantPolicy(
            m=8, mode="FP32", window="sliding", retention=160, sketch_gate=True,
            sketch_warmup=16, sketch_seed=1,
        ),
    )
    svc.register("ab", TenantPolicy(m=8, mode="FP16"), reference=reference)
    svc.register("drop", TenantPolicy(m=8, mode="FP32", max_batch=24))
    svc.register("shed", TenantPolicy(m=8, mode="FP64", deadline=1e-9))
    reports = {name: [] for name in svc.tenants()}
    for start in range(0, 960, 32):
        for name in svc.tenants():
            if name in ("ab", "shed", "drop") and start >= 320:
                continue
            reports[name].append(_report(svc.ingest(name, series[start : start + 32])))
    record = _service_record(svc.service, [])
    record["reports"] = reports
    record["counters"] = {
        name: dataclasses.asdict(svc.tenant(name).counters) for name in svc.tenants()
    }
    record["profiles"] = {name: _digest(*svc.profile(name)) for name in svc.tenants()}
    record["scores"] = hashlib.sha256(
        repr(svc.scores("gated")).encode()
    ).hexdigest()[:16]
    return _plain(record)


def scenario() -> dict:
    rng = np.random.default_rng(1234)
    return {
        "batch": _batch_scenarios(rng),
        "cluster": _cluster_scenarios(),
        "streams": _stream_scenarios(rng),
    }


def render() -> str:
    return json.dumps(scenario(), indent=1, sort_keys=True) + "\n"


def test_bookkeeping_matches_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render())
    print(f"wrote {GOLDEN}")
