"""The four benchmark workloads.

Each workload draws its inputs from the seed, runs passes of a fixed op
script through the public entry points (``repro.matrix_profile``,
``MatrixProfileService``, ``StreamIngestService``) and, after the timed
phase, checks the last pass's outputs.  Every pass starts from fresh
program state (new service, new tenants, new journal paths), so the same
op has the same work in every pass and its latencies can be compared
across passes.

The seed draws the series values and a small length offset (0-3 samples),
so the modelled GPU clock, which depends on shapes only, differs between
seeds like the host clock does.
"""

from __future__ import annotations

import math
import shutil
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import (
    JobRequest,
    JobStatus,
    MatrixProfileService,
    StreamIngestService,
    TenantPolicy,
    matrix_profile,
)
from repro.core.config import default_exclusion_zone
from repro.core.tiling import compute_symmetric_tile_list, compute_tile_list
from repro.engine.health import HealthPolicy
from repro.precision.errors import (
    implied_correlation,
    streaming_qt_error_bound,
    tc_gemm_error_bound,
)
from repro.precision.modes import PrecisionMode

from . import stats

#: Paper kernel labels (``result.costs`` / ``kernel_breakdown``) -> short names.
KERNELS = {
    "precalculation": "precalc",
    "dist_calc": "dist_calc",
    "sort_&_incl_scan": "sort_scan",
    "update_mat_prof": "update",
}

#: A service request that takes longer than this counts as failed.
REQUEST_TIMEOUT_S = 60.0

#: Fixed seed of everything that is not input data (the service request
#: mix, the checked subsample): every input seed sees the same op script,
#: so cache hits and evictions repeat across seeds.
SCRIPT_SEED = 20220530


def _op_scope(tracer, op_id: str):
    return tracer.op(op_id) if tracer is not None else nullcontext()


def _report_failure(what: str) -> None:
    print(f"[e2e] {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


def sine_noise(rng: np.random.Generator, n: int, d: int, noise: float = 0.1) -> np.ndarray:
    """``(n, d)`` sine per dimension plus Gaussian noise.

    The frequencies are fixed (log-spaced over periods of 20-200 samples);
    the seed draws phases and noise.  Seeds then change the values but
    not the character of the series, which sets how large the
    reduced-precision errors are.
    """
    t = np.arange(n)[:, None]
    freq = 0.005 * 10.0 ** (np.arange(d) / max(d - 1, 1))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=d)
    return np.sin(2.0 * np.pi * freq * t + phase) + noise * rng.standard_normal((n, d))


@dataclass
class Model:
    """Modelled-clock and computed-cost totals of one pass."""

    gpu_s: float = 0.0
    merge_s: float = 0.0
    h2d_saved_bytes: float = 0.0
    kernel_s: dict = field(default_factory=lambda: dict.fromkeys(KERNELS.values(), 0.0))
    flops: dict = field(default_factory=lambda: dict.fromkeys(KERNELS.values(), 0.0))
    bytes: dict = field(default_factory=lambda: dict.fromkeys(KERNELS.values(), 0.0))

    def add_costs(self, costs) -> None:
        for label, cost in costs.items():
            self.flops[KERNELS[label]] += cost.flops
            self.bytes[KERNELS[label]] += cost.bytes_dram

    def add_breakdown(self, breakdown) -> None:
        for label, seconds in breakdown.items():
            if label in KERNELS:
                self.kernel_s[KERNELS[label]] += seconds

    def add_result(self, result) -> None:
        self.add_costs(result.costs)
        self.add_breakdown(result.kernel_breakdown())
        self.merge_s += result.merge_time
        self.h2d_saved_bytes += result.h2d_saved_bytes


@dataclass
class PassRecord:
    wall: float
    #: One lane per closed-loop caller: op latencies in script order,
    #: ``None`` where the op failed.
    lanes: list
    model: Model
    stats: dict = field(default_factory=dict)
    outputs: object = None
    traced: bool = False

    @property
    def latencies(self) -> list:
        return [lat for lane in self.lanes for lat in lane if lat is not None]

    @property
    def attempted(self) -> int:
        return sum(len(lane) for lane in self.lanes)

    @property
    def failed(self) -> int:
        return sum(lat is None for lane in self.lanes for lat in lane)


@dataclass
class Check:
    name: str
    ok: bool
    #: Correlation-space error against FP64 over the a-priori bound: the
    #: largest and the mean over profile entries (``None`` for checks that
    #: are not reduced-precision comparisons).
    max_ratio: float | None = None
    mean_ratio: float | None = None
    detail: str = ""


def tile_edge(n_r_seg: int, n_q_seg: int, n_tiles: int, symmetric: bool) -> int:
    """Longest tile side: the recurrence length of the Section V-B bound."""
    tiles = (
        compute_symmetric_tile_list(n_r_seg, n_tiles)
        if symmetric
        else compute_tile_list(n_r_seg, n_q_seg, n_tiles)
    )
    return max(max(t.n_rows, t.n_cols) for t in tiles)


def check_profile(
    name, profile, index, *, m, mode, backend, reference, n_r_seg, self_join, edge
) -> Check:
    """Index validity plus the correlation-space error against an FP64
    ``reference`` profile, judged by the mode's a-priori bound for a
    recurrence of ``edge`` rows."""
    if not np.isfinite(profile).all():
        return Check(name, False, detail="non-finite profile entries")
    if index.min() < 0 or index.max() >= n_r_seg:
        return Check(name, False, detail="index out of range")
    if self_join:
        zone = default_exclusion_zone(m)
        cols = np.arange(index.shape[0])[:, None]
        if (np.abs(index - cols) <= zone).any():
            return Check(name, False, detail="index inside the exclusion zone")
    err = np.abs(
        implied_correlation(np.asarray(profile, dtype=np.float64), m)
        - implied_correlation(reference, m)
    )
    mode = PrecisionMode.parse(mode)
    if mode is PrecisionMode.FP64:
        return Check(name, bool(err.max() <= 1e-8), detail=f"fp64 corr err {err.max():.3g}")
    if backend == "tensor_core":
        bound = tc_gemm_error_bound(edge, m, mode)
    else:
        bound = streaming_qt_error_bound(edge, m, mode)
    if not math.isfinite(bound):
        return Check(name, True, detail=f"corr err {err.max():.3g}, bound infinite")
    ratio = float(err.max()) / bound
    return Check(
        name, ratio <= 1.0, ratio, float(err.mean()) / bound,
        f"corr err {err.max():.3g} bound {bound:.3g}",
    )


class Workload:
    """One workload: seeded inputs, timed passes, untimed checks."""

    name = ""
    #: Workload-specific per-layer metrics; 0 where the workload does not
    #: exercise the layer.
    STAT_METRICS = (
        "service.queue_wait_pct",
        "service.execute_busy_pct",
        "service.cache_hit_ratio",
        "service.cache_evictions",
        "service.stats_cache_hit_ratio",
        "service.downgrades",
        "service.latency_p95_ratio",
        "streams.rebases",
        "streams.band_tiles",
        "streams.exact_frac",
        "streams.ingest_p95_ratio",
    )

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        """Warm-up jobs and construction, timed as ``setup_s``."""

    def make_inputs(self) -> None:
        """Generate the timed inputs (not part of ``setup_s``)."""

    def run_pass(self, index: int, tracer) -> PassRecord:
        raise NotImplementedError

    def check(self, last: PassRecord) -> list[Check]:
        raise NotImplementedError

    def derived(self, ops_per_s: float) -> dict:
        """Workload-native throughput units derived from ops per second."""
        return {}

    def layer_stats(self, passes, tracer) -> dict:
        return dict.fromkeys(self.STAT_METRICS, 0.0)


# ----------------------------------------------------------------------
# Batch workloads: one caller, a fixed list of matrix_profile jobs


@dataclass(frozen=True)
class BatchJob:
    mode: str
    ab: bool = False
    n_tiles: int = 4
    backend: str | None = None
    symmetric: bool = False
    variant: str = "plain"

    @property
    def label(self) -> str:
        parts = [self.mode, "ab" if self.ab else "self", f"t{self.n_tiles}"]
        if self.backend:
            parts.append(self.backend)
        if self.symmetric:
            parts.append("sym")
        if self.variant != "plain":
            parts.append(self.variant)
        return "-".join(parts)


class BatchWorkload(Workload):
    m = 32
    d = 8
    base_n_seg = 1024
    jobs: tuple[BatchJob, ...] = ()
    warmup_jobs: tuple[BatchJob, ...] = ()

    def __init__(self, seed, smoke, scratch):
        super().__init__(seed, smoke, scratch)
        self.n_seg = self.base_n_seg + int(self.rng.integers(0, 4))

    def _kwargs(self, job: BatchJob, journal_dir: Path | None) -> dict:
        kwargs = {"mode": job.mode, "n_tiles": job.n_tiles}
        if job.backend is not None:
            kwargs["backend"] = job.backend
        if job.symmetric:
            kwargs["symmetric_tiles"] = True
        if job.variant == "health":
            kwargs["health"] = HealthPolicy()
        elif job.variant == "parallel":
            kwargs["parallel_workers"] = 2
        elif job.variant == "journal":
            kwargs["journal"] = str(journal_dir)
        elif job.variant == "auto":
            kwargs["auto"] = True
        return kwargs

    def setup(self) -> None:
        small_rng = np.random.default_rng(self.seed + 7919)
        n = 160 + self.m - 1
        x = sine_noise(small_rng, n, self.d)
        y = sine_noise(small_rng, n, self.d)
        for job in self.warmup_jobs:
            matrix_profile(x, y if job.ab else None, m=self.m, **self._kwargs(job, None))

    def make_inputs(self) -> None:
        n = self.n_seg + self.m - 1
        self.x = sine_noise(self.rng, n, self.d)
        self.y = sine_noise(self.rng, n, self.d)

    def run_pass(self, index: int, tracer) -> PassRecord:
        pass_dir = self.scratch / f"pass{index}"
        lane, outputs = [], {}
        model = Model()
        start = time.perf_counter()
        for i, job in enumerate(self.jobs):
            kwargs = self._kwargs(job, pass_dir / f"job{i}")
            t0 = time.perf_counter()
            try:
                with _op_scope(tracer, f"p{index}j{i}"):
                    result = matrix_profile(
                        self.x, self.y if job.ab else None, m=self.m, **kwargs
                    )
            except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
                _report_failure(f"{self.name} job {job.label}")
                lane.append(None)
                continue
            lane.append(time.perf_counter() - t0)
            model.add_result(result)
            model.gpu_s += result.modeled_time
            outputs[i] = result
        wall = time.perf_counter() - start
        shutil.rmtree(pass_dir, ignore_errors=True)
        return PassRecord(wall, [lane], model, outputs=outputs, traced=tracer is not None)

    def check(self, last: PassRecord) -> list[Check]:
        refs = {
            ab: matrix_profile(self.x, self.y if ab else None, m=self.m, mode="FP64").profile
            for ab in {job.ab for job in self.jobs}
        }
        checks = []
        for i, job in enumerate(self.jobs):
            result = last.outputs.get(i)
            if result is None:
                checks.append(Check(job.label, False, detail="job failed"))
                continue
            edge = tile_edge(self.n_seg, self.n_seg, result.n_tiles, job.symmetric)
            checks.append(check_profile(
                job.label, result.profile, result.index, m=self.m, mode=result.mode,
                backend=result.backend, reference=refs[job.ab], n_r_seg=self.n_seg,
                self_join=not job.ab, edge=edge,
            ))
        return checks

    def derived(self, ops_per_s: float) -> dict:
        return {"cells_per_s": ops_per_s * self.n_seg * self.n_seg * self.d}


class BatchKernels(BatchWorkload):
    """Few large tiles: per-cell kernel work dominates the wall clock."""

    name = "batch_kernels"
    m = 32
    d = 8
    base_n_seg = 1024
    jobs = (
        *(BatchJob(mode) for mode in ("FP64", "FP32", "FP16", "Mixed", "FP16C")),
        BatchJob("Mixed", backend="tensor_core"),
        BatchJob("FP16C", backend="tensor_core"),
        BatchJob("FP32", n_tiles=16, symmetric=True),
        BatchJob("FP32", ab=True),
    )
    warmup_jobs = jobs

    def __init__(self, seed, smoke, scratch):
        if smoke:
            self.d, self.base_n_seg = 4, 192
        super().__init__(seed, smoke, scratch)


class BatchTiles(BatchWorkload):
    """Many small tiles: per-tile engine work is on the path."""

    name = "batch_tiles"
    m = 16
    d = 2
    base_n_seg = 384
    n_tiles = 100
    variants = ("plain", "health", "parallel", "journal", "auto")
    modes = ("FP32", "FP16", "Mixed")

    def __init__(self, seed, smoke, scratch):
        if smoke:
            self.base_n_seg, self.n_tiles = 128, 16
        super().__init__(seed, smoke, scratch)
        self.jobs = tuple(
            BatchJob(mode, ab=ab, n_tiles=self.n_tiles, variant=variant)
            for mode in self.modes
            for ab in (False, True)
            for variant in self.variants
        )
        self.warmup_jobs = tuple(BatchJob(mode) for mode in self.modes)

    def check(self, last: PassRecord) -> list[Check]:
        checks = super().check(last)
        # Health, parallel dispatch, the journal and the tuner sit outside
        # RunConfig.cache_key(): each must reproduce the plain job's bytes.
        plain = {
            (job.mode, job.ab): last.outputs.get(i)
            for i, job in enumerate(self.jobs)
            if job.variant == "plain"
        }
        for i, job in enumerate(self.jobs):
            base, result = plain[(job.mode, job.ab)], last.outputs.get(i)
            if job.variant == "plain" or base is None or result is None:
                continue
            same = np.array_equal(result.profile, base.profile) and np.array_equal(
                result.index, base.index
            )
            checks.append(Check(f"{job.label}=plain", same))
        return checks


# ----------------------------------------------------------------------
# Service: closed-loop clients of one MatrixProfileService


@dataclass(frozen=True)
class Request:
    series: tuple  # ("hot", k) or ("fresh", client, i)
    m: int
    mode: str
    n_tiles: int


class ServiceMixed(Workload):
    """Cache reads and writes, admission and two workers on the path."""

    name = "service_mixed"
    n = 384
    d = 3
    hot_series = 8
    clients = 2
    requests_per_client = 100
    hot_share = 0.7
    ms = (32, 48)
    modes = ("FP64", "FP32", "Mixed", "FP16")
    tiles = (1, 4)

    def __init__(self, seed, smoke, scratch):
        if smoke:
            self.n, self.requests_per_client = 160, 12
        super().__init__(seed, smoke, scratch)
        self.n_samples = self.n + int(self.rng.integers(0, 4))
        script = np.random.default_rng(SCRIPT_SEED)
        self.script = [
            [
                Request(
                    ("hot", int(script.integers(self.hot_series)))
                    if script.random() < self.hot_share
                    else ("fresh", c, i),
                    int(script.choice(self.ms)),
                    str(script.choice(self.modes)),
                    int(script.choice(self.tiles)),
                )
                for i in range(self.requests_per_client)
            ]
            for c in range(self.clients)
        ]
        self._ready = None

    def _service(self) -> MatrixProfileService:
        return MatrixProfileService(n_gpus=2, n_workers=self.clients)

    def setup(self) -> None:
        small = sine_noise(np.random.default_rng(self.seed + 7919), 128, self.d)
        for mode in self.modes:
            matrix_profile(small, m=self.ms[0], mode=mode, n_tiles=4)
        self._ready = self._service()

    def make_inputs(self) -> None:
        self.series = {
            ("hot", k): sine_noise(self.rng, self.n_samples, self.d)
            for k in range(self.hot_series)
        }
        for requests in self.script:
            for req in requests:
                if req.series not in self.series:
                    self.series[req.series] = sine_noise(self.rng, self.n_samples, self.d)

    def run_pass(self, index: int, tracer) -> PassRecord:
        svc, self._ready = self._ready or self._service(), None
        lanes = [[None] * self.requests_per_client for _ in range(self.clients)]
        outcomes: dict = {}
        requests = []

        def client(c: int) -> None:
            for i, req in enumerate(self.script[c]):
                op = f"p{index}c{c}r{i}"
                t0 = time.perf_counter()
                try:
                    with _op_scope(tracer, op):
                        job = svc.submit(JobRequest(
                            reference=self.series[req.series], m=req.m,
                            mode=req.mode, n_tiles=req.n_tiles,
                        ))
                        outcome = job.wait(REQUEST_TIMEOUT_S)
                except Exception:  # noqa: BLE001 - a failed request is counted
                    _report_failure(f"{self.name} request {op}")
                    continue
                latency = time.perf_counter() - t0
                if outcome is not None and outcome.status is JobStatus.COMPLETED:
                    lanes[c][i] = latency
                    outcomes[(c, i)] = outcome
                    requests.append((op, job.job_id, latency))

        threads = [threading.Thread(target=client, args=(c,)) for c in range(self.clients)]
        with svc:
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - start
        model = Model()
        for outcome in outcomes.values():
            if not outcome.cache_hit:
                model.add_result(outcome.result)
                model.gpu_s = max(model.gpu_s, outcome.result.timeline.makespan)
        cache = svc.cache.stats()
        snap = svc.metrics.snapshot()
        stat_lookups = snap.stats_cache_hits + snap.stats_cache_misses
        pass_stats = {
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "cache_evictions": cache["evictions"],
            "stats_cache_hit_ratio": (
                snap.stats_cache_hits / stat_lookups if stat_lookups else 0.0
            ),
            "downgrades": snap.precision_downgrades,
            "requests": requests,
        }
        return PassRecord(
            wall, lanes, model, pass_stats, outputs=outcomes, traced=tracer is not None
        )

    def check(self, last: PassRecord) -> list[Check]:
        """Every request of the pass against FP64 at its effective mode."""
        refs: dict = {}
        return [
            self._check_request(f"c{c}r{i}", req, last.outputs.get((c, i)), refs)
            for c, requests in enumerate(self.script)
            for i, req in enumerate(requests)
        ]

    def _check_request(self, op: str, req: Request, outcome, refs: dict) -> Check:
        name = f"{op}-{req.mode}-t{req.n_tiles}"
        if outcome is None:
            return Check(name, False, detail="request failed")
        result = outcome.result
        key = (req.series, req.m)
        if key not in refs:
            refs[key] = matrix_profile(self.series[req.series], m=req.m).profile
        n_seg = self.n_samples - req.m + 1
        return check_profile(
            name, result.profile, result.index, m=req.m, mode=result.mode,
            backend=result.backend, reference=refs[key], n_r_seg=n_seg, self_join=True,
            edge=tile_edge(n_seg, n_seg, result.n_tiles, symmetric=False),
        )

    def derived(self, ops_per_s: float) -> dict:
        return {"requests_per_s": ops_per_s}

    def layer_stats(self, passes, tracer) -> dict:
        out = super().layer_stats(passes, tracer)
        hits = sum(p.stats["cache_hits"] for p in passes)
        lookups = hits + sum(p.stats["cache_misses"] for p in passes)
        out["service.cache_hit_ratio"] = hits / max(lookups, 1)
        for key in ("cache_evictions", "stats_cache_hit_ratio", "downgrades"):
            out[f"service.{key}"] = stats.quartiles([p.stats[key] for p in passes])[1]
        out["service.latency_p95_ratio"] = _tail_ratio(
            [lat for p in passes for lat in p.latencies])
        traced = [p for p in passes if p.traced]
        if tracer is not None and traced:
            submit, execute = {}, {}
            for s in tracer.spans:
                if s.name == "service.submit":
                    submit[s.op] = submit.get(s.op, 0.0) + s.duration
                elif s.name == "service.execute":
                    execute[s.op] = execute.get(s.op, 0.0) + s.duration
            waits = [
                max(latency - submit.get(op, 0.0) - execute.get(f"job{job_id}", 0.0), 0.0)
                / latency
                for p in traced for op, job_id, latency in p.stats["requests"]
            ]
            if waits:
                out["service.queue_wait_pct"] = 100.0 * stats.percentile(waits, 50)
            wall = sum(p.wall for p in traced)
            out["service.execute_busy_pct"] = (
                100.0 * sum(execute.values()) / (self.clients * wall)
            )
        return out


def _tail_ratio(latencies) -> float:
    """p95 latency over the median, or the highest lower percentile with
    >= 10 samples beyond it (1.0 when even the median has fewer)."""
    if not latencies:
        return 0.0
    p = stats.tail_percentile(len(latencies), candidates=(95.0, 90.0, 75.0, 50.0))
    if p is None:
        return 1.0
    return stats.percentile(latencies, p) / stats.percentile(latencies, 50)


# ----------------------------------------------------------------------
# Streams: one producer, two tenants of one StreamIngestService


class StreamIngest(Workload):
    """Thin band tiles through the growing plane cache, plus sketch gating."""

    name = "stream_ingest"
    m = 64
    d = 2
    batch = 32
    samples = 4096
    retention = 1024
    mode = "FP32"

    def __init__(self, seed, smoke, scratch):
        if smoke:
            self.m, self.samples, self.retention = 32, 1024, 256
        super().__init__(seed, smoke, scratch)
        self._ready = None

    def _policy(self, gated: bool) -> TenantPolicy:
        extra = dict(sketch_gate=True, sketch_warmup=24, sketch_seed=1) if gated else {}
        return TenantPolicy(
            m=self.m, mode=self.mode, window="sliding", retention=self.retention, **extra
        )

    def _service(self) -> StreamIngestService:
        svc = StreamIngestService(n_gpus=1)
        svc.register("exact", self._policy(gated=False))
        svc.register("gated", self._policy(gated=True))
        return svc

    def setup(self) -> None:
        small = sine_noise(np.random.default_rng(self.seed + 7919), 4 * self.m, self.d)
        matrix_profile(small, m=self.m, mode=self.mode)
        self._ready = self._service()

    def make_inputs(self) -> None:
        n = self.samples
        self.sensor = sine_noise(self.rng, n, self.d, noise=0.3)
        wave = sine_noise(self.rng, n, self.d, noise=0.05)
        # Planted discord: a noise burst, a shape anomaly that per-window
        # z-normalisation cannot hide (an offset bump it would).
        self.discord_at = int(0.8 * n)
        wave[self.discord_at : self.discord_at + self.m] = self.rng.standard_normal(
            (self.m, self.d)
        )
        self.wave = wave

    def run_pass(self, index: int, tracer) -> PassRecord:
        """One op is one producer step: a batch into each tenant."""
        svc, self._ready = self._ready or self._service(), None
        feeds = (("exact", self.sensor), ("gated", self.wave))
        seen: dict[int, object] = {}
        alarms: list[int] = []
        # The exact tenant's profile right after each re-base, checked
        # later against a batch run over the samples it retained.
        snapshots = []
        lane = []
        counts = {"rebases": 0, "band_tiles": 0, "gated_exact": 0, "gated_suppressed": 0}
        start = time.perf_counter()
        for step, i in enumerate(range(0, self.samples, self.batch)):
            t0 = time.perf_counter()
            try:
                with _op_scope(tracer, f"p{index}s{step}"):
                    for tenant, series in feeds:
                        session = svc.tenant(tenant)
                        seen.setdefault(id(session.stream), session.stream)
                        offset = session.base_offset
                        report = svc.ingest(tenant, series[i : i + self.batch])
                        seen.setdefault(id(session.stream), session.stream)
                        counts["rebases"] += report.rebased
                        counts["band_tiles"] += report.tiles
                        if tenant == "gated":
                            alarms.extend(s.position + offset for s in report.alarms)
                            counts["gated_exact"] += report.exact_columns
                            counts["gated_suppressed"] += report.suppressed_columns
                        elif report.rebased:
                            snapshots.append((
                                session.base_offset, session.stream.n_samples,
                                *svc.profile(tenant),
                            ))
            except Exception:  # noqa: BLE001 - a failed step is counted
                _report_failure(f"{self.name} step {step}")
                lane.append(None)
                continue
            lane.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
        session = svc.tenant("exact")
        snapshots.append((session.base_offset, session.stream.n_samples, *svc.profile("exact")))
        model = Model()
        for stream in seen.values():
            model.gpu_s = max(model.gpu_s, stream.timeline.makespan)
            model.add_breakdown(stream.timeline.kernel_breakdown())
            if stream.accumulator is not None:
                model.add_costs(stream.accumulator.costs)
        return PassRecord(
            wall, [lane], model, counts, outputs=(snapshots, alarms),
            traced=tracer is not None,
        )

    def check(self, last: PassRecord) -> list[Check]:
        """The exact tenant after every re-base and at the end, against FP64
        ``matrix_profile`` over the samples it retained, in correlation
        space (a distance-space tolerance is ill-conditioned near exact
        matches); the gated tenant must alarm on the planted discord."""
        snapshots, alarms = last.outputs
        checks = []
        for base, n, profile, index in snapshots:
            n_seg = n - self.m + 1
            checks.append(check_profile(
                f"exact=matrix_profile[{base}:{base + n}]", profile, index, m=self.m,
                mode=self.mode, backend="numeric",
                reference=matrix_profile(self.sensor[base : base + n], m=self.m).profile,
                n_r_seg=n_seg, self_join=True, edge=n_seg,
            ))
        hit = any(abs(p - self.discord_at) < self.m for p in alarms)
        checks.append(Check(
            "gated-alarms-on-discord", hit,
            detail=f"planted at {self.discord_at}, {len(alarms)} alarms",
        ))
        return checks

    def derived(self, ops_per_s: float) -> dict:
        return {"samples_per_s": ops_per_s * self.batch * 2}

    def layer_stats(self, passes, tracer) -> dict:
        out = super().layer_stats(passes, tracer)
        for key in ("rebases", "band_tiles"):
            out[f"streams.{key}"] = stats.quartiles([p.stats[key] for p in passes])[1]
        exact = sum(p.stats["gated_exact"] for p in passes)
        suppressed = sum(p.stats["gated_suppressed"] for p in passes)
        out["streams.exact_frac"] = exact / max(exact + suppressed, 1)
        out["streams.ingest_p95_ratio"] = _tail_ratio(
            [lat for p in passes for lat in p.latencies])
        return out


WORKLOADS = {
    cls.name: cls for cls in (BatchKernels, BatchTiles, ServiceMixed, StreamIngest)
}
