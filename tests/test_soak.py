"""Soak tests: the always-on tiers hold steady-state memory.

Each tier runs a warm-up and then a long run with ``tracemalloc`` on
throughout, and bounds the memory retained (after ``gc.collect()``)
between the end of the warm-up and the end of the run.  Tracing starts
before the warm-up so that objects a bounded ring replaces during the
run are counted both when they are freed and when their successors are
allocated.
"""

from __future__ import annotations

import gc
import itertools
import tracemalloc

import numpy as np

from repro.service import JobRequest, LoadEstimator, MatrixProfileService
from repro.service.metrics import LATENCY_HISTORY
from repro.streams import StreamIngestService, TenantPolicy
from repro.streams.ingest import SCORE_HISTORY


def _retained_growth(warm_up, run) -> int:
    """Bytes still allocated after ``run()`` that were not after ``warm_up()``."""
    tracemalloc.start()
    try:
        warm_up()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        run()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_service_cache_hits_hold_steady_memory():
    """Inline cache-hit jobs retain < 8 KB per 1,000 jobs (an unbounded
    latency list retains ~33 KB)."""
    service = MatrixProfileService(
        n_gpus=1, n_workers=1,
        estimator=LoadEstimator("A100", seconds_per_cell=1e-12, learn=False),
    )
    series = np.random.default_rng(0).normal(size=(64, 1)).cumsum(axis=0)
    n_jobs = 3 * LATENCY_HISTORY

    def jobs(count):
        for _ in range(count):
            service.submit_and_wait(JobRequest(reference=series, m=8))

    growth = _retained_growth(lambda: jobs(LATENCY_HISTORY), lambda: jobs(n_jobs))
    snap = service.metrics.snapshot()
    assert snap.cache_hits == LATENCY_HISTORY + n_jobs - 1
    assert growth < 8 * 1024 * n_jobs / 1000


def test_stream_tenants_hold_steady_memory():
    """An exact and a gated sliding tenant retain < 1 MB per 1,000
    steps (keeping every sketch score retained ~6 MB)."""
    m, retention, step = 8, 128, 32
    svc = StreamIngestService(n_gpus=1)
    for name, gated in (("exact", False), ("gated", True)):
        svc.register(name, TenantPolicy(
            m=m, mode="FP32", window="sliding", retention=retention,
            sketch_gate=gated,
        ))
    rng = np.random.default_rng(0)
    step_index = itertools.count()

    def steps(count):
        for _ in range(count):
            t = np.arange(step) + next(step_index) * step
            x = np.stack(
                [np.sin(2 * np.pi * t / 40), np.cos(2 * np.pi * t / 23)], axis=1
            ) + 0.05 * rng.normal(size=(step, 2))
            for name in ("exact", "gated"):
                svc.ingest(name, x)

    # The warm-up fills the score ring; a re-base every 3 steps, so both
    # counts are whole re-base cycles.
    warm_up = 132
    assert (warm_up * step - m + 1) > SCORE_HISTORY
    n_steps = 150
    growth = _retained_growth(lambda: steps(warm_up), lambda: steps(n_steps))
    assert svc.tenant("gated").counters.rebases > 0
    assert len(svc.scores("gated")) == SCORE_HISTORY
    assert growth < 1024 * 1024 * n_steps / 1000
