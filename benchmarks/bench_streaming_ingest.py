"""Streaming ingestion bench — incremental band tiles vs full recompute.

A monitoring deployment appends a small batch of samples and wants the
matrix profile current.  Without the streaming tier the only option is a
full recompute over the grown series — O(n²) work per append.  The
:class:`~repro.streams.IncrementalMatrixProfile` covers just the new
L-shaped band (O(n·k) for k new segments) with cached window-statistics
planes, bit-identical to the batch dispatch of the same tile list
(``tests/test_streams_incremental.py`` pins this), so the only thing to
measure is wall clock.

Measurements:

1. **Amortised append vs recompute** — per-batch append latency against
   a growing history vs a full engine recompute of the same series, at
   several history lengths.  Acceptance: >= 5x at the largest history
   (the band shrinks relative to the full join as history grows).
2. **Sketch-gated ingest** — a gated tenant over the same stream with a
   planted discord: the gate must suppress >= 50% of the exact column
   work while still alarming on (and exactly probing) the top-1 discord.

Results are archived to ``benchmarks/results/streaming_ingest.txt`` and
``BENCH_streaming_ingest.json`` at the repo root.  ``REPRO_BENCH_SMOKE=1``
shrinks the problem and relaxes the speedup floor for CI smoke runs.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.reporting import format_table
from repro.streams import IncrementalMatrixProfile, StreamIngestService, TenantPolicy

from _harness import SMOKE, emit, write_record


M = 32 if SMOKE else 64
D = 2
BATCH = 32  # samples per append
#: Histories (in samples) the per-append step is measured against.
HISTORIES = (256, 512) if SMOKE else (512, 1024, 2048)
MODE = "FP32"
REPEATS = 2 if SMOKE else 3
#: CI smoke boxes are noisy single-core runners; the real floor is
#: asserted at full scale.
MIN_SPEEDUP = 2.0 if SMOKE else 5.0
MIN_SUPPRESSION = 0.5

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_streaming_ingest.json"


def _series(n, d, seed=29):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)).cumsum(axis=0)


def _timed(fn, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _grown_stream(series, history):
    inc = IncrementalMatrixProfile(M, RunConfig(mode=MODE))
    inc.append(series[:history])
    return inc


@pytest.mark.benchmark(group="streaming_ingest")
def test_streaming_ingest_speedup(benchmark):
    n_max = HISTORIES[-1] + BATCH
    series = _series(n_max, D)
    rows = []
    record = {
        "reference_config": {
            "m": M, "d": D, "batch": BATCH, "mode": MODE,
            "histories": list(HISTORIES), "smoke": SMOKE,
        },
        "amortised_append": [],
        "sketch_gate": {},
    }

    # -- amortised append vs full recompute ------------------------------
    ratio = 0.0
    for history in HISTORIES:
        grown = series[: history + BATCH]

        def _append_step():
            inc = _grown_stream(series, history)
            start = time.perf_counter()
            inc.append(grown[history:])
            return inc, time.perf_counter() - start

        t_inc = float("inf")
        inc = None
        for _ in range(REPEATS):
            inc, elapsed = _append_step()
            t_inc = min(t_inc, elapsed)
        r_full, t_full = _timed(
            lambda: compute_multi_tile(grown, None, M, RunConfig(mode=MODE))
        )
        ratio = t_full / t_inc
        # The incremental profile is a real profile: same motif structure
        # as the recompute (tilings differ, so compare values loosely).
        p_inc, _ = inc.profile()
        np.testing.assert_allclose(p_inc, r_full.profile, atol=1e-3)
        rows.append([
            f"recompute n={history + BATCH}", f"{t_full * 1e3:9.2f}", "1.00x",
        ])
        rows.append([
            f"append {BATCH} @ history {history}", f"{t_inc * 1e3:9.2f}",
            f"{ratio:.2f}x",
        ])
        record["amortised_append"].append({
            "history": history, "append_s": t_inc,
            "recompute_s": t_full, "speedup": ratio,
        })

    # -- sketch-gated ingest: suppression + discord recall ---------------
    n = HISTORIES[-1]
    at = int(n * 0.8)
    rng = np.random.default_rng(5)
    wave = np.sin(np.linspace(0, n / 12, n))[:, None] * np.ones((1, D))
    stream = wave + 0.05 * rng.standard_normal((n, D))
    # Planted discord: a noise burst (shape anomaly) — z-normalisation
    # makes pure offset bumps look ordinary, a shape change does not.
    stream[at : at + M] = rng.standard_normal((M, D))
    svc = StreamIngestService(n_gpus=1)
    svc.register(
        "gated",
        TenantPolicy(m=M, mode=MODE, sketch_gate=True,
                     sketch_warmup=24, sketch_seed=1),
    )
    _, t_gated = _timed(
        lambda: [svc.ingest("gated", stream[i : i + BATCH])
                 for i in range(0, n, BATCH)],
        repeats=1,
    )
    c = svc.tenant("gated").counters
    suppression = c.suppression_ratio
    alarmed = [s.position for s in svc.scores("gated") if s.alarm]
    discord_hit = any(at - M < p < at + M for p in alarmed)
    rows.append([
        f"gated ingest, {c.segments} segments", f"{t_gated * 1e3:9.2f}",
        f"{suppression:.0%} suppressed",
    ])
    record["sketch_gate"] = {
        "segments": c.segments, "alarms": c.alarms,
        "suppressed_columns": c.suppressed_columns,
        "exact_columns": c.exact_columns,
        "suppression_ratio": suppression,
        "discord_alarmed": bool(discord_hit),
        "ingest_s": t_gated,
    }

    table = format_table(
        ["configuration", "best (ms)", "speedup"],
        rows,
        f"Streaming ingestion, m={M}, d={D}, batch={BATCH}, {MODE} "
        f"(best of {REPEATS})",
    )
    emit("streaming_ingest", table)
    write_record(JSON_PATH, record)

    benchmark.pedantic(
        lambda: _grown_stream(series, HISTORIES[0]).append(
            series[HISTORIES[0] : HISTORIES[0] + BATCH]
        ),
        rounds=1, iterations=1,
    )

    assert ratio >= MIN_SPEEDUP, (
        f"amortised append speedup {ratio:.2f}x at history {HISTORIES[-1]} "
        f"below the {MIN_SPEEDUP}x floor"
    )
    assert suppression >= MIN_SUPPRESSION, (
        f"sketch gate suppressed only {suppression:.0%} of exact columns"
    )
    assert discord_hit, "sketch gate missed the planted top-1 discord"
