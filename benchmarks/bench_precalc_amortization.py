"""Amortised precalculation bench — per-tile restart vs plan-level planes.

The tiling scheme restarts the precalculation kernel per tile, but only
the seed QT dot products actually depend on the tile: the window
statistics (mu/inv/df/dg) are window-local and identical across every
tile that covers a segment.  The plan-level
:class:`~repro.engine.precalc_cache.PrecalcPlaneCache` computes them
once per series and batches all seed rows sharing a band into one
vectorised pass — bit-identical output
(``tests/test_precalc_amortization.py`` pins this), so the only thing to
measure is wall clock.

Measurements (all on a precalc-bound configuration: many tiles over a
modest segment count with a long window, so the O(n·m·d) statistics pass
dominates the O(tile²·d) main loop):

1. **End-to-end engine** — a many-tile long-window self-join through
   :func:`~repro.core.multi_tile.compute_multi_tile` (amortised) vs the
   same engine run over a plan whose plane cache is the test oracle's
   per-tile fake (``tests/precalc_oracle.PerTileCache``: the historical
   per-tile restart).  Acceptance: >= 2x at full scale.
2. **Cross-job stats store** — the same plan prepared against a cold vs
   a warm :class:`~repro.service.PrecalcStatsCache`: a warm store skips
   the statistics pass entirely and only pays the seed batching.
3. **FFT seed strategy** — the opt-in ``precalc_strategy="fft"`` MASS
   path (FP64), end to end, for reference.

Results are archived to ``benchmarks/results/precalc_amortization.txt``
and ``BENCH_precalc_amortization.json`` at the repo root.
``REPRO_BENCH_SMOKE=1`` shrinks the problem and relaxes the speedup
floor for CI smoke runs.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.engine import JobSpec, NumericBackend, ProfileAccumulator, execute_plan
from repro.gpu.simulator import GPUSimulator
from repro.reporting import format_table
from repro.service import PrecalcStatsCache

from _harness import SMOKE, emit, write_record
from tests.precalc_oracle import PerTileCache


#: Precalc-bound reference config: tile edges comparable to the window
#: length, so the per-tile statistics restart is the dominant cost.
N_SEG = 128 if SMOKE else 256
M = 64 if SMOKE else 128
D = 4
N_TILES = 16 if SMOKE else 64
MODE = "FP16C"  # compensated precalc: the most precalc-heavy mode
REPEATS = 2 if SMOKE else 3
#: CI smoke boxes are noisy single-core runners; the real floor is
#: asserted at full scale.
MIN_SPEEDUP = 1.2 if SMOKE else 2.0

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_precalc_amortization.json"


def _series(n, d, seed=17):
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


def _per_tile_run(series, cfg):
    """The engine over a plan with the per-tile fake cache: every tile
    runs ``PrecalcKernel`` on its own slices."""
    spec = JobSpec.from_arrays(series, None, M, cfg)
    plan = spec.plan()
    plan.precalc_cache = PerTileCache()
    sim = GPUSimulator(cfg.device, cfg.n_gpus, cfg.n_streams)
    acc = ProfileAccumulator(spec.d, spec.n_q_seg, spec.policy)
    execute_plan(plan, NumericBackend(discount_shared_h2d=True), sim, accumulator=acc)
    return acc


def _prepare_all(series, store):
    spec = JobSpec.from_arrays(
        series, None, M, RunConfig(mode=MODE, n_tiles=N_TILES)
    )
    plan = spec.plan(precalc_store=store)
    return [plan.precalc_cache.prepare(plan, [t]) for t in plan.tiles]


@pytest.mark.benchmark(group="precalc_amortization")
def test_precalc_amortization_speedup(benchmark):
    series = _series(N_SEG + M - 1, D)
    rows = []
    record = {
        "reference_config": {
            "n_seg": N_SEG, "d": D, "m": M, "n_tiles": N_TILES,
            "mode": MODE, "smoke": SMOKE,
        },
        "engine_level": {},
        "stats_store": {},
        "fft_strategy": {},
    }

    # -- end-to-end engine: the acceptance measurement -------------------
    cfg = dict(mode=MODE, n_tiles=N_TILES)
    r_off, t_off = _timed(lambda: _per_tile_run(series, RunConfig(**cfg)))
    r_on, t_on = _timed(
        lambda: compute_multi_tile(series, None, M, RunConfig(**cfg))
    )
    assert np.array_equal(
        r_on.profile.view(np.uint8), r_off.host_profile().view(np.uint8)
    )
    assert np.array_equal(r_on.index, r_off.host_index())
    assert r_off.precalc_saved_flops == 0.0
    assert r_on.precalc_saved_flops > 0.0
    ratio = t_off / t_on
    rows.append([f"engine {MODE} per-tile precalc", f"{t_off * 1e3:9.1f}", "1.00x"])
    rows.append([f"engine {MODE} amortised", f"{t_on * 1e3:9.1f}", f"{ratio:.2f}x"])
    record["engine_level"] = {
        "per_tile_s": t_off, "amortized_s": t_on, "speedup": ratio,
        "saved_flops": r_on.precalc_saved_flops,
    }

    # -- cross-job stats store: cold vs warm -----------------------------
    store = PrecalcStatsCache()
    _, t_cold = _timed(lambda: _prepare_all(series, store), repeats=1)
    _, t_warm = _timed(lambda: _prepare_all(series, store))
    assert store.hits > 0
    rows.append(["prepare all tiles, cold store", f"{t_cold * 1e3:9.1f}", "1.00x"])
    rows.append(["prepare all tiles, warm store", f"{t_warm * 1e3:9.1f}",
                 f"{t_cold / t_warm:.2f}x"])
    record["stats_store"] = {
        "cold_s": t_cold, "warm_s": t_warm,
        "hits": store.hits, "misses": store.misses,
    }

    # -- FFT seed strategy (FP64, opt-in, not bit-identical) -------------
    fp64 = dict(mode="FP64", n_tiles=N_TILES)
    r_exact, t_exact = _timed(
        lambda: compute_multi_tile(series, None, M, RunConfig(**fp64))
    )
    r_fft, t_fft = _timed(
        lambda: compute_multi_tile(
            series, None, M, RunConfig(precalc_strategy="fft", **fp64))
    )
    max_dev = float(np.nanmax(np.abs(r_fft.profile - r_exact.profile)))
    rows.append(["engine FP64 exact seeds", f"{t_exact * 1e3:9.1f}", "1.00x"])
    rows.append(["engine FP64 fft seeds", f"{t_fft * 1e3:9.1f}",
                 f"{t_exact / t_fft:.2f}x"])
    record["fft_strategy"] = {
        "exact_s": t_exact, "fft_s": t_fft,
        "max_profile_deviation": max_dev,
    }

    table = format_table(
        ["configuration", "best (ms)", "speedup"],
        rows,
        f"Amortised precalculation, n_seg={N_SEG}, d={D}, m={M}, "
        f"{N_TILES} tiles (best of {REPEATS})",
    )
    emit("precalc_amortization", table)
    write_record(JSON_PATH, record)

    benchmark.pedantic(
        lambda: compute_multi_tile(series, None, M, RunConfig(**cfg)),
        rounds=1, iterations=1,
    )

    assert ratio >= MIN_SPEEDUP, (
        f"amortised precalc speedup {ratio:.2f}x below the "
        f"{MIN_SPEEDUP}x floor"
    )
