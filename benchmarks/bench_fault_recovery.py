"""Fault-tolerance bench — health-check overhead and fault-storm recovery.

Two claims about the engine's recovery machinery (`repro.engine.health`,
`repro.engine.faults`):

1. **Health checks are free on the happy path** — validating every
   tile's output (non-finite scan + implied-correlation bound) leaves
   the profile and index bit-identical to the unchecked run and costs
   only a small constant per tile, reported as a relative overhead.
2. **Fault storms are absorbed, not dropped** — under a 10% injected
   fault storm (transient device failures + NaN/Inf/negative output
   corruption) an FP16 job still completes every tile: corrupted tiles
   are re-executed up the FP16 -> Mixed -> FP32 -> FP64 escalation
   ladder, transients are retried on other GPUs, and the only cost is
   the recomputed-tile fraction and wall-clock latency reported here.

``REPRO_BENCH_SMOKE=1`` shrinks the problem for CI smoke runs.
"""

import time

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.engine.dispatch import CallbackObserver
from repro.engine.faults import FaultPlan
from repro.engine.health import HealthPolicy
from repro.reporting import format_table

from _harness import SMOKE, emit

N = 384 if SMOKE else 1024
D = 3 if SMOKE else 6
M = 32
N_TILES = 9 if SMOKE else 16
N_GPUS = 3
STORM_RATE = 0.10
SEED = 7


def _series(seed=5):
    # Bounded amplitude keeps the fault-free FP16 path clear of genuine
    # overflow, so every escalation in the storm run is injection-driven.
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 24.0 * np.pi, N)
    base = np.sin(t)[:, None] * np.linspace(0.5, 1.5, D)[None, :]
    return base + 0.1 * rng.normal(size=(N, D))


def _config(mode):
    return RunConfig(mode=mode, n_tiles=N_TILES, n_gpus=N_GPUS)


def _timed(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


@pytest.mark.benchmark(group="faults")
def test_health_check_overhead_is_small_and_bit_exact(benchmark):
    series = _series()
    plain, t_plain = _timed(
        lambda: compute_multi_tile(series, None, M, _config("FP32"))
    )
    checked, t_checked = _timed(
        lambda: compute_multi_tile(
            series, None, M, _config("FP32"), health=HealthPolicy()
        )
    )
    overhead = t_checked / t_plain - 1.0

    table = format_table(
        ["configuration", "best of 3 (s)", "escalations"],
        [
            ["health checks off", f"{t_plain:.4f}", "-"],
            ["health checks on", f"{t_checked:.4f}", len(checked.escalations)],
            ["overhead", f"{overhead:+.1%}", ""],
        ],
        f"Health-check overhead, fault-free FP32 run "
        f"(n={N}, d={D}, m={M}, {N_TILES} tiles)",
    )

    benchmark.pedantic(
        lambda: compute_multi_tile(
            series, None, M, _config("FP32"), health=HealthPolicy()
        ),
        rounds=1, iterations=1,
    )

    # The happy path must be bit-identical: health checks only read.
    assert np.array_equal(plain.profile, checked.profile)
    assert np.array_equal(plain.index, checked.index)
    assert not checked.escalations
    emit("fault_recovery_overhead", table)


@pytest.mark.benchmark(group="faults")
def test_fault_storm_recovery_latency_and_recompute_fraction(benchmark):
    series = _series(seed=13)
    clean, t_clean = _timed(
        lambda: compute_multi_tile(
            series, None, M, _config("FP16"), health=HealthPolicy()
        )
    )

    def storm_run():
        executions = []
        observer = CallbackObserver(
            on_start=lambda tile, gpu, attempt: executions.append(tile.tile_id)
        )
        plan = FaultPlan(
            seed=SEED,
            transient_rate=STORM_RATE,
            corrupt_rate=STORM_RATE,
        )
        result = compute_multi_tile(
            series, None, M, _config("FP16"),
            health=HealthPolicy(),
            fault_plan=plan,
            max_retries=3,
            observers=(observer,),
        )
        return result, executions

    (stormed, executions), t_storm = _timed(storm_run)
    recompute = len(executions) / stormed.n_tiles - 1.0
    err = float(
        np.nanmax(np.abs(stormed.profile - clean.profile))
        if stormed.profile.size else 0.0
    )

    table = format_table(
        ["metric", "value"],
        [
            ["injected rate (transient + corrupt)", f"{STORM_RATE:.0%} each"],
            ["tiles (planned)", stormed.n_tiles],
            ["tile executions", len(executions)],
            ["recompute fraction", f"{recompute:.1%}"],
            ["escalated tiles", len(stormed.escalations)],
            ["clean latency (s)", f"{t_clean:.4f}"],
            ["storm latency (s)", f"{t_storm:.4f}"],
            ["recovery slowdown", f"{t_storm / t_clean:.2f}x"],
            ["max |storm - clean| profile delta", f"{err:.3g}"],
        ],
        f"FP16 fault storm (seed {SEED}, n={N}, d={D}, m={M}, "
        f"{N_TILES} tiles, {N_GPUS} GPUs)",
    )

    benchmark.pedantic(storm_run, rounds=1, iterations=1)

    # Every tile completed despite the storm...
    assert np.isfinite(stormed.profile).all()
    assert (stormed.index >= 0).all()
    # ...corruption was caught and escalated, not silently merged...
    assert stormed.escalations, "storm produced no escalations — rates too low?"
    # ...and the recovered profile stays within FP16-scale error of the
    # clean run (escalated tiles are *more* accurate, not less).
    assert err < 0.5
    emit("fault_recovery", table)
