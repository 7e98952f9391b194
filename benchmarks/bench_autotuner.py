"""Error-budget planner bench — the error-target tier.

:class:`repro.autotune.AutoTuner` plans a job under
``matrix_profile(target_error=)``: per target, the planner's chosen
mode, backend, layout, tile count and precalc strategy, its a-priori
bound, and the measured max correlation-space error against FP64, which
must stay at or under the target.  (Without a target, ``auto=True`` only
raises the tile count to the memory floor, so it moves no host knob
worth timing.)

Results are archived to ``benchmarks/results/autotuner.txt`` and, for
machine consumption, ``BENCH_autotuner.json`` at the repo root (full
runs only).  ``REPRO_BENCH_SMOKE=1`` shrinks the grid for CI smoke runs.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.autotune import AutoTuner
from repro.core.api import matrix_profile
from repro.precision.errors import implied_correlation
from repro.reporting import format_table

from _harness import SMOKE, emit, write_record


#: The error-target tier: one self-join, requested FP16 with 16 tiles
#: (so the triangular layout competes), swept over targets.
TIER_SHAPE = (192, 2, 32) if SMOKE else (512, 4, 64)
TARGETS = (1e-1, 1e-3, 1e-9) if SMOKE else (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-9)

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_autotuner.json"


def _series(n_seg, d, m, seed=31):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n_seg + m - 1, d)).cumsum(axis=0)


def _error_tier(record):
    n_seg, d, m = TIER_SHAPE
    series = _series(n_seg, d, m, seed=7)
    reference = implied_correlation(matrix_profile(series, m=m).profile, m)
    rows = []
    for target in TARGETS:
        chosen = AutoTuner().tune(
            n_seg, n_seg, d, m, mode="FP16", target_error=target, n_tiles=16
        ).chosen
        start = time.perf_counter()
        result = matrix_profile(
            series, m=m, mode="FP16", n_tiles=16, target_error=target
        )
        seconds = time.perf_counter() - start
        err = float(np.max(np.abs(
            implied_correlation(result.profile.astype(np.float64), m) - reference
        )))
        rows.append([
            f"{target:.0e}", chosen.mode.value, chosen.backend,
            "sym" if chosen.symmetric_tiles else "full", chosen.n_tiles,
            chosen.precalc_strategy, f"{chosen.error_bound:.3g}",
            f"{err:.3g}", f"{seconds * 1e3:.1f}",
        ])
        record["error_tier"].append({
            "target": target, "mode": chosen.mode.value,
            "backend": chosen.backend, "symmetric_tiles": chosen.symmetric_tiles,
            "n_tiles": chosen.n_tiles, "precalc_strategy": chosen.precalc_strategy,
            "error_bound": chosen.error_bound, "measured_max_error": err,
            "seconds": seconds,
        })
    return format_table(
        ["target", "mode", "backend", "grid", "tiles", "precalc", "bound",
         "max err vs FP64", "ms"],
        rows,
        f"Error-target tier: n={n_seg} d={d} m={m}, requested FP16, 16 tiles",
    )


@pytest.mark.benchmark(group="autotuner")
def test_autotuner_error_tier(benchmark):
    record = {"smoke": SMOKE, "error_tier": []}
    emit("autotuner", _error_tier(record))
    write_record(JSON_PATH, record)

    n_seg, d, m = TIER_SHAPE
    series = _series(n_seg, d, m, seed=7)
    benchmark.pedantic(
        lambda: matrix_profile(series, m=m, mode="FP16", n_tiles=16,
                               target_error=TARGETS[0]),
        rounds=1, iterations=1,
    )

    for row in record["error_tier"]:
        assert row["measured_max_error"] <= row["target"], row
