"""Error-budget planner bench — ``auto`` vs default, and the error-target tier.

:class:`repro.autotune.AutoTuner` has two jobs (``matrix_profile(auto=,
target_error=)``):

1. **auto vs default** — without a target the planner only derives the
   host block (:func:`~repro.core.planner.row_block_for`) and the memory
   floor, so the profile must stay bit-identical to the default call.
   Both are timed end to end in alternating rounds (medians reported);
   no gain is claimed — single-threaded, the derived block (often 128)
   is not faster than the default 32 on these shapes.
2. **the error-target tier** — per target, the planner's chosen mode,
   backend, layout, tile count and precalc strategy, its a-priori bound,
   and the measured max correlation-space error against FP64, which
   must stay at or under the target.

Results are archived to ``benchmarks/results/autotuner.txt`` and, for
machine consumption, ``BENCH_autotuner.json`` at the repo root.
``REPRO_BENCH_SMOKE=1`` shrinks the grid for CI smoke runs.
"""

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.autotune import AutoTuner
from repro.core.api import matrix_profile
from repro.precision.errors import implied_correlation
from repro.reporting import format_table

from _harness import emit

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

ROUNDS = 3 if SMOKE else 11

#: (n_seg, d, m, mode, n_tiles) jobs for auto vs default.
JOBS = (
    [(192, 4, 32, "FP32", 1), (160, 8, 24, "FP16", 4)]
    if SMOKE
    else [
        (256, 4, 32, "FP32", 1),
        (384, 2, 48, "FP64", 1),
        (256, 8, 24, "FP16", 1),
        (320, 4, 64, "Mixed", 1),
        (384, 2, 16, "FP32", 100),
    ]
)

#: The error-target tier: one self-join, requested FP16 with 16 tiles
#: (so the triangular layout competes), swept over targets.
TIER_SHAPE = (192, 2, 32) if SMOKE else (512, 4, 64)
TARGETS = (1e-1, 1e-3, 1e-9) if SMOKE else (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-9)

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_autotuner.json"


def _series(n_seg, d, m, seed=31):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n_seg + m - 1, d)).cumsum(axis=0)


def _auto_vs_default(record):
    rows = []
    for n_seg, d, m, mode, n_tiles in JOBS:
        series = _series(n_seg, d, m)
        times = {"default": [], "auto": []}
        outs = {}
        for r in range(ROUNDS):
            # Alternate which side runs first so drift hits both equally.
            for side in ("default", "auto") if r % 2 == 0 else ("auto", "default"):
                start = time.perf_counter()
                outs[side] = matrix_profile(
                    series, m=m, mode=mode, n_tiles=n_tiles, auto=side == "auto"
                )
                times[side].append(time.perf_counter() - start)
        identical = np.array_equal(
            outs["auto"].profile, outs["default"].profile, equal_nan=True
        ) and np.array_equal(outs["auto"].index, outs["default"].index)
        assert identical, f"auto changed the output of {mode} n={n_seg}"
        t_default = statistics.median(times["default"])
        t_auto = statistics.median(times["auto"])
        row_block = AutoTuner().tune(
            n_seg, n_seg, d, m, mode=mode, n_tiles=n_tiles if n_tiles > 1 else None
        ).config.row_block
        rows.append([
            f"{mode} n={n_seg} d={d} m={m} t={n_tiles}",
            f"{t_default * 1e3:8.1f}", f"{t_auto * 1e3:8.1f}",
            f"{t_auto / t_default:.3f}x", row_block, "yes",
        ])
        record["auto_vs_default"].append({
            "n_seg": n_seg, "d": d, "m": m, "mode": mode, "n_tiles": n_tiles,
            "default_s": t_default, "auto_s": t_auto,
            "auto_over_default": t_auto / t_default,
            "auto_row_block": row_block,
            "bit_identical_to_default": identical,
        })
    return format_table(
        ["job", "default ms", "auto ms", "auto/default", "auto row_block",
         "bit-identical"],
        rows,
        f"auto=True vs default (median of {ROUNDS} alternating rounds)",
    )


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
def test_autotuner_auto_and_error_tier(benchmark):
    record = {"smoke": SMOKE, "rounds": ROUNDS, "auto_vs_default": [],
              "error_tier": []}
    tables = [_auto_vs_default(record), _error_tier(record)]
    emit("autotuner", "\n\n".join(tables))
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n")

    n0, d0, m0, mode0, tiles0 = JOBS[0]
    s0 = _series(n0, d0, m0)
    benchmark.pedantic(
        lambda: matrix_profile(s0, m=m0, mode=mode0, n_tiles=tiles0, auto=True),
        rounds=1, iterations=1,
    )

    for row in record["error_tier"]:
        assert row["measured_max_error"] <= row["target"], row
