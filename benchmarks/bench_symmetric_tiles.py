"""Symmetric self-join tiling bench — triangular grid vs the full grid.

With ``RunConfig.symmetric_tiles`` the planner keeps only the diagonal
and upper-triangular tiles of a self-join grid and reduces each
off-diagonal tile's distance panel twice (column-wise as usual, plus the
row-wise mirrored pass), so a 64-tile request executes 36 tiles instead
of 64 — a 1.78x ceiling on distance work.  This bench measures how much
of that ceiling survives end-to-end, and that the accuracy contract
holds while it does:

1. **Speed (the acceptance measurement)** — the 64-tile self-join
   reference job, n_seg = 8192, d = 8, m = 32 on the A100 launch, run
   through :func:`repro.core.multi_tile.compute_multi_tile` with the
   flag off vs on, in both backends (vector FP32 and tensor-core
   Mixed).  Acceptance: >= 1.7x in each backend.
2. **Accuracy** — profile error against the FP64 full-grid run,
   compared in correlation space (Eq. 1 inverted — the quantity the
   Section V-B bounds speak of) against
   :func:`~repro.precision.errors.streaming_qt_error_bound` /
   :func:`~repro.precision.errors.tc_gemm_error_bound`, plus exact
   index agreement between the mirrored and full grids.

Results are archived to ``benchmarks/results/symmetric_tiles.txt`` and,
for machine consumption, ``BENCH_symmetric_tiles.json`` at the repo
root.  ``REPRO_BENCH_SMOKE=1`` shrinks the problem and relaxes the
speedup floor for CI smoke runs (tiny tiles leave the per-tile mirror
reduce overhead unamortised).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.precision.errors import (
    implied_correlation,
    streaming_qt_error_bound,
    tc_gemm_error_bound,
)
from repro.reporting import format_table

from _harness import SMOKE, emit, write_record


#: The reference job of the acceptance criterion: a 64-tile self-join,
#: n_seg = 8192 segments, d = 8, m = 32 on the A100 preset.
N_SEG = 1024 if SMOKE else 8192
D = 8
M = 32
N_TILES = 64
REPEATS = 1 if SMOKE else 2
#: CI smoke boxes run tiles too small to amortise the mirrored reduce;
#: the real floor is asserted at full scale.
MIN_SPEEDUP = 1.15 if SMOKE else 1.7

BACKENDS = (("numeric", "FP32"), ("tensor_core", "Mixed"))

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_symmetric_tiles.json"


def _series():
    rng = np.random.default_rng(0)
    t = np.arange(N_SEG + M - 1)[:, None]
    base = np.sin(2 * np.pi * t / (7.0 + np.arange(D)[None, :]))
    return base + 0.35 * rng.standard_normal(base.shape)


def _run(series, backend, mode, symmetric):
    cfg = RunConfig(
        mode=mode, n_tiles=N_TILES, backend=backend,
        symmetric_tiles=symmetric,
    )
    best, out = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = compute_multi_tile(series, None, M, cfg)
        best = min(best, time.perf_counter() - start)
    return out, best


@pytest.mark.benchmark(group="symmetric_tiles")
def test_symmetric_tiles_speedup_and_accuracy(benchmark):
    series = _series()
    rows = []
    record = {
        "reference_config": {"n_seg": N_SEG, "d": D, "m": M,
                             "n_tiles": N_TILES, "device": "A100",
                             "smoke": SMOKE},
        "backends": {},
        "min_speedup": MIN_SPEEDUP,
    }

    ref = compute_multi_tile(
        series, None, M, RunConfig(mode="FP64", n_tiles=N_TILES)
    )
    ref_corr = implied_correlation(ref.profile, M)

    for backend, mode in BACKENDS:
        full, t_full = _run(series, backend, mode, symmetric=False)
        sym, t_sym = _run(series, backend, mode, symmetric=True)
        speedup = t_full / t_sym
        assert full.n_tiles == N_TILES
        assert sym.n_tiles == 36  # g = 8 bands -> g(g+1)/2 tiles

        if backend == "tensor_core":
            bound = tc_gemm_error_bound(N_SEG, M, mode)
        else:
            bound = streaming_qt_error_bound(N_SEG, M, mode)
        err_full = float(np.max(np.abs(
            implied_correlation(full.profile.astype(np.float64), M) - ref_corr
        )))
        err_sym = float(np.max(np.abs(
            implied_correlation(sym.profile.astype(np.float64), M) - ref_corr
        )))
        agree = float(np.mean(sym.index == full.index))

        assert err_sym <= bound, (
            f"{backend} symmetric corr error {err_sym:.6f} above the "
            f"a-priori bound {bound:.6f}"
        )

        label = f"{backend} {mode}"
        rows.append([f"{label} full grid (64 tiles)",
                     f"{t_full * 1e3:9.1f} ms", "1.00x",
                     f"err {err_full:.2e}"])
        rows.append([f"{label} symmetric (36 tiles)",
                     f"{t_sym * 1e3:9.1f} ms", f"{speedup:.2f}x",
                     f"err {err_sym:.2e} <= {bound:.2e}"])
        rows.append([f"{label} index agreement", f"{agree:.4f}", "", ""])
        record["backends"][backend] = {
            "mode": mode, "full_s": t_full, "symmetric_s": t_sym,
            "speedup": speedup, "err_full": err_full, "err_sym": err_sym,
            "bound": bound, "index_agreement": agree, "repeats": REPEATS,
        }

    table = format_table(
        ["measurement", "time", "speedup", "accuracy"],
        rows,
        f"Symmetric self-join tiling, reference job n_seg={N_SEG}, d={D}, "
        f"m={M}, 64-tile request (A100 launch, best of {REPEATS})",
    )
    emit("symmetric_tiles", table)
    write_record(JSON_PATH, record)

    benchmark.pedantic(
        lambda: _run(series, "numeric", "FP32", symmetric=True),
        rounds=1, iterations=1,
    )

    for backend, stats in record["backends"].items():
        assert stats["speedup"] >= MIN_SPEEDUP, (
            f"{backend} symmetric-tiling speedup {stats['speedup']:.2f}x "
            f"below the {MIN_SPEEDUP}x floor"
        )
