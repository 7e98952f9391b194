"""Row-blocked kernel execution bench — block of 1 vs blocked vs parallel.

The row-blocked main loop is a pure host-side optimisation: ``dist_calc``
keeps the sequential Eq. (1) recurrence but fills B consecutive row
planes into one workspace, and the column-independent sort/scan/update
stages then run once per block.  B comes from
:func:`repro.engine.backends.super_step_rows`: as many rows as keep one
super-step within ``SUPER_STEP_ELEMENTS``.  The output — profile,
indices, per-kernel costs, modelled timeline — is bit-for-bit that of
the per-row test oracle for every block size
(``tests/test_row_blocking.py`` pins this), so the only thing to measure
is wall clock.  A budget of 0 runs the same loop with blocks of one
row; the per-row kernels exist only as the test oracle.

Two measurements:

1. **Kernel level (the reference config)** — one multi-dimensional FP16
   tile, n_seg = 256, d = 8, m = 32, timed through
   :func:`repro.engine.backends.run_tile` with blocks of one row (the
   budget patched to 0) vs the derived super-step, for FP16 and FP64.
   Acceptance: >= 3x for the FP16 tile.
2. **Engine level** — a 4-tile FP16 self-join through
   :func:`~repro.core.multi_tile.compute_multi_tile`, serial block of 1
   vs serial blocked vs blocked with ``parallel_workers`` tile threads.
   The per-tile precalc and merge overhead is shared by every variant,
   so the end-to-end ratio is lower than the kernel-level one; on a
   single-core host the parallel row measures dispatch overhead only
   (the workers exist for multi-core hosts; determinism is pinned by
   the tests either way).

Results are archived to ``benchmarks/results/row_blocking.txt`` and, for
machine consumption, ``BENCH_row_blocking.json`` at the repo root (full
runs only).  ``REPRO_BENCH_SMOKE=1`` shrinks the problem and relaxes the
speedup floor for CI smoke runs.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.engine import backends
from repro.engine.backends import run_tile, super_step_rows
from repro.engine.plan import JobSpec
from repro.kernels.layout import to_device_layout
from repro.reporting import format_table

from _harness import SMOKE, emit, write_record


#: The reference config of the acceptance criterion: one multi-dim FP16
#: tile.  n_seg = 256 reference segments (n = n_seg + m - 1 samples).
N_SEG = 128 if SMOKE else 256
D = 8
M = 32
BLOCK = super_step_rows(N_SEG, N_SEG, D)  # the derived super-step
REPEATS = 2 if SMOKE else 3
#: CI smoke boxes are noisy single-core runners; the real floor is
#: asserted at full scale.
MIN_SPEEDUP_FP16 = 1.5 if SMOKE else 3.0

ENGINE_N = 384 if SMOKE else 640
ENGINE_TILES = 4
WORKERS = 4

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_row_blocking.json"


def _series(n, d, seed=11):
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


@contextmanager
def _blocks_of_one():
    """Patch the super-step budget to 0: every step is one row."""
    saved = backends.SUPER_STEP_ELEMENTS
    backends.SUPER_STEP_ELEMENTS = 0
    try:
        yield
    finally:
        backends.SUPER_STEP_ELEMENTS = saved


def _time_tile(mode):
    cfg = RunConfig(mode=mode)
    ref = _series(N_SEG + M - 1, D)
    tr = to_device_layout(ref, cfg.policy.storage)

    def run():
        precalc = JobSpec.from_layouts(tr, tr, M, cfg).whole_grid_precalc()
        return run_tile(tr, tr, M, cfg.policy, cfg.launch, exclusion_zone=M // 4,
                        precalc=precalc)
    out, best = _timed(run)
    return out, best


@pytest.mark.benchmark(group="row_blocking")
def test_row_blocking_speedup(benchmark):
    rows = []
    record = {
        "reference_config": {"n_seg": N_SEG, "d": D, "m": M,
                             "super_step_elements": backends.SUPER_STEP_ELEMENTS,
                             "block": BLOCK, "smoke": SMOKE},
        "kernel_level": {},
        "engine_level": {},
    }

    # -- kernel level: the acceptance measurement ------------------------
    fp16_ratio = None
    for mode in ("FP16", "FP64"):
        with _blocks_of_one():
            out_1, t_1 = _time_tile(mode)
        out_b, t_b = _time_tile(mode)
        assert np.array_equal(
            out_b.profile.view(np.uint8), out_1.profile.view(np.uint8)
        )
        assert np.array_equal(out_b.indices, out_1.indices)
        ratio = t_1 / t_b
        if mode == "FP16":
            fp16_ratio = ratio
        rows.append([f"tile {mode} block of 1", f"{t_1 * 1e3:9.1f}", "1.00x"])
        rows.append([f"tile {mode} block={BLOCK}", f"{t_b * 1e3:9.1f}",
                     f"{ratio:.2f}x"])
        record["kernel_level"][mode] = {
            "block_of_1_s": t_1, "blocked_s": t_b, "speedup": ratio,
        }

    # -- engine level: multi-tile, serial vs parallel workers ------------
    series = _series(ENGINE_N, D, seed=23)
    base_cfg = dict(mode="FP16", n_tiles=ENGINE_TILES)
    with _blocks_of_one():
        r_row, t_row = _timed(
            lambda: compute_multi_tile(series, None, M, RunConfig(**base_cfg))
        )
    r_blk, t_blk = _timed(
        lambda: compute_multi_tile(series, None, M, RunConfig(**base_cfg))
    )
    r_par, t_par = _timed(
        lambda: compute_multi_tile(
            series, None, M, RunConfig(**base_cfg),
            parallel_workers=WORKERS)
    )
    assert np.array_equal(r_blk.profile, r_row.profile)
    assert np.array_equal(r_blk.index, r_row.index)
    assert np.array_equal(r_par.profile, r_blk.profile)
    assert np.array_equal(r_par.index, r_blk.index)
    rows.append(["engine FP16 block of 1", f"{t_row * 1e3:9.1f}", "1.00x"])
    rows.append(["engine FP16 blocked", f"{t_blk * 1e3:9.1f}",
                 f"{t_row / t_blk:.2f}x"])
    rows.append([f"engine FP16 blocked +{WORKERS} workers",
                 f"{t_par * 1e3:9.1f}", f"{t_row / t_par:.2f}x"])
    record["engine_level"] = {
        "n": ENGINE_N, "n_tiles": ENGINE_TILES, "workers": WORKERS,
        "block_of_1_s": t_row, "blocked_s": t_blk, "parallel_s": t_par,
        "host_cpus": os.cpu_count(),
    }

    table = format_table(
        ["configuration", "best (ms)", "speedup"],
        rows,
        f"Row-blocked execution, reference tile n_seg={N_SEG}, d={D}, "
        f"m={M} (block={BLOCK}, best of {REPEATS})",
    )
    emit("row_blocking", table)
    write_record(JSON_PATH, record)

    benchmark.pedantic(lambda: _time_tile("FP16"), rounds=1, iterations=1)

    assert fp16_ratio >= MIN_SPEEDUP_FP16, (
        f"FP16 reference tile speedup {fp16_ratio:.2f}x below the "
        f"{MIN_SPEEDUP_FP16}x floor"
    )
