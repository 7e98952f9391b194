"""Tensor-core main-loop bench — packed-panel chained GEMM vs the vector path.

The tensor-core path (``RunConfig.backend="tensor_core"``) replaces the
streaming Eq. (1) recurrence of ``dist_calc`` with batched 16x16x16 MMA
updates over a packed FP16 operand panel, accumulated in FP32 and carried
through a fused sort/scan + reduce-then-store update without intermediate
half roundings.  Unlike row blocking it is *not* bit-identical to the
per-row emulation — FP32 accumulation is the point — so this bench
measures both clocks:

1. **Speed (the acceptance measurement)** — one Mixed tile at the
   reference config, n_seg = 256, d = 8, m = 32 on the A100 launch,
   timed through :func:`repro.engine.backends.run_tile` with
   ``main_loop="vector"`` (its derived super-step) vs
   ``main_loop="tensor_core"``.
   Acceptance: >= 2x for the tensor-core panel.
2. **Accuracy** — per-cell correlation error against the FP64
   brute-force oracle across 3 seeds x {self-join, AB-join}, asserted
   against the a-priori bound
   :func:`~repro.precision.errors.tc_gemm_error_bound`; plus the same
   measurement for all five vector precision modes so the table shows
   where the tensor-core path lands (between Mixed and FP32 — the panel
   accumulates in FP32 while its operands round to FP16).

Results are archived to ``benchmarks/results/tensor_core.txt`` and, for
machine consumption, ``BENCH_tensor_core.json`` at the repo root.
``REPRO_BENCH_SMOKE=1`` shrinks the problem and relaxes the speedup
floor for CI smoke runs.
"""

import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.brute_force import znormalized_distance_matrix
from repro.core.config import RunConfig
from repro.engine.backends import WorkspacePool, run_tile
from repro.engine.plan import JobSpec
from repro.gpu.occupancy import launch_for_full_occupancy
from repro.kernels.dist_calc import DistCalcKernel
from repro.kernels.layout import to_device_layout
from repro.kernels.tc_gemm import TC_PANEL_ROWS, TcGemmKernel
from repro.precision.errors import tc_gemm_error_bound
from repro.precision.modes import policy_for
from repro.reporting import format_table

from _harness import MODES, SMOKE, emit, write_record


#: The reference config of the acceptance criterion: one Mixed tile on
#: the A100 preset.  n_seg = 256 reference segments, d = 8, m = 32.
N_SEG = 128 if SMOKE else 256
D = 8
M = 32
BLOCK = TC_PANEL_ROWS  # rows per step of the accuracy walk
SEEDS = (0, 1, 2)
REPEATS = 2 if SMOKE else 5
#: CI smoke boxes are noisy single-core runners; the real floor is
#: asserted at full scale.
MIN_SPEEDUP = 1.2 if SMOKE else 2.0

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_tensor_core.json"

LAUNCH = launch_for_full_occupancy("a100")
EZ = int(np.ceil(M / 4))


def _series(seed, length):
    rng = np.random.default_rng(seed)
    t = np.arange(length)[:, None]
    base = np.sin(2 * np.pi * t / (7.0 + np.arange(D)[None, :]))
    return base + 0.35 * rng.standard_normal((length, D))


def _max_corr_error(mode, tr, tq, ref_corr, tensor_core=False):
    """Max |corr - oracle| over the full tile, measured at the dist_calc
    output (corr = 1 - D^2 / 2m, the quantity the error bounds speak of)."""
    policy = policy_for(mode)
    tr_dev = to_device_layout(tr, policy.storage)
    tq_dev = to_device_layout(tq, policy.storage)
    n_r = tr_dev.shape[1] - M + 1
    n_q = tq_dev.shape[1] - M + 1
    if tensor_core:
        dist = TcGemmKernel(config=LAUNCH, policy=policy)
    else:
        dist = DistCalcKernel(config=LAUNCH, policy=policy)
    config = RunConfig(mode=mode, launch=LAUNCH)
    dist.bind(JobSpec.from_layouts(tr_dev, tq_dev, M, config).whole_grid_precalc().result)
    # The vector path needs its leased carrier workspace; the panel
    # loop ignores the argument.
    lease = nullcontext(None) if tensor_core else dist.lease(BLOCK)
    err = 0.0
    with lease as ws:
        for i0 in range(0, n_r, BLOCK):
            b = min(BLOCK, n_r - i0)
            blk = dist.run_block(i0, b, ws).astype(np.float64)
            corr = 1.0 - blk**2 / (2.0 * M)
            err = max(err, float(np.nanmax(np.abs(corr - ref_corr[:, i0:i0 + b]))))
    return err


def _time_tile(main_loop):
    config = RunConfig(mode="Mixed", launch=LAUNCH)
    policy = config.policy
    tr = to_device_layout(_series(SEEDS[0], N_SEG + M - 1), policy.storage)
    pool = WorkspacePool()

    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = run_tile(
            tr, tr, M, policy, LAUNCH,
            precalc=JobSpec.from_layouts(tr, tr, M, config).whole_grid_precalc(),
            exclusion_zone=EZ, workspace=pool,
            main_loop=main_loop,
        )
        best = min(best, time.perf_counter() - start)
    return out, best


@pytest.mark.benchmark(group="tensor_core")
def test_tensor_core_speedup_and_parity(benchmark):
    rows = []
    record = {
        "reference_config": {"n_seg": N_SEG, "d": D, "m": M,
                             "panel_rows": BLOCK, "device": "A100",
                             "smoke": SMOKE},
        "parity": {},
        "mode_errors": {},
        "timing": {},
    }

    # -- accuracy: 3 seeds x {self, AB} against the a-priori bound -------
    bound = tc_gemm_error_bound(N_SEG, M, "Mixed", panel_rows=BLOCK)
    record["parity"]["bound"] = bound
    worst = 0.0
    for seed in SEEDS:
        for join in ("self", "ab"):
            ser_r = _series(seed, N_SEG + M - 1)
            ser_q = ser_r if join == "self" else _series(seed + 100,
                                                         N_SEG + M - 1)
            ref_dist = znormalized_distance_matrix(ser_r, ser_q, M)
            ref_corr = 1.0 - ref_dist.transpose(2, 0, 1) ** 2 / (2.0 * M)
            err = _max_corr_error("Mixed", ser_r, ser_q, ref_corr,
                                  tensor_core=True)
            worst = max(worst, err)
            record["parity"][f"seed{seed}_{join}"] = err
            assert err <= bound, (
                f"seed {seed} {join}-join tensor-core corr error {err:.6f} "
                f"above the a-priori bound {bound:.6f}"
            )
    record["parity"]["worst"] = worst
    rows.append(["tensor-core worst (6 runs)", f"{worst:.6f}",
                 f"bound {bound:.6f}"])

    # -- the same oracle delta for the five vector modes -----------------
    ser = _series(SEEDS[0], N_SEG + M - 1)
    ref_dist = znormalized_distance_matrix(ser, ser, M)
    ref_corr = 1.0 - ref_dist.transpose(2, 0, 1) ** 2 / (2.0 * M)
    for mode in MODES:
        err = _max_corr_error(mode, ser, ser, ref_corr)
        record["mode_errors"][mode] = err
        rows.append([f"vector {mode}", f"{err:.6f}", ""])
    tc_err = record["parity"][f"seed{SEEDS[0]}_self"]
    record["mode_errors"]["tensor_core"] = tc_err
    rows.append(["tensor-core Mixed", f"{tc_err:.6f}", ""])

    # -- speed: the acceptance measurement -------------------------------
    out_vec, t_vec = _time_tile("vector")
    out_tc, t_tc = _time_tile("tensor_core")
    speedup = t_vec / t_tc
    # Sanity on the outputs: same geometry, same motif structure (the
    # numerics differ by design — FP32 accumulation).
    assert out_tc.profile.shape == out_vec.profile.shape
    agree = float(np.mean(out_tc.indices == out_vec.indices))
    rows.append(["vector Mixed", f"{t_vec * 1e3:9.1f} ms", "1.00x"])
    rows.append(["tensor-core Mixed", f"{t_tc * 1e3:9.1f} ms",
                 f"{speedup:.2f}x"])
    rows.append(["motif index agreement", f"{agree:.3f}", ""])
    record["timing"] = {
        "vector_s": t_vec, "tensor_core_s": t_tc, "speedup": speedup,
        "index_agreement": agree, "repeats": REPEATS,
        "min_speedup": MIN_SPEEDUP,
    }

    table = format_table(
        ["measurement", "value", "note"],
        rows,
        f"Tensor-core main loop, reference tile n_seg={N_SEG}, d={D}, "
        f"m={M} (A100 launch, best of {REPEATS})",
    )
    emit("tensor_core", table)
    write_record(JSON_PATH, record)

    benchmark.pedantic(lambda: _time_tile("tensor_core"), rounds=1,
                       iterations=1)

    assert speedup >= MIN_SPEEDUP, (
        f"tensor-core reference tile speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP}x floor"
    )
