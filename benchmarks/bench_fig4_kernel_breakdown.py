"""Fig. 4 — kernel execution-time breakdown of the single-tile run on the
A100, versus n (d=2^6) and versus d (n=2^16).

Paper series: total ~15 s at n=2^16, d=2^6; execution time grows
quadratically with n; ``dist_calc`` dominates at small d while
``sort_&_incl_scan`` takes over at large d.  Times at paper scale come
from the calibrated roofline model; a reduced-scale executed run
cross-checks that the model agrees with the costs the kernels actually
record.
"""

import numpy as np
import pytest

from repro import matrix_profile
from repro.engine.backends import KERNEL_ORDER
from repro.gpu.perfmodel import single_tile_timing
from repro.reporting import format_table

from _harness import emit


def _row(label, timing):
    cells = [label]
    total = 0.0
    for name in KERNEL_ORDER:
        t = timing.kernels[name].total
        total += t
        cells.append(f"{t:.2f}")
    cells.append(f"{total:.2f}")
    return cells


@pytest.mark.benchmark(group="fig4")
def test_fig4_kernel_breakdown(benchmark):
    headers = ["param"] + list(KERNEL_ORDER) + ["total (s)"]

    rows_n = [
        _row(f"n=2^{e}", single_tile_timing(2**e, 2**e, 2**6, 2**6, "A100", 8))
        for e in (13, 14, 15, 16)
    ]
    rows_d = [
        _row(f"d=2^{e}", single_tile_timing(2**16, 2**16, 2**e, 2**6, "A100", 8))
        for e in (3, 4, 5, 6)
    ]

    blocks = [
        format_table(headers, rows_n, "Fig. 4 (left): breakdown vs n (d=2^6, m=2^6, A100, FP64)"),
        format_table(headers, rows_d, "Fig. 4 (right): breakdown vs d (n=2^16, m=2^6, A100, FP64)"),
    ]

    # Cross-check: executed reduced-scale run, breakdown from real costs.
    rng = np.random.default_rng(0)
    ts_r = rng.normal(size=(1024, 8))
    ts_q = rng.normal(size=(1024, 8))
    result = benchmark.pedantic(
        lambda: matrix_profile(ts_r, ts_q, m=64, mode="FP64", device="A100"),
        rounds=1,
        iterations=1,
    )
    breakdown = result.kernel_breakdown()
    blocks.append(
        format_table(
            ["kernel", "modelled seconds"],
            [[k, f"{v:.3g}"] for k, v in breakdown.items()],
            "Cross-check: executed run (n=961 segments, d=8) breakdown from recorded costs",
        )
    )
    emit("fig4_kernel_breakdown", "\n\n".join(blocks))

    # Shape assertions.
    t16 = single_tile_timing(2**16, 2**16, 2**6, 2**6, "A100", 8)
    total = sum(k.total for k in t16.kernels.values())
    assert 12.0 < total < 22.0  # the paper's ~15 s anchor
    assert (
        t16.kernels["sort_&_incl_scan"].total > t16.kernels["dist_calc"].total
    )  # sort dominates at d=2^6
    t_small_d = single_tile_timing(2**16, 2**16, 2**3, 2**6, "A100", 8)
    assert (
        t_small_d.kernels["dist_calc"].total
        >= t_small_d.kernels["sort_&_incl_scan"].total * 0.9
    )  # dist dominates (or ties) at d=2^3
