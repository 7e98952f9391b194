"""Section V-C (resource utilisation) — which roofline resource binds each
kernel, and the achieved throughput fractions, per precision mode.

Paper observations: all kernels memory-bound; in FP64 ``dist_calc`` and
``update_mat_prof`` run at >80% DRAM throughput and ``sort_&_incl_scan``
at >80% L1/TEX with ~70% SM; the achieved fractions drop with narrower
types (60%/30% DRAM for FP32/FP16 dist_calc etc.), which is exactly why
reduced precision yields sub-linear speedup.
"""

import pytest

from repro.gpu import A100
from repro.gpu.calibration import DRAM_EFFICIENCY, L1_EFFICIENCY
from repro.gpu.kernel import LaunchConfig
from repro.gpu.perfmodel import kernel_time, single_tile_costs
from repro.gpu.profiler import binding
from repro.precision import policy_for
from repro.reporting import format_table

from _harness import MODES, emit

KERNELS = ("dist_calc", "sort_&_incl_scan", "update_mat_prof")


@pytest.mark.benchmark(group="util")
def test_util_resources(benchmark):
    cfg = LaunchConfig.tuned_for(A100)
    rows = []
    for mode in MODES:
        policy = policy_for(mode)
        costs = single_tile_costs(
            2**16, 2**16, 2**6, 2**6, policy.itemsize, cfg,
            precalc_itemsize=policy.precalc.itemsize,
            compensated=policy.compensated,
        )
        for name in KERNELS:
            bound = binding(costs[name], A100, policy.itemsize)
            t = kernel_time(costs[name], A100, policy.itemsize)
            dram_frac = DRAM_EFFICIENCY[name][policy.itemsize]
            l1_frac = L1_EFFICIENCY[policy.itemsize]
            rows.append(
                [
                    mode,
                    name,
                    bound,
                    f"{dram_frac:.0%}",
                    f"{l1_frac:.0%}" if name == "sort_&_incl_scan" else "-",
                    f"{t.busy:.2f}",
                ]
            )

    table = format_table(
        ["mode", "kernel", "bound by", "DRAM util", "L1 util", "busy (s)"],
        rows,
        "Section V-C: binding resource and achieved-throughput fractions "
        "(A100, n=2^16, d=2^6)",
    )
    emit("util_resources", table)

    benchmark.pedantic(
        lambda: single_tile_costs(2**16, 2**16, 2**6, 2**6, 8, cfg),
        rounds=3,
        iterations=1,
    )

    # Paper claims: every kernel is memory-bound (never SM-bound) and
    # dist_calc binds on DRAM in FP64.
    policy = policy_for("FP64")
    costs = single_tile_costs(2**16, 2**16, 2**6, 2**6, 8, cfg)
    for name in KERNELS:
        bound = binding(costs[name], A100, 8)
        assert bound != "SM", f"{name} must be memory-bound"
    assert binding(costs["dist_calc"], A100, 8) == "DRAM"
    assert binding(costs["sort_&_incl_scan"], A100, 8) == "L1/TEX"
