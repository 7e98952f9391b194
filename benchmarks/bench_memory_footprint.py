"""Section I claim — reduced precision "can also reduce the memory
footprint, resulting in ... the ability to support larger problems".

Quantifies the device-memory footprint per precision mode (from the
allocator's high-water mark on an executed run, plus the analytic tile
footprint at paper scale) and the largest single-tile problem each mode
fits into one A100.
"""

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.planner import tile_memory_bytes
from repro.gpu import A100
from repro.gpu.simulator import GPUSimulator
from repro.reporting import format_table

from _harness import MODES, emit


def _largest_single_tile(mode, d, m):
    """Largest n_seg whose single tile fits 90% of an A100."""
    budget = 0.9 * A100.mem_capacity
    lo, hi = 1, 1 << 32
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if tile_memory_bytes(mid, mid, d, m, mode) <= budget:
            lo = mid
        else:
            hi = mid - 1
    return lo


@pytest.mark.benchmark(group="memory")
def test_memory_footprint(benchmark):
    rng = np.random.default_rng(0)
    ref = rng.normal(size=(768, 8))
    qry = rng.normal(size=(768, 8))

    rows = []
    high_water = {}
    for mode in MODES:
        # Executed run against the tracking allocator.
        from repro.kernels.layout import to_device_layout
        from repro.engine.backends import run_tile
        from repro.engine.plan import JobSpec
        from repro.precision import policy_for

        policy = policy_for(mode)
        sim = GPUSimulator("A100")
        gpu = sim.gpus[0]
        tr = gpu.memory.upload(to_device_layout(ref, policy.storage))
        tq = gpu.memory.upload(to_device_layout(qry, policy.storage))
        cfg = RunConfig(mode=mode)
        precalc = JobSpec.from_layouts(tr.array, tq.array, 64, cfg).whole_grid_precalc()
        run_tile(tr.array, tq.array, 64, policy, cfg.launch, precalc=precalc)
        hw = gpu.memory.report()["high_water"]
        high_water[mode] = hw
        gpu.memory.free_all()

        analytic = tile_memory_bytes(2**16, 2**16, 64, 64, mode)
        largest = _largest_single_tile(mode, 64, 64)
        rows.append(
            [
                mode,
                f"{hw / 1024:.1f} KiB",
                f"{analytic / 1024**3:.2f} GiB",
                f"2^{int(np.log2(largest))}",
            ]
        )

    table = format_table(
        ["mode", "measured inputs (executed run)",
         "tile footprint @ n=2^16,d=2^6", "largest single-tile n on A100"],
        rows,
        "Memory footprint per precision mode",
    )
    emit("memory_footprint", table)

    benchmark.pedantic(
        lambda: tile_memory_bytes(2**16, 2**16, 64, 64, "FP16"),
        rounds=10,
        iterations=100,
    )

    # Claims: FP16 storage halves FP32 and quarters FP64; the largest
    # supportable problem grows as the dtype shrinks.
    assert high_water["FP16"] < high_water["FP32"] < high_water["FP64"]
    assert _largest_single_tile("FP16", 64, 64) > _largest_single_tile(
        "FP64", 64, 64
    )
