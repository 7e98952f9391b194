"""Ablation — the design choices Section III/IV motivates.

* **Cooperative bitonic sort vs batch sort**: the paper chooses a
  group-cooperative bitonic network over "the more intuitive batch-based
  parallelization, where only one thread performs a single sort", because
  the latter under-utilises the device.  We model the batch variant as a
  serial-sort-per-thread kernel (one thread sorts d elements in d*log d
  dependent steps at scalar ALU latency) and compare.
* **Stream count**: 1 vs 16 streams with many tiles — the overhead-hiding
  benefit of implicit synchronisation (Section IV).
* **Dimension-wise layout**: measured numpy wall clock of unit-stride vs
  strided reductions — the coalescing argument in host terms.
* **Kahan compensation**: FP16C precalc flops cost vs its accuracy gain.
"""

import time

import numpy as np
import pytest

from repro import RunConfig, model_multi_tile
from repro.gpu import A100
from repro.gpu.perfmodel import single_tile_timing
from repro.reporting import format_table

from _harness import emit


def _batch_sort_time(n, d, device):
    """Model the batch-based alternative: one thread per column serially
    sorts its d values (insertion sort: ~d^2/2 element accesses plus the
    d-step scan).  Each thread walks the dimension axis, whose elements
    are n apart in the dimension-wise layout, so a warp's 32 threads hit
    32 different cache lines per step: effective bandwidth collapses to
    ~1/10 of peak (one useful element per 64-byte sector, minus cache
    reuse).  This is the under-utilisation the paper's cooperative design
    avoids."""
    from repro.gpu.calibration import device_scale

    bytes_touched = float(n) * n * (d * d / 2.0 + d) * 8
    effective_bw = 0.1 * device.mem_bandwidth * device_scale(device.name)
    return bytes_touched / effective_bw


@pytest.mark.benchmark(group="ablation")
def test_ablation_sort_strategy(benchmark):
    n, m = 2**16, 2**6
    rows = []
    for d in (8, 16, 32, 64):
        coop = single_tile_timing(n, n, d, m, "A100", 8).kernels[
            "sort_&_incl_scan"
        ].total
        batch = _batch_sort_time(n, d, A100)
        rows.append([d, f"{coop:.2f}", f"{batch:.2f}", f"{batch / coop:.1f}x"])
    table = format_table(
        ["d", "cooperative bitonic (s)", "batch per-thread (s)", "bitonic advantage"],
        rows,
        "Ablation: cooperative bitonic vs batch-based sort (modelled, A100, n=2^16)",
    )
    emit("ablation_sort_strategy", table)
    benchmark.pedantic(lambda: _batch_sort_time(n, 64, A100), rounds=10, iterations=10)
    # The paper's choice must win at every dimensionality.
    for d in (8, 16, 32, 64):
        coop = single_tile_timing(n, n, d, m, "A100", 8).kernels[
            "sort_&_incl_scan"
        ].total
        assert _batch_sort_time(n, d, A100) > coop


@pytest.mark.benchmark(group="ablation")
def test_ablation_sort_strategy_executed(benchmark):
    """Executed twin of the analytic sort ablation: run the real batch
    kernel (``tests/sort_scan_batch.py``, row by row through the per-row
    oracle) against the cooperative one of the main loop and compare
    recorded-cost-derived busy times plus result equality."""
    from repro.core.config import RunConfig
    from repro.engine.backends import run_tile, tile_timing_from_output
    from repro.engine.plan import JobSpec
    from repro.kernels.layout import to_device_layout
    from repro.precision import policy_for
    from tests.per_row_oracle import per_row_tile

    rng = np.random.default_rng(2)
    series = rng.normal(size=(600, 16))
    policy = policy_for("FP64")
    dev = to_device_layout(series, policy.storage)
    cfg = RunConfig()

    precalc = JobSpec.from_layouts(dev, dev, 32, cfg).whole_grid_precalc()
    coop = run_tile(dev, dev, 32, policy, cfg.launch, exclusion_zone=8, precalc=precalc)
    batch = per_row_tile(
        dev, dev, 32, policy, cfg.launch, exclusion_zone=8, sort_strategy="batch",
        precalc=precalc,
    )
    t_coop = tile_timing_from_output(coop, policy, A100).kernels["sort_&_incl_scan"]
    t_batch = tile_timing_from_output(batch, policy, A100).kernels["sort_&_incl_scan"]

    table = format_table(
        ["strategy", "sort busy (modelled s)", "DRAM bytes", "results equal"],
        [
            ["cooperative bitonic", f"{t_coop.busy:.5f}",
             f"{coop.costs['sort_&_incl_scan'].bytes_dram:.3g}", "-"],
            ["batch per-thread", f"{t_batch.busy:.5f}",
             f"{batch.costs['sort_&_incl_scan'].bytes_dram:.3g}",
             str(bool(np.array_equal(coop.indices, batch.indices)))],
        ],
        "Ablation (executed): real batch kernel vs cooperative kernel "
        "(n=569 segments, d=16, FP64)",
    )
    emit("ablation_sort_strategy_executed", table)

    benchmark.pedantic(
        lambda: per_row_tile(
            dev[:, :200], dev[:, :200], 32, policy, cfg.launch, sort_strategy="batch",
            precalc=JobSpec.from_layouts(dev[:, :200], dev[:, :200], 32, cfg)
            .whole_grid_precalc(),
        ),
        rounds=1,
        iterations=1,
    )

    assert np.array_equal(coop.indices, batch.indices)  # same math
    assert t_batch.busy > t_coop.busy  # the paper's design choice wins


@pytest.mark.benchmark(group="ablation")
def test_ablation_stream_count(benchmark):
    n, d, m = 2**16, 2**6, 2**6
    rows = []
    times = {}
    for n_streams in (1, 2, 4, 16):
        cfg = RunConfig(device="A100", n_tiles=64, n_streams=n_streams)
        t = model_multi_tile(n, d, m, cfg).modeled_time
        times[n_streams] = t
        rows.append([n_streams, f"{t:.2f}"])
    table = format_table(
        ["streams", "modelled time (s)"],
        rows,
        "Ablation: stream count with 64 tiles (A100, n=2^16, d=2^6)",
    )
    emit("ablation_stream_count", table)
    benchmark.pedantic(
        lambda: model_multi_tile(n, d, m, RunConfig(device="A100", n_tiles=64)),
        rounds=1,
        iterations=1,
    )
    assert times[16] <= times[1]


@pytest.mark.benchmark(group="ablation")
def test_ablation_data_layout(benchmark):
    # Host-measurable analogue of coalescing: summing the same number of
    # elements from a contiguous span (a dimension-wise row) vs a strided
    # walk (one dimension of a time-major array, elements d*8 bytes apart).
    d = 64
    flat = np.random.default_rng(0).normal(size=d * (1 << 16))

    def contiguous():
        return flat[: 1 << 16].sum()

    def strided():
        return flat[::d].sum()  # same element count, one cache line each

    reps = 20
    contiguous(), strided()  # warm caches fairly
    t0 = time.perf_counter()
    for _ in range(reps):
        contiguous()
    t_contig = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(reps):
        strided()
    t_strided = time.perf_counter() - t0
    table = format_table(
        ["access pattern", f"wall clock ({reps} reps)"],
        [
            ["dimension-wise (unit stride)", f"{t_contig:.4f} s"],
            ["time-major (strided)", f"{t_strided:.4f} s"],
        ],
        "Ablation: dimension-wise layout => unit-stride (coalesced) access",
    )
    emit("ablation_data_layout", table)
    benchmark.pedantic(contiguous, rounds=3, iterations=1)
    # Unit stride should never lose; tolerate noise on shared machines.
    assert t_contig <= t_strided * 1.5


@pytest.mark.benchmark(group="ablation")
def test_ablation_kahan_cost(benchmark):
    # FP16C's compensation quadruples precalc flops but precalc is a
    # negligible slice of the runtime — the paper's "does not result in
    # any significant overhead".
    n, d, m = 2**16, 2**6, 2**6
    plain = single_tile_timing(n, n, d, m, "A100", 2, precalc_itemsize=4)
    comp = single_tile_timing(
        n, n, d, m, "A100", 2, precalc_itemsize=4, compensated=True
    )
    overhead = comp.compute_total / plain.compute_total - 1.0
    table = format_table(
        ["variant", "precalc (s)", "total (s)"],
        [
            ["Mixed", f"{plain.kernels['precalculation'].total:.4f}",
             f"{plain.compute_total:.2f}"],
            ["FP16C (Kahan)", f"{comp.kernels['precalculation'].total:.4f}",
             f"{comp.compute_total:.2f}"],
        ],
        f"Ablation: Kahan compensation overhead = {overhead:.3%} of total",
    )
    emit("ablation_kahan_cost", table)
    benchmark.pedantic(
        lambda: single_tile_timing(n, n, d, m, "A100", 2, compensated=True),
        rounds=5,
        iterations=1,
    )
    assert overhead < 0.01  # under 1% end-to-end
