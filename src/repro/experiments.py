"""Registry of the paper's experiments and their regenerators.

The machine-readable version of DESIGN.md's per-experiment index: every
table/figure of the paper maps to the benchmark that regenerates it and
the archived results file it writes.  Used by the CLI (``python -m repro
experiments``) and by documentation tooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = ["Experiment", "EXPERIMENTS", "list_experiments", "results_path"]

#: Where the benchmark harness archives its tables.
RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


@dataclass(frozen=True)
class Experiment:
    """One reproducible experiment of the paper."""

    exp_id: str  # e.g. "fig2"
    paper_item: str  # "Fig. 2", "Table I", ...
    title: str
    bench: str  # benchmark file regenerating it
    result_file: str  # archived table name under benchmarks/results/
    kind: str  # "executed" | "modelled" | "both"


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        "fig2", "Fig. 2", "Numerical accuracy (A, R) vs n, d, m per mode",
        "bench_fig2_numerical_accuracy.py", "fig2_numerical_accuracy", "executed",
    ),
    Experiment(
        "fig3", "Fig. 3", "Embedded-motif recall per pattern P0-P7",
        "bench_fig3_pattern_recall.py", "fig3_pattern_recall", "executed",
    ),
    Experiment(
        "fig4", "Fig. 4", "Kernel execution-time breakdown vs n and d",
        "bench_fig4_kernel_breakdown.py", "fig4_kernel_breakdown", "both",
    ),
    Experiment(
        "fig5", "Fig. 5", "DGX-1 multi-GPU scaling and parallel efficiency",
        "bench_fig5_scaling_dgx1.py", "fig5_scaling_dgx1", "modelled",
    ),
    Experiment(
        "fig6", "Fig. 6", "CPU vs V100 vs A100 cross-generation performance",
        "bench_fig6_cross_generation.py", "fig6_cross_generation", "both",
    ),
    Experiment(
        "fig7", "Fig. 7", "Accuracy-performance trade-off vs tile count",
        "bench_fig7_tiles_tradeoff.py", "fig7_tiles_tradeoff", "both",
    ),
    Experiment(
        "util", "Sec. V-C", "Resource-utilisation / binding-resource analysis",
        "bench_util_resources.py", "util_resources", "modelled",
    ),
    Experiment(
        "fig9", "Figs. 8-9", "HPC-ODA application classification case study",
        "bench_fig9_hpcoda.py", "fig9_hpcoda", "executed",
    ),
    Experiment(
        "fig10", "Fig. 10", "GIAB genome mining: recall and time vs tiles",
        "bench_fig10_giab.py", "fig10_giab", "both",
    ),
    Experiment(
        "table1", "Table I", "Gas-turbine pair categories (scaled counts)",
        "bench_fig12_turbine.py", "table1_turbine_pairs", "executed",
    ),
    Experiment(
        "fig12", "Figs. 11-12", "Turbine startup detection, relaxed recall",
        "bench_fig12_turbine.py", "fig12_turbine", "executed",
    ),
    Experiment(
        "err-model", "Sec. V-B", "Ablation: error bound vs measured error",
        "bench_ablation_error_model.py", "ablation_error_model", "executed",
    ),
    Experiment(
        "design", "Secs. III-IV", "Ablations: sort strategy, streams, layout, Kahan",
        "bench_ablation_design.py", "ablation_sort_strategy", "both",
    ),
    Experiment(
        "ext-tp", "Sec. VII", "Extension: TF32/BFLOAT16 transprecision",
        "bench_ext_transprecision.py", "ext_transprecision", "both",
    ),
    Experiment(
        "ext-mn", "Sec. VII", "Extension: multi-node strong scaling",
        "bench_ext_multinode.py", "ext_multinode", "modelled",
    ),
    Experiment(
        "anytime", "Sec. II-A", "Related work: anytime (STAMP/SCRIMP++) convergence",
        "bench_anytime_convergence.py", "anytime_convergence", "executed",
    ),
    Experiment(
        "memory", "Sec. I", "Memory footprint per mode, largest supportable problem",
        "bench_memory_footprint.py", "memory_footprint", "both",
    ),
    Experiment(
        "traversal", "Sec. II-A", "Ablation: row-order vs diagonal-order anytime convergence",
        "bench_ablation_traversal.py", "ablation_traversal", "executed",
    ),
    Experiment(
        "service", "Sec. VII", "Service: cache throughput + precision-aware load shedding",
        "bench_service_throughput.py", "service_cache_throughput", "executed",
    ),
    Experiment(
        "faults", "Sec. VII", "Fault tolerance: health-check overhead + recovery under fault storms",
        "bench_fault_recovery.py", "fault_recovery", "executed",
    ),
    Experiment(
        "row_blocking", "Sec. III", "Row-blocked kernel execution: per-row vs blocked vs parallel tile workers",
        "bench_row_blocking.py", "row_blocking", "executed",
    ),
    Experiment(
        "precalc_amortization", "Sec. III-A",
        "Amortised precalculation: plan-level stats cache vs per-tile restart",
        "bench_precalc_amortization.py", "precalc_amortization", "executed",
    ),
    Experiment(
        "streaming_ingest", "Sec. VII",
        "Streaming ingestion: incremental band tiles + sketch-gated escalation vs recompute",
        "bench_streaming_ingest.py", "streaming_ingest", "executed",
    ),
    Experiment(
        "autotuner", "Secs. III-B, V",
        "Error-budget planner: auto vs default (bit-identical) and the error-target tier",
        "bench_autotuner.py", "autotuner", "executed",
    ),
    Experiment(
        "multinode_scaling", "Sec. VII",
        "Cluster tier: multi-node weak scaling + 10%-node-storm recovery overhead",
        "bench_multinode_scaling.py", "multinode_scaling", "modelled",
    ),
    Experiment(
        "tensor_core", "Sec. VII",
        "Tensor-core main loop: chained-GEMM panel vs vector path, error vs a-priori bound",
        "bench_tensor_core.py", "tensor_core", "executed",
    ),
    Experiment(
        "symmetric_tiles", "Sec. IV",
        "Symmetric self-join tiling: mirrored triangular grid vs full grid, both backends",
        "bench_symmetric_tiles.py", "symmetric_tiles", "executed",
    ),
)


def list_experiments() -> tuple[Experiment, ...]:
    return EXPERIMENTS


def results_path(exp_id: str) -> Path:
    """Archived results file of one experiment (may not exist yet)."""
    for exp in EXPERIMENTS:
        if exp.exp_id == exp_id:
            return RESULTS_DIR / f"{exp.result_file}.txt"
    valid = ", ".join(e.exp_id for e in EXPERIMENTS)
    raise KeyError(f"unknown experiment {exp_id!r}; expected one of: {valid}")
