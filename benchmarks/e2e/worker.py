"""One benchmark run of one workload, in a fresh process.

Started by ``run.py``; prints one JSON object as its last stdout line.
``--phase setup`` stops after set-up and reports only ``setup_s``;
``--phase run`` runs passes for ``--seconds``, then the checks.  With
``--trace`` the passes alternate untraced and traced, so the tracer's
overhead is measured within the run.
"""

import time

# Set-up time starts here, before repro or numpy is imported.
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The checkout's own sources, never an installed copy of the package.
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

import repro  # noqa: E402
from e2e import stats, trace, workloads  # noqa: E402

if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
    raise ImportError(f"repro imported from {repro.__file__}, not {ROOT / 'src'}")


def _median(values):
    return stats.quartiles(values)[1]


def _op_medians(passes) -> list[list[float]]:
    """Per lane and op position, the median latency over ``passes``.

    Every pass runs the same op script from fresh state, so one op's
    latencies differ between passes only by noise; the median per op
    drops the passes a transient stall hit.
    """
    lanes = []
    for lane in range(len(passes[0].lanes)):
        medians = []
        for k in range(len(passes[0].lanes[lane])):
            values = [p.lanes[lane][k] for p in passes if p.lanes[lane][k] is not None]
            if values:
                medians.append(_median(values))
        lanes.append(medians)
    return lanes


def _model_metrics(passes) -> dict:
    """Per-layer metrics of the modelled clock and computed costs (the
    median pass; every pass runs the same op script)."""
    models = sorted((p.model for p in passes), key=lambda mdl: mdl.gpu_s)
    model = models[len(models) // 2]
    kernel_total = sum(model.kernel_s.values())
    out = {}
    for kernel in model.kernel_s:
        out[f"kernels.{kernel}.flops"] = model.flops[kernel]
        out[f"kernels.{kernel}.bytes"] = model.bytes[kernel]
        out[f"gpu.modeled.{kernel}_pct"] = (
            100.0 * model.kernel_s[kernel] / kernel_total if kernel_total else 0.0
        )
    out["gpu.modeled.merge_pct"] = 100.0 * model.merge_s / model.gpu_s if model.gpu_s else 0.0
    out["gpu.h2d_saved_bytes"] = model.h2d_saved_bytes
    return out


def run(args) -> dict:
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, Path(args.scratch))
    wl.setup()
    setup_s = time.perf_counter() - START
    if args.phase == "setup":
        return {"workload": args.workload, "setup_s": setup_s}

    wl.make_inputs()
    tracer = trace.Tracer() if args.trace else None
    passes = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        if passes:
            # Only the last pass is checked; dropping earlier outputs first
            # keeps each pass's heap, and so its GC work, alike.
            passes[-1].outputs = None
        if tracer is not None and index % 2 == 1:
            with tracer.installed():
                record = wl.run_pass(index, tracer)
        else:
            record = wl.run_pass(index, None)
        passes.append(record)
        enough = tracer is None or len(passes) >= 2
        if enough and time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = wl.check(passes[-1])
    plain = [p for p in passes if not p.traced]
    # Closed-loop lanes run side by side: a pass of per-op median
    # latencies lasts as long as its slowest lane.
    medians = _op_medians(plain)
    ops_per_s = sum(map(len, medians)) / max(map(sum, medians))
    compared = [c for c in checks if c.mean_ratio is not None]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + sum(not c.ok for c in checks)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "metrics": {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "latency_p50_s": _median([lat for lane in medians for lat in lane]),
            "modeled_gpu_s": _median([p.model.gpu_s for p in plain]),
            "mean_err_ratio": (
                sum(c.mean_ratio for c in compared) / len(compared) if compared else 0.0
            ),
            "peak_rss_mb": peak_rss_mb,
        },
        "max_err_ratio": max((c.max_ratio for c in compared), default=0.0),
        "derived": wl.derived(ops_per_s),
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "pass_traced": [p.traced for p in passes],
        "latency_samples": sum(len(p.latencies) for p in plain),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "checks": [
            {"name": c.name, "ok": c.ok, "max_ratio": c.max_ratio,
             "mean_ratio": c.mean_ratio, "detail": c.detail}
            for c in checks
        ],
        "wrappers_left": trace.installed_wrappers(),
    }
    if tracer is not None:
        traced = [p for p in passes if p.traced]
        wall = sum(p.wall for p in traced)
        per_layer = trace.span_metrics(tracer.spans, tracer.counts, wall, len(traced))
        per_layer.update(_model_metrics(passes))
        per_layer.update(wl.layer_stats(passes, tracer))
        per_layer["trace.overhead_ratio"] = (
            _median([p.wall for p in traced]) / _median([p.wall for p in plain])
        )
        out["per_layer"] = per_layer
        out["layers_self_s_per_pass"] = {
            name: total["self_s"] / len(traced)
            for name, total in trace.totals_by_name(tracer.spans).items()
        }
        out["traced_pass_wall_s"] = wall / len(traced)
        trace_path = Path(args.results) / f"trace_{args.workload}.json"
        trace.chrome_trace(tracer.spans, trace_path)
        out["trace_file"] = str(trace_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--phase", choices=("setup", "run"), default="run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--scratch", required=True, help="directory for journals")
    parser.add_argument("--results", required=True, help="directory for trace files")
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    Path(args.scratch).mkdir(parents=True, exist_ok=True)
    try:
        out = run(args)
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
