"""Command-line interface: ``python -m repro <command>``.

Gives downstream users a zero-code path to the main workflows:

* ``profile``   — compute a matrix profile for a CSV time series
* ``resume``    — resume an interrupted ``profile --journal`` run
* ``demo``      — run the synthetic quickstart (motif discovery)
* ``model``     — print modelled execution times for a problem size
* ``devices``   — list the simulated devices and their specs
* ``serve``     — drive a synthetic workload through the job service
* ``cluster``   — run jobs over a sharded node fleet, optionally under a storm
* ``stream``    — drive tenant streams through the online ingestion tier
* ``submit``    — run one CSV job through the service (deadline-aware)
* ``plan``      — tile planning; ``--explain`` prints the planner report
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .core.api import matrix_profile
from .core.config import RunConfig
from .core.multi_tile import model_multi_tile
from .gpu.device import DEVICES
from .precision.modes import PrecisionMode
from .reporting import format_seconds, print_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reduced-precision multi-GPU multi-dimensional matrix "
        "profile (IPDPS 2022 reproduction).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="matrix profile of a CSV time series")
    p.add_argument("csv", help="input file; one row per sample, one column per dim")
    p.add_argument("--query", help="optional second CSV for an AB-join")
    p.add_argument("-m", "--window", type=int, required=True, help="segment length")
    p.add_argument("--mode", default="FP64", help="precision mode (default FP64)")
    p.add_argument("--device", default="A100", help="simulated device")
    p.add_argument("--tiles", type=int, default=1)
    p.add_argument("--gpus", type=int, default=1)
    p.add_argument(
        "--tile-workers", type=int, default=None, metavar="W",
        help="host threads executing independent tiles concurrently "
        "(deterministic tile-id merge order; default 1 = serial)",
    )
    p.add_argument(
        "--auto", action="store_true",
        help="raise the tile count to the memory floor (bit-identical "
        "to the default config)",
    )
    p.add_argument(
        "--target-error", type=float, default=None, metavar="EPS",
        help="error budget for --auto: the planner may then also pick a "
        "cheaper mode, backend, layout or precalc strategy whose bound "
        "stays inside it",
    )
    p.add_argument(
        "--precalc-strategy", choices=("exact", "fft"), default=None,
        help="seed-QT batching strategy for the amortised precalc plane "
        "(exact = streaming accumulator, bit-identical to per-tile; "
        "fft = MASS-style convolution, FP64/FP32 only)",
    )
    p.add_argument("--output", help="write P and I as CSV to this prefix")
    p.add_argument("--top", type=int, default=3, help="motifs to print")
    p.add_argument(
        "--report", action="store_true",
        help="print the Nsight-style kernel profiling report",
    )
    p.add_argument(
        "--journal", metavar="DIR",
        help="checkpoint completed tiles into this directory "
        "(resume an interrupted run with `repro resume DIR`)",
    )
    p.add_argument(
        "--fault-tolerant", action="store_true",
        help="enable per-tile health checks with precision escalation, "
        "transient-failure retries and OOM tile splitting",
    )

    d = sub.add_parser("demo", help="synthetic motif-discovery demo")
    d.add_argument("--mode", default="Mixed")
    d.add_argument("-n", type=int, default=2048)
    d.add_argument("-d", "--dims", type=int, default=8)
    d.add_argument("-m", "--window", type=int, default=64)

    mo = sub.add_parser("model", help="modelled execution time for a problem size")
    mo.add_argument("-n", type=int, required=True, help="number of segments")
    mo.add_argument("-d", "--dims", type=int, required=True)
    mo.add_argument("-m", "--window", type=int, default=64)
    mo.add_argument("--device", default="A100")
    mo.add_argument("--tiles", type=int, default=1)
    mo.add_argument("--gpus", type=int, default=1)

    sub.add_parser("devices", help="list simulated devices")

    e = sub.add_parser("experiments", help="list the paper's experiments")
    e.add_argument("--show", metavar="ID", help="print one archived result table")

    v = sub.add_parser(
        "validate", help="cross-check all implementations on random data"
    )
    v.add_argument("-n", type=int, default=200, help="samples per series")
    v.add_argument("-d", "--dims", type=int, default=3)
    v.add_argument("-m", "--window", type=int, default=16)
    v.add_argument("--seed", type=int, default=0)

    sv = sub.add_parser(
        "serve", help="drive a synthetic multi-tenant workload through the "
        "job service and print the metrics snapshot"
    )
    sv.add_argument("--jobs", type=int, default=12, help="jobs to submit")
    sv.add_argument("-n", type=int, default=512, help="samples per series")
    sv.add_argument("-d", "--dims", type=int, default=3)
    sv.add_argument("-m", "--window", type=int, default=32)
    sv.add_argument("--mode", default="FP64", help="requested precision mode")
    sv.add_argument("--device", default="A100")
    sv.add_argument("--gpus", type=int, default=2)
    sv.add_argument("--workers", type=int, default=2)
    sv.add_argument(
        "--deadline", type=float, default=None,
        help="per-job deadline in seconds (enables precision downgrades)",
    )
    sv.add_argument(
        "--distinct", type=int, default=4,
        help="distinct series in the workload (repeats hit the cache)",
    )
    sv.add_argument("--no-cache", action="store_true", help="disable the result cache")
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument(
        "--show-ladder", action="store_true",
        help="also print the precision ladder's relative-cost factors",
    )

    cl = sub.add_parser(
        "cluster", help="drive a synthetic workload over a sharded node "
        "fleet — node storms, quotas, backpressure, autoscaling — and "
        "print the cluster health report"
    )
    cl.add_argument("--jobs", type=int, default=4, help="jobs to submit")
    cl.add_argument("-n", type=int, default=300, help="samples per series")
    cl.add_argument("-d", "--dims", type=int, default=2)
    cl.add_argument("-m", "--window", type=int, default=24)
    cl.add_argument("--mode", default="FP64", help="requested precision mode")
    cl.add_argument("--device", default="A100")
    cl.add_argument("--nodes", type=int, default=4, help="fleet size")
    cl.add_argument("--gpus-per-node", type=int, default=2)
    cl.add_argument(
        "--placement", choices=("round_robin", "block"), default="round_robin"
    )
    cl.add_argument(
        "--kill", type=int, default=0, metavar="K",
        help="deterministically crash the first K nodes mid-run",
    )
    cl.add_argument(
        "--crash-rate", type=float, default=0.0,
        help="per-node seeded crash probability (composes with --kill)",
    )
    cl.add_argument(
        "--straggler-rate", type=float, default=0.0,
        help="per-node seeded straggler probability (4x slowdown)",
    )
    cl.add_argument(
        "--degraded-rate", type=float, default=0.0,
        help="per-node seeded degraded-NIC probability (0.25x bandwidth)",
    )
    cl.add_argument("--storm-seed", type=int, default=0, help="fault-plan seed")
    cl.add_argument(
        "--autoscale-max", type=int, default=None, metavar="N",
        help="enable the EMA-backlog autoscaler with this node ceiling",
    )
    cl.add_argument(
        "--quota-pending", type=int, default=None, metavar="Q",
        help="per-tenant pending-job quota (excess submits are shed)",
    )
    cl.add_argument(
        "--max-queue-depth", type=int, default=None, metavar="Q",
        help="global queue-depth backpressure cap",
    )
    cl.add_argument(
        "--tenants", type=int, default=2, help="distinct tenants to cycle"
    )
    cl.add_argument("--seed", type=int, default=0, help="workload seed")

    st = sub.add_parser(
        "stream", help="drive synthetic tenant streams through the online "
        "ingestion tier (exact, sketch-gated, deadline-shed, sliding)"
    )
    st.add_argument("-n", type=int, default=600, help="samples per stream")
    st.add_argument("-d", "--dims", type=int, default=2)
    st.add_argument("-m", "--window", type=int, default=24)
    st.add_argument("--batch", type=int, default=25, help="samples per ingest call")
    st.add_argument("--mode", default="FP32", help="exact tenant precision mode")
    st.add_argument("--device", default="A100")
    st.add_argument("--gpus", type=int, default=2)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument(
        "--deadline", type=float, default=None,
        help="per-append deadline for the shed tenant (enables precision "
        "shedding; omit to skip that tenant)",
    )

    su = sub.add_parser(
        "submit", help="run one CSV job through the service"
    )
    su.add_argument("csv", help="input file; one row per sample, one column per dim")
    su.add_argument("--query", help="optional second CSV for an AB-join")
    su.add_argument("-m", "--window", type=int, required=True, help="segment length")
    su.add_argument("--mode", default="FP64", help="requested precision mode")
    su.add_argument("--device", default="A100")
    su.add_argument("--gpus", type=int, default=1)
    su.add_argument(
        "--deadline", type=float, default=None,
        help="latency budget in seconds (None = best effort)",
    )
    su.add_argument("--priority", type=int, default=0, help="lower runs first")

    r = sub.add_parser(
        "resume", help="resume an interrupted profile run from its journal"
    )
    r.add_argument("journal", help="journal directory written by --journal")
    r.add_argument(
        "--fault-tolerant", action="store_true",
        help="re-run the remaining tiles with health checks and retries",
    )
    r.add_argument("--top", type=int, default=3, help="motifs to print")
    r.add_argument("--output", help="write P and I as CSV to this prefix")

    pl = sub.add_parser("plan", help="plan the tile count for a problem")
    pl.add_argument("-n", type=int, required=True, help="segments per axis")
    pl.add_argument("-d", "--dims", type=int, required=True)
    pl.add_argument("-m", "--window", type=int, default=64)
    pl.add_argument("--mode", default="FP16")
    pl.add_argument("--device", default="A100")
    pl.add_argument("--target-error", type=float, default=None)
    pl.add_argument(
        "--explain", action="store_true",
        help="run the error-budget planner and print its full report "
        "(roofline position per kernel, occupancy, every candidate "
        "configuration with its predicted time and rejection reason)",
    )
    return parser


def _fault_tolerance_kwargs(fault_tolerant: bool) -> dict:
    """Engine knobs behind the ``--fault-tolerant`` CLI flag."""
    if not fault_tolerant:
        return {}
    from .engine.health import HealthPolicy

    return {"health": HealthPolicy(), "max_retries": 2, "oom_split": True}


def _print_result_summary(result, top: int, output: str | None) -> None:
    print(f"profile: {result.profile.shape[0]} segments x {result.d} dims "
          f"({result.mode}, {result.n_tiles} tiles, {result.n_gpus} GPU(s))")
    print(f"modelled device time: {format_seconds(result.modeled_time)}")
    if result.resumed_tiles:
        print(f"resumed: {result.resumed_tiles} tile(s) restored from the journal")
    if result.escalations:
        modes = ", ".join(
            f"tile {tid}->{mode.value}"
            for tid, mode in sorted(result.escalations.items())
        )
        print(f"escalated: {modes}")
    if result.split_tiles:
        print(f"split on OOM: {len(result.split_tiles)} tile(s)")
    if getattr(result, "precalc_saved_flops", 0.0) > 0:
        from .reporting import render_precalc_savings

        print(render_precalc_savings(result))
    from .apps.motif import top_motifs

    rows = [
        [t + 1, mo.query_pos, mo.ref_pos, mo.distance]
        for t, mo in enumerate(top_motifs(result, k=1, count=top))
    ]
    print_table(["#", "query pos", "match pos", "distance"], rows)
    if output:
        np.savetxt(f"{output}_profile.csv", result.profile, delimiter=",")
        np.savetxt(f"{output}_index.csv", result.index, fmt="%d", delimiter=",")
        print(f"wrote {output}_profile.csv and {output}_index.csv")


def _cmd_resume(args: argparse.Namespace) -> int:
    from .engine.checkpoint import resume_plan

    kwargs = _fault_tolerance_kwargs(args.fault_tolerant)
    result = resume_plan(args.journal, **kwargs)
    _print_result_summary(result, args.top, args.output)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    data = np.loadtxt(args.csv, delimiter=",", ndmin=2)
    query = np.loadtxt(args.query, delimiter=",", ndmin=2) if args.query else None
    result = matrix_profile(
        data,
        query,
        m=args.window,
        mode=args.mode,
        device=args.device,
        n_tiles=args.tiles,
        n_gpus=args.gpus,
        journal=args.journal,
        parallel_workers=args.tile_workers,
        precalc_strategy=args.precalc_strategy,
        auto=args.auto,
        target_error=args.target_error,
        **_fault_tolerance_kwargs(args.fault_tolerant),
    )
    _print_result_summary(result, args.top, None)
    if args.report:
        from .gpu.profiler import render_report

        print()
        print(render_report(result, args.device))
    if args.output:
        np.savetxt(f"{args.output}_profile.csv", result.profile, delimiter=",")
        np.savetxt(f"{args.output}_index.csv", result.index, fmt="%d", delimiter=",")
        print(f"wrote {args.output}_profile.csv and {args.output}_index.csv")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(0)
    n, d, m = args.n, args.dims, args.window
    ref = rng.normal(size=(n, d))
    qry = rng.normal(size=(n, d))
    wave = 5.0 * np.sin(np.linspace(0, 4 * np.pi, m))
    ref[n // 5 : n // 5 + m, 0] += wave
    qry[3 * n // 5 : 3 * n // 5 + m, 0] += wave
    result = matrix_profile(ref, qry, m=m, mode=args.mode)
    j, i = result.motif_location(1)
    print(f"planted motif: query {3 * n // 5} <-> reference {n // 5}")
    print(f"found motif:   query {j} <-> reference {i} ({args.mode})")
    print(f"modelled A100 time: {format_seconds(result.modeled_time)}")
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    from .gpu.energy import estimate_energy

    rows = []
    for mode in PrecisionMode:
        cfg = RunConfig(
            mode=mode, device=args.device, n_tiles=args.tiles, n_gpus=args.gpus
        )
        r = model_multi_tile(args.n, args.dims, args.window, cfg)
        energy = estimate_energy(r, args.device)
        rows.append(
            [
                mode.value,
                format_seconds(r.timeline.makespan),
                format_seconds(r.merge_time),
                format_seconds(r.modeled_time),
                f"{energy.kilojoules:.2f} kJ",
            ]
        )
    print_table(["mode", "GPU time", "merge", "total", "energy"], rows)
    return 0


def _cmd_devices(_: argparse.Namespace) -> int:
    rows = [
        [
            spec.name,
            spec.kind,
            spec.n_sms,
            f"{spec.peak_flops_fp64 / 1e12:.1f}",
            f"{spec.mem_bandwidth / 1e9:.0f}",
            f"{spec.mem_capacity / 1024**3:.0f}",
            spec.max_streams,
        ]
        for spec in DEVICES.values()
    ]
    print_table(
        ["device", "kind", "SMs/cores", "FP64 TFLOP/s", "BW GB/s", "mem GiB", "streams"],
        rows,
    )
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import EXPERIMENTS, results_path

    if args.show:
        path = results_path(args.show)
        if not path.exists():
            print(f"no archived result at {path}; run "
                  f"`pytest benchmarks/ --benchmark-only` first")
            return 1
        print(path.read_text())
        return 0
    rows = [
        [e.exp_id, e.paper_item, e.kind, e.title] for e in EXPERIMENTS
    ]
    print_table(["id", "paper", "kind", "experiment"], rows)
    print("regenerate everything with: pytest benchmarks/ --benchmark-only")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .core.planner import plan_tiles

    if args.explain:
        from .autotune import AutoTuner

        decision = AutoTuner(device=args.device).tune(
            args.n,
            args.n,
            args.dims,
            args.window,
            mode=args.mode,
            target_error=args.target_error,
        )
        print(decision.explain())
        return 0
    plan = plan_tiles(
        args.n,
        args.n,
        args.dims,
        args.window,
        mode=args.mode,
        device=args.device,
        target_error=args.target_error,
    )
    rows = [
        ["tiles", plan.n_tiles],
        ["grid", f"{plan.grid[0]} x {plan.grid[1]}"],
        ["tile size", f"{plan.tile_rows} x {plan.tile_cols} segments"],
        ["tile memory", f"{plan.tile_bytes / 1024**2:.1f} MiB"],
        ["limited by", plan.limited_by],
        ["predicted QT error bound", f"{plan.predicted_error_bound:.3g}"],
    ]
    print_table(["property", "value"], rows)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validation import validate_implementations

    rng = np.random.default_rng(args.seed)
    ref = rng.normal(size=(args.n, args.dims)).cumsum(axis=0)
    qry = rng.normal(size=(args.n, args.dims)).cumsum(axis=0)
    report = validate_implementations(ref, qry, args.window)
    print(report.to_table())
    print()
    print("all implementations agree" if report.all_ok else "MISMATCH detected")
    return 0 if report.all_ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .reporting import render_service_metrics
    from .service import JobRequest, MatrixProfileService

    rng = np.random.default_rng(args.seed)
    distinct = max(1, min(args.distinct, args.jobs))
    pool = [rng.normal(size=(args.n, args.dims)).cumsum(axis=0)
            for _ in range(distinct)]
    service = MatrixProfileService(
        device=args.device,
        n_gpus=args.gpus,
        n_workers=args.workers,
        use_cache=not args.no_cache,
    )
    if args.show_ladder:
        from .service import DOWNGRADE_LADDER

        rows = [
            [mode.value, f"{service.estimator.mode_factor(mode):.3f}"]
            for mode in DOWNGRADE_LADDER
        ]
        print_table(["mode", "cost vs FP64"], rows, title="downgrade ladder")
    jobs = [
        service.submit(
            JobRequest(
                reference=pool[i % distinct],
                m=args.window,
                mode=args.mode,
                deadline=args.deadline,
                priority=i % 3,
            )
        )
        for i in range(args.jobs)
    ]
    with service:
        pass  # workers drain the queue, then stop
    for job in jobs:
        out = job.outcome
        note = " cache" if out.cache_hit else ""
        if out.degraded:
            note += f" downgraded {out.requested_mode}->{out.effective_mode}"
        print(f"job {job.job_id}: {out.status} {out.effective_mode} "
              f"{out.latency * 1e3:.1f} ms{note}")
    print()
    print(render_service_metrics(service.metrics.snapshot()))
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .cluster import (
        BackpressureError,
        ClusterAutoscaler,
        ClusterSpec,
        NodeFaultPlan,
        QuotaExceededError,
        TenantQuota,
    )
    from .reporting import render_cluster_health, render_service_metrics
    from .service import JobRequest, MatrixProfileService

    rng = np.random.default_rng(args.seed)
    series = rng.normal(size=(args.n, args.dims)).cumsum(axis=0)
    node_faults = None
    if args.kill or args.crash_rate or args.straggler_rate or args.degraded_rate:
        node_faults = NodeFaultPlan(
            seed=args.storm_seed,
            crash_nodes=tuple(range(args.kill)),
            crash_rate=args.crash_rate,
            straggler_rate=args.straggler_rate,
            degraded_link_rate=args.degraded_rate,
        )
    autoscaler = None
    if args.autoscale_max is not None:
        autoscaler = ClusterAutoscaler(
            min_nodes=1, max_nodes=args.autoscale_max,
            scale_up_backlog=0.01, scale_down_backlog=0.001, cooldown=0,
        )
    service = MatrixProfileService(
        device=args.device,
        n_gpus=args.gpus_per_node,
        n_workers=1,
        cluster=ClusterSpec(
            n_nodes=args.nodes,
            gpus_per_node=args.gpus_per_node,
            device=args.device,
            placement=args.placement,
        ),
        node_faults=node_faults,
        autoscaler=autoscaler,
        default_quota=(
            TenantQuota(max_pending=args.quota_pending)
            if args.quota_pending is not None else None
        ),
        max_queue_depth=args.max_queue_depth,
    )
    jobs = []
    for i in range(args.jobs):
        tenant = f"tenant-{i % max(args.tenants, 1)}"
        try:
            jobs.append(service.submit(JobRequest(
                reference=series, m=args.window, mode=args.mode,
                tenant=tenant,
            )))
        except (QuotaExceededError, BackpressureError) as exc:
            print(f"job shed ({type(exc).__name__}): {exc}")
    service.process_all()
    for job in jobs:
        out = job.outcome
        note = " cache" if out.cache_hit else ""
        print(f"job {job.job_id} [{job.request.tenant}]: {out.status} "
              f"{out.effective_mode} {out.tiles_completed}/{out.tiles_total} "
              f"tiles{note}")
    run = service.cluster_dispatcher.last_run
    print()
    if run is not None:
        print(render_cluster_health(run))
        print()
    print(render_service_metrics(service.metrics.snapshot()))
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .reporting import render_service_metrics, render_stream_tenants
    from .streams import StreamIngestService, TenantPolicy

    rng = np.random.default_rng(args.seed)
    m = args.window
    n = args.n
    base = np.sin(np.linspace(0, n / 16, n))[:, None] * np.ones((1, args.dims))
    series = base + 0.1 * rng.standard_normal((n, args.dims))
    series[int(n * 0.75) : int(n * 0.75) + m] += 3.0  # planted discord

    service = StreamIngestService(device=args.device, n_gpus=args.gpus)
    service.register("exact", TenantPolicy(m=m, mode=args.mode))
    service.register(
        "gated", TenantPolicy(m=m, mode=args.mode, sketch_gate=True)
    )
    service.register(
        "sliding",
        TenantPolicy(m=m, mode=args.mode, window="sliding",
                     retention=max(4 * m, args.batch * 4)),
    )
    if args.deadline is not None:
        service.register(
            "shed", TenantPolicy(m=m, mode="FP64", deadline=args.deadline)
        )
    for i in range(0, n, args.batch):
        chunk = series[i : i + args.batch]
        for tenant in service.tenants():
            service.ingest(tenant, chunk)

    profile, index = service.profile("exact")
    if profile.size:
        discord = int(np.argmax(profile[:, 0]))
        print(f"exact tenant: {profile.shape[0]} segments; "
              f"top discord at segment {discord} "
              f"(planted at {int(n * 0.75)})")
    sessions = [service.tenant(t) for t in service.tenants()]
    print()
    print(render_stream_tenants(sessions))
    print()
    print(render_service_metrics(service.metrics.snapshot()))
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import JobRequest, MatrixProfileService

    data = np.loadtxt(args.csv, delimiter=",", ndmin=2)
    query = np.loadtxt(args.query, delimiter=",", ndmin=2) if args.query else None
    service = MatrixProfileService(device=args.device, n_gpus=args.gpus, n_workers=1)
    outcome = service.submit_and_wait(
        JobRequest(
            reference=data,
            query=query,
            m=args.window,
            mode=args.mode,
            deadline=args.deadline,
            priority=args.priority,
        )
    )
    result = outcome.result
    print(f"status: {outcome.status} (requested {outcome.requested_mode}, "
          f"ran {outcome.effective_mode})")
    if result is not None:
        print(f"profile: {result.profile.shape[0]} segments x {result.d} dims "
              f"({result.n_tiles} tiles)")
        print(f"service latency: {format_seconds(outcome.latency)}; "
              f"modelled device time: {format_seconds(result.modeled_time)}")
    if outcome.partial_state is not None:
        print(f"partial coverage: {outcome.completed_fraction:.0%} of tiles")
    if outcome.error:
        print(f"error: {outcome.error}")
    return 0 if outcome.status in ("completed", "partial") else 1


_COMMANDS = {
    "profile": _cmd_profile,
    "resume": _cmd_resume,
    "demo": _cmd_demo,
    "model": _cmd_model,
    "devices": _cmd_devices,
    "experiments": _cmd_experiments,
    "plan": _cmd_plan,
    "validate": _cmd_validate,
    "serve": _cmd_serve,
    "cluster": _cmd_cluster,
    "stream": _cmd_stream,
    "submit": _cmd_submit,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
