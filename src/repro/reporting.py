"""Plain-text reporting helpers shared by benchmarks and examples.

The benchmark harness regenerates the paper's tables and figures as text:
each figure becomes a table of the series it plots.  These helpers keep
that output consistent and dependency-free.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "format_table",
    "print_table",
    "format_seconds",
    "banner",
    "render_service_metrics",
    "render_precalc_savings",
    "render_stream_tenants",
    "render_cluster_health",
]


def format_seconds(value: float) -> str:
    """Human-friendly duration: µs/ms/s with three significant digits."""
    if value != value:  # NaN
        return "nan"
    if value < 1e-3:
        return f"{value * 1e6:.3g} us"
    if value < 1.0:
        return f"{value * 1e3:.3g} ms"
    return f"{value:.3g} s"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Fixed-width table with a header rule, GitHub-markdown-ish."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> None:
    print(format_table(headers, rows, title))
    print()


def render_service_metrics(snapshot) -> str:
    """Render a :class:`repro.service.MetricsSnapshot` as a metrics table.

    Accepts any object with the snapshot's ``to_rows()`` contract, so the
    reporting layer stays import-independent of the service subsystem.
    """
    return format_table(["metric", "value"], snapshot.to_rows(),
                        title="service metrics")


def render_stream_tenants(sessions) -> str:
    """Per-tenant table for the streaming ingestion tier.

    Accepts any iterable of objects with the :class:`repro.streams.
    TenantStream` surface (``tenant_id``, ``policy``, ``counters``,
    ``n_samples_global``), so the reporting layer stays import-
    independent of the streams subsystem.
    """
    rows = []
    for session in sessions:
        policy = session.policy
        c = session.counters
        rows.append([
            session.tenant_id,
            policy.mode,
            policy.window + ("*" if policy.sketch_gate else ""),
            session.n_samples_global,
            c.appends,
            c.dropped,
            c.alarms,
            f"{c.suppression_ratio:.0%}",
            c.exact_tiles,
            c.shed_steps,
            c.rebases,
        ])
    return format_table(
        [
            "tenant", "mode", "window", "samples", "appends", "dropped",
            "alarms", "suppressed", "tiles", "shed", "rebases",
        ],
        rows,
        title="stream tenants (* = sketch-gated)",
    )


def render_cluster_health(run) -> str:
    """Health report for one cluster run: per-node shards, then the
    resilience story (deaths, re-shards, recovery overhead).

    Accepts any object with the :class:`repro.cluster.ClusterRunResult`
    surface (``nodes`` of ``(node, round, n_tiles, gpu_time)`` shards,
    ``node_deaths``, ``tiles_*``, ``recovery_overhead``, ...), so the
    reporting layer stays import-independent of the cluster subsystem.
    """
    dead = set(getattr(run, "node_deaths", ()) or ())
    per_node: dict[int, list] = {}
    for shard in getattr(run, "nodes", ()):
        per_node.setdefault(shard.node, []).append(shard)
    rows = []
    for node in sorted(set(per_node) | dead):
        shards = per_node.get(node, [])
        rows.append([
            node,
            "dead" if node in dead else "alive",
            len(shards),
            sum(s.n_tiles for s in shards),
            format_seconds(sum(s.gpu_time for s in shards)),
        ])
    table = format_table(
        ["node", "state", "rounds", "tiles", "gpu time"], rows,
        title="cluster health",
    )
    lines = [
        table,
        f"tiles: {run.tiles_completed}/{run.tiles_total} completed, "
        f"{run.tiles_resharded} re-sharded, {run.dropped_tiles} dropped",
    ]
    if dead:
        lines.append(
            f"node deaths: {sorted(dead)}; detection latency "
            f"{format_seconds(run.detection_latency)}; recovery overhead "
            f"{format_seconds(run.recovery_overhead)}"
        )
    restored = int(getattr(run, "tiles_restored", 0))
    if restored:
        lines.append(f"resumed: {restored} tile(s) restored from the journal")
    return "\n".join(lines)


def render_precalc_savings(result) -> str:
    """One-line summary of the precalc plane work amortised away.

    Accepts any object with ``precalc_saved_flops`` (and optionally a
    ``costs`` dict carrying the charged ``precalculation`` cost), so it
    works for :class:`~repro.core.result.MatrixProfileResult` and duck
    typed stand-ins alike.  When the charged precalc flops are known the
    saved fraction of the total plane+seed work is appended.
    """
    saved = float(getattr(result, "precalc_saved_flops", 0.0))
    line = f"precalc amortisation saved {saved:.4g} flops"
    cost = (getattr(result, "costs", None) or {}).get("precalculation")
    if cost is not None and cost.flops + saved > 0:
        fraction = saved / (cost.flops + saved)
        line += f" ({fraction:.1%} of the unamortised precalc work)"
    return line


def banner(text: str) -> None:
    """Section banner for example/benchmark output."""
    line = "#" * (len(text) + 4)
    print(f"\n{line}\n# {text} #\n{line}")


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
