"""Compare parent and change runs of the benchmark by the pairing rule.

    python3 benchmarks/e2e/compare.py PARENT CHANGE

PARENT and CHANGE are ``run.py`` result files, or directories whose result
files are merged in name (that is, time) order, made with the same
benchmark code and settings.  Run ``i`` of the parent is paired with run
``i`` of the change; alternate which side runs first when making them.
For every workload and end-to-end metric the verdict is:

* ``improved`` -- at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither), and the medians differ by more than the
  parent's interquartile distance;
* ``regressed`` -- the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- the parent's own spread is wider than the bound, unless
  every change run reads better than every parent run;
* ``unchanged`` -- otherwise.

Each workload gets one row: regressed if any metric regressed, else
unresolved if any is unresolved, else improved if any improved, else
unchanged.  When both sides include traced runs, the per-layer self-time
deltas per pass are listed with the share of the traced pass-time delta
they account for.  The exit code is 1 when any workload regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from e2e import stats  # noqa: E402

BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def verdict(parent, change, better: str, bound: float) -> dict:
    """Classify one metric of one workload from its per-run values."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    p_q1, p_med, p_q3 = stats.quartiles(parent)
    c_med = stats.quartiles(change)[1]
    gain = sign * (c_med - p_med)
    scale = abs(p_med) if p_med else 1.0
    spread = (p_q3 - p_q1) / scale
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= MIN_WIN_SHARE * len(pairs)
        and gain > p_q3 - p_q1
    ):
        label = "improved"
    elif -gain > bound * scale:
        label = "regressed"
    elif spread > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {
        "verdict": label,
        "parent_median": p_med,
        "change_median": c_med,
        "parent_spread": spread,
        "wins": wins,
        "pairs": len(pairs),
    }


def row_verdict(verdicts) -> str:
    labels = {v["verdict"] for v in verdicts}
    for label in ("regressed", "unresolved", "improved"):
        if label in labels:
            return label
    return "unchanged"


def layer_accounting(parent_runs, change_runs) -> dict | None:
    """Per-layer self-time delta per pass against the pass-time delta."""

    def median_layers(runs):
        names = {n for r in runs for n in r["layers_self_s_per_pass"]}
        return {
            n: stats.quartiles([r["layers_self_s_per_pass"].get(n, 0.0) for r in runs])[1]
            for n in names
        }

    before, after = median_layers(parent_runs), median_layers(change_runs)
    deltas = {n: after.get(n, 0.0) - before.get(n, 0.0) for n in set(before) | set(after)}
    wall_delta = (
        stats.quartiles([r["traced_pass_wall_s"] for r in change_runs])[1]
        - stats.quartiles([r["traced_pass_wall_s"] for r in parent_runs])[1]
    )
    layered = sum(deltas.values())
    return {
        "pass_wall_delta_s": wall_delta,
        "layer_delta_s": layered,
        "accounted_share": layered / wall_delta if wall_delta else None,
        "deltas_s": dict(sorted(deltas.items(), key=lambda kv: -abs(kv[1]))),
    }


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Workload -> runs of one side, from a result file or a directory of
    them (smoke results and Chrome traces are skipped)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict[str, list[dict]] = {}
    for file in files:
        result = json.loads(file.read_text())
        if "runs" not in result or result.get("smoke"):
            continue
        for workload, records in result["runs"].items():
            runs.setdefault(workload, []).extend(records)
    return runs


def compare(parent: dict, change: dict, bench: dict) -> dict:
    """Per-workload verdicts from two ``load_runs`` mappings."""
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    rows = {}
    for workload in parent:
        if workload not in change:
            continue
        p_plain = [r for r in parent[workload] if "per_layer" not in r]
        c_plain = [r for r in change[workload] if "per_layer" not in r]
        per_metric = {}
        for name, spec in metrics.items():
            p_vals = [r["metrics"][name] for r in p_plain]
            c_vals = [r["metrics"][name] for r in c_plain]
            if p_vals and c_vals:
                per_metric[name] = verdict(p_vals, c_vals, spec["better"], spec["bound"])
        p_traced = [r for r in parent[workload] if "per_layer" in r]
        c_traced = [r for r in change[workload] if "per_layer" in r]
        rows[workload] = {
            "verdict": row_verdict(per_metric.values()) if per_metric else "unresolved",
            "metrics": per_metric,
            "layers": (
                layer_accounting(p_traced, c_traced) if p_traced and c_traced else None
            ),
        }
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK_JSON.read_text())
    rows = compare(load_runs(args.parent), load_runs(args.change), bench)
    for workload, row in rows.items():
        print(f"{workload}: {row['verdict']}")
        for name, v in row["metrics"].items():
            print(f"  {name:16s} {v['verdict']:10s} parent {v['parent_median']:.6g} "
                  f"change {v['change_median']:.6g} wins {v['wins']}/{v['pairs']} "
                  f"parent spread {v['parent_spread']:.1%}")
        layers = row["layers"]
        if layers is not None:
            share = layers["accounted_share"]
            print(f"  layers: pass delta {layers['pass_wall_delta_s']:+.4f} s, "
                  f"self-time deltas {layers['layer_delta_s']:+.4f} s"
                  + (f" ({share:.0%} accounted)" if share is not None else ""))
            for name, delta in list(layers["deltas_s"].items())[:8]:
                print(f"    {name:24s} {delta:+.4f} s/pass")
    return 1 if any(row["verdict"] == "regressed" for row in rows.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
