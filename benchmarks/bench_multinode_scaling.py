"""Multi-node weak scaling + node-storm recovery overhead (Section VII).

The paper's scaling study (Fig. 5 and the DGX-1/Raven discussions) shows
the tiled algorithm's hallmark shape: near-flat weak scaling — grow the
problem with the fleet and the wall time barely moves — with parallel
efficiency eroding slowly as the communication and merge phases grow
with the fleet.  This bench reproduces that shape over the sharded
cluster tier at 10-100x the paper's tile counts: the per-GPU tile count
is 10x the paper's 4-per-GPU oversubscription guidance, and the largest
fleet (16 nodes x 4 GPUs = 2560 tiles) runs ~100x the paper's largest
DGX-1 tiling.  Times are modelled (AnalyticBackend) — the same pricing
as the fault-free strong-scaling bench ``bench_ext_multinode.py`` — so
the paper-scale problems stay tractable in pure Python.

Measurements:

1. **Weak scaling** — per fleet size, ``n`` grows as ``sqrt(nodes)``
   (constant n^2 work per node); weak efficiency = T(1) / T(nodes).
   Acceptance: efficiency at the largest fleet stays above 0.6 and
   communication stays a small fraction of the total.
2. **10%-node-storm recovery overhead** — kill 10% of a 10-node fleet
   mid-run; lost tiles re-shard to the survivors after the heartbeat
   detector fires.  Acceptance: zero dropped tiles and total time within
   1.5x of the fault-free run (the headline recovery-overhead claim).

Results are archived to ``benchmarks/results/multinode_scaling.txt`` and
``BENCH_multinode_scaling.json`` at the repo root.  ``REPRO_BENCH_SMOKE=1``
shrinks the fleet curve for CI smoke runs.
"""

import math
from pathlib import Path

import pytest

from repro.cluster import ClusterDispatcher, ClusterSpec, NodeFaultPlan
from repro.core.config import RunConfig
from repro.engine.plan import JobSpec
from repro.reporting import format_table

from _harness import SMOKE, emit, write_record


#: Weak-scaling base problem: n segments at one node (paper scale).
BASE_N = 2**14 if SMOKE else 2**16
D, M = 64, 64
GPUS_PER_NODE = 4
#: 10x the paper's 4-tiles-per-GPU oversubscription guidance.
TILES_PER_GPU = 40
NODES = (1, 2, 4, 8) if SMOKE else (1, 2, 4, 8, 16)

#: Storm scenario: 10% of a ten-node fleet dies mid-run.  Always at the
#: full paper scale — the overhead ratio compares a fixed-cost heartbeat
#: detection latency against compute, so shrinking the problem would
#: only measure the detector, not the recovery (modelled times keep the
#: full scale cheap even in smoke runs).
STORM_BASE_N = 2**16
STORM_NODES = 10
STORM_KILL = (3,)
MAX_STORM_OVERHEAD = 1.5
MIN_WEAK_EFFICIENCY = 0.6

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_multinode_scaling.json"


def _weak_spec(n_nodes: int, cluster: ClusterSpec, base_n: int = None) -> JobSpec:
    n = int((base_n or BASE_N) * math.sqrt(n_nodes))
    config = RunConfig(mode="FP64", device=cluster.device_spec)
    return JobSpec.modeled(n, n, D, M, config)


def _run(cluster: ClusterSpec, node_faults=None, base_n: int = None):
    spec = _weak_spec(cluster.n_nodes, cluster, base_n)
    dispatcher = ClusterDispatcher(cluster, node_faults=node_faults)
    return dispatcher.run(
        spec, n_tiles=TILES_PER_GPU * cluster.total_gpus
    )


@pytest.mark.benchmark(group="multinode_scaling")
def test_multinode_weak_scaling_and_storm(benchmark):
    record = {
        "reference_config": {
            "base_n": BASE_N, "d": D, "m": M,
            "gpus_per_node": GPUS_PER_NODE,
            "tiles_per_gpu": TILES_PER_GPU,
            "nodes": list(NODES), "smoke": SMOKE,
        },
        "weak_scaling": [],
        "storm": {},
    }

    # -- weak scaling curve ----------------------------------------------
    rows = []
    runs = {}
    for n_nodes in NODES:
        cluster = ClusterSpec(n_nodes=n_nodes, gpus_per_node=GPUS_PER_NODE)
        runs[n_nodes] = _run(cluster)
    base = runs[NODES[0]]
    efficiencies = {}
    for n_nodes in NODES:
        r = runs[n_nodes]
        eff = base.total_time / r.total_time
        efficiencies[n_nodes] = eff
        comm = r.broadcast_time + r.gather_time
        rows.append([
            n_nodes,
            n_nodes * GPUS_PER_NODE,
            TILES_PER_GPU * n_nodes * GPUS_PER_NODE,
            f"{int(BASE_N * math.sqrt(n_nodes))}",
            f"{r.total_time:.2f}",
            f"{comm:.3f}",
            f"{r.merge_time:.3f}",
            f"{eff:.2%}",
        ])
        record["weak_scaling"].append({
            "nodes": n_nodes, "gpus": n_nodes * GPUS_PER_NODE,
            "n_tiles": TILES_PER_GPU * n_nodes * GPUS_PER_NODE,
            "n_seg": int(BASE_N * math.sqrt(n_nodes)),
            "total_s": r.total_time, "comm_s": comm,
            "merge_s": r.merge_time, "weak_efficiency": eff,
        })
    scaling_table = format_table(
        ["nodes", "GPUs", "tiles", "n", "total (s)", "comm (s)",
         "merge (s)", "weak eff"],
        rows,
        f"Multi-node weak scaling, FP64 (n grows as sqrt(nodes) from "
        f"{BASE_N}, d={D}, {GPUS_PER_NODE}xA100 nodes, "
        f"{TILES_PER_GPU} tiles/GPU)",
    )

    # -- 10% node storm: recovery overhead -------------------------------
    storm_cluster = ClusterSpec(
        n_nodes=STORM_NODES, gpus_per_node=GPUS_PER_NODE
    )
    clean = _run(storm_cluster, base_n=STORM_BASE_N)
    storm = _run(
        storm_cluster,
        node_faults=NodeFaultPlan(seed=5, crash_nodes=STORM_KILL),
        base_n=STORM_BASE_N,
    )
    overhead = storm.total_time / clean.total_time
    storm_rows = [
        ["fault-free", f"{clean.total_time:.2f}", "-", "-", "1.00x"],
        [
            f"kill {len(STORM_KILL)}/{STORM_NODES} nodes",
            f"{storm.total_time:.2f}",
            f"{storm.recovery_overhead:.2f}",
            storm.tiles_resharded,
            f"{overhead:.2f}x",
        ],
    ]
    storm_table = format_table(
        ["scenario", "total (s)", "recovery (s)", "re-sharded", "overhead"],
        storm_rows,
        f"10% node storm on {STORM_NODES} nodes (heartbeat detection + "
        f"re-shard to survivors)",
    )
    record["storm"] = {
        "nodes": STORM_NODES, "killed": list(STORM_KILL),
        "clean_total_s": clean.total_time,
        "storm_total_s": storm.total_time,
        "recovery_overhead_s": storm.recovery_overhead,
        "tiles_resharded": storm.tiles_resharded,
        "dropped_tiles": storm.dropped_tiles,
        "overhead_ratio": overhead,
    }

    emit("multinode_scaling", scaling_table + "\n\n" + storm_table)
    write_record(JSON_PATH, record)

    benchmark.pedantic(
        lambda: _run(ClusterSpec(n_nodes=2, gpus_per_node=GPUS_PER_NODE)),
        rounds=1, iterations=1,
    )

    # Claims.  Weak scaling reproduces the paper's shape: efficiency
    # starts at 1 and erodes monotonically (comm + merge grow with the
    # fleet) but stays high; the storm recovers every lost tile within
    # the overhead budget.
    effs = [efficiencies[n] for n in NODES]
    assert all(b <= a + 1e-9 for a, b in zip(effs, effs[1:]))
    assert efficiencies[NODES[-1]] >= MIN_WEAK_EFFICIENCY
    largest = runs[NODES[-1]]
    assert (largest.broadcast_time + largest.gather_time) < 0.1 * largest.total_time
    assert storm.dropped_tiles == 0
    assert storm.tiles_resharded > 0
    assert overhead <= MAX_STORM_OVERHEAD
