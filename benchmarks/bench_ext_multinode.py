"""Extension bench — multi-node (MPI-style) deployment (Section VII).

Strong scaling of the tiled algorithm across simulated 4xA100 nodes, per
precision mode, including the communication phases an MPI deployment
adds.  The paper's expectation: the workload is not communication-bound,
so throughput keeps scaling while the problem is large enough.
"""

import pytest

from repro.cluster import ClusterDispatcher, ClusterSpec
from repro.core.config import RunConfig
from repro.engine.plan import JobSpec
from repro.reporting import format_table

from _harness import emit

N, D, M = 2**17, 2**6, 2**6
NODES = (1, 2, 4, 8, 16)


def _model(n_nodes, mode="FP64"):
    """One fault-free modelled cluster run (4 tiles per GPU by default)."""
    cluster = ClusterSpec(n_nodes)
    config = RunConfig(mode=mode, device=cluster.device_spec)
    return ClusterDispatcher(cluster).run(JobSpec.modeled(N, N, D, M, config))


@pytest.mark.benchmark(group="extensions")
def test_ext_multinode_scaling(benchmark):
    blocks = []
    effs = {}
    for mode in ("FP64", "FP16"):
        base = _model(1, mode)
        rows = []
        for n_nodes in NODES:
            r = _model(n_nodes, mode)
            eff = r.efficiency_vs(base)
            effs[(mode, n_nodes)] = eff
            rows.append(
                [
                    n_nodes,
                    n_nodes * 4,
                    f"{r.total_time:.2f}",
                    f"{r.broadcast_time + r.gather_time:.3f}",
                    f"{r.merge_time:.3f}",
                    f"{eff:.2%}",
                ]
            )
        blocks.append(
            format_table(
                ["nodes", "GPUs", "total (s)", "comm (s)", "merge (s)", "efficiency"],
                rows,
                f"Extension: multi-node strong scaling, {mode} "
                f"(n=2^17, d=2^6, 4xA100 nodes)",
            )
        )
    emit("ext_multinode", "\n\n".join(blocks))

    benchmark.pedantic(lambda: _model(4), rounds=1, iterations=1)

    # Claims: >=2 nodes keep speeding things up through 8 nodes; FP64
    # efficiency at 4 nodes stays above 75%; communication is a small
    # fraction of the total at this problem size.
    assert effs[("FP64", 4)] > 0.75
    r8 = _model(8)
    r4 = _model(4)
    assert r8.total_time < r4.total_time
    assert (r8.broadcast_time + r8.gather_time) < 0.2 * r8.total_time
