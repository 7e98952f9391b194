"""Unit tests for the NVLink topology models and the inter-node fabric."""

import pytest

from repro.cluster.spec import ClusterSpec
from repro.gpu.topology import (
    best_broadcast_time,
    cluster_broadcast_time,
    cluster_reduce_time,
    cluster_topology,
    degrade_link,
    dgx1_topology,
    nvlink_broadcast_time,
    nvswitch_topology,
    pcie_broadcast_time,
)


def _edges(g):
    return [(u, v) for u in g.adj for v in g.adj[u] if u < v]


def _connected(g):
    """Whether every node of ``g`` is reachable from its first node."""
    seen, todo = set(), [next(iter(g.adj))]
    while todo:
        u = todo.pop()
        if u not in seen:
            seen.add(u)
            todo.extend(g.adj[u])
    return len(seen) == len(g.adj)


class TestDGX1Graph:
    def test_eight_gpus(self):
        g = dgx1_topology()
        assert len(g.adj) == 8

    def test_six_nvlink_ports_per_gpu(self):
        # Each V100 has 6 NVLink bricks: the sum of `links` on its edges.
        g = dgx1_topology()
        for node in g.adj:
            ports = sum(link["links"] for link in g.adj[node].values())
            assert ports == 6, f"GPU {node} has {ports} bricks"

    def test_connected_and_not_complete(self):
        g = dgx1_topology()
        assert _connected(g)
        assert len(_edges(g)) < 28  # not a full crossbar

    def test_quad_edges_doubled(self):
        g = dgx1_topology()
        assert g.adj[0][1]["links"] == 2
        assert g.adj[0][3]["links"] == 1

    def test_cross_quad_links(self):
        g = dgx1_topology()
        for u in range(4):
            assert any(v >= 4 for v in g.adj[u])


class TestNVSwitch:
    def test_all_to_all(self):
        g = nvswitch_topology(4)
        assert len(_edges(g)) == 6
        assert _connected(g)

    def test_uniform_bandwidth(self):
        g = nvswitch_topology(4)
        bws = {g.adj[u][v]["bandwidth"] for u, v in _edges(g)}
        assert len(bws) == 1


class TestBroadcastTimes:
    NBYTES = 1 << 30  # 1 GiB payload

    def test_pcie_scales_with_gpus(self):
        t4 = pcie_broadcast_time(self.NBYTES, 4, "V100")
        t8 = pcie_broadcast_time(self.NBYTES, 8, "V100")
        assert t8 == pytest.approx(2 * t4)

    def test_nvlink_beats_pcie_for_large_payload_on_8_gpus(self):
        t_nv = nvlink_broadcast_time(self.NBYTES, dgx1_topology(), "V100")
        t_pcie = pcie_broadcast_time(self.NBYTES, 8, "V100")
        assert t_nv < t_pcie

    def test_invalid_root(self):
        with pytest.raises(ValueError):
            nvlink_broadcast_time(1.0, dgx1_topology(), "V100", root=99)

    def test_best_strategy_switches(self):
        big, strat_big = best_broadcast_time(self.NBYTES, 8, "V100")
        assert strat_big == "nvlink"
        tiny, strat_tiny = best_broadcast_time(4096, 2, "V100")
        assert strat_tiny in ("pcie", "nvlink")
        assert tiny < big

    def test_cpu_device_free_transfers(self):
        assert pcie_broadcast_time(self.NBYTES, 4, "Skylake16") == 0.0

    def test_broadcast_monotone_in_payload(self):
        g = dgx1_topology()
        t1 = nvlink_broadcast_time(1e6, g, "V100")
        t2 = nvlink_broadcast_time(1e9, g, "V100")
        assert t2 > t1

    def test_single_gpu_subgraph(self):
        t, strategy = best_broadcast_time(self.NBYTES, 1, "V100")
        assert t > 0

    @pytest.mark.parametrize("n_gpus", [0, -1, 9, 12])
    def test_gpu_count_outside_topology_rejected(self, n_gpus):
        # The 8-GPU DGX-1 cannot broadcast to 12 GPUs (or to none).
        with pytest.raises(ValueError, match="n_gpus"):
            best_broadcast_time(self.NBYTES, n_gpus, "V100")

    @pytest.mark.parametrize("n_gpus", [0, -3])
    def test_empty_nvswitch_rejected(self, n_gpus):
        with pytest.raises(ValueError, match="n_gpus"):
            best_broadcast_time(self.NBYTES, n_gpus, "A100")

    def test_disconnected_subset_falls_back_to_pcie(self):
        # GPU 6 has no NVLink to GPU 0 or GPU 1.
        g = dgx1_topology().subgraph([0, 1, 6])
        t, strategy = best_broadcast_time(self.NBYTES, 3, "V100", g)
        assert strategy == "pcie"
        assert t == pcie_broadcast_time(self.NBYTES, 3, "V100")


class TestParityPins:
    """Exact modelled times captured from the graph-library model that
    the adjacency dicts replaced: the broadcast tree, its per-level
    slowest link and the float summation order must all survive."""

    GIB = 1 << 30

    @pytest.mark.parametrize(
        "nbytes, expected",
        [(GIB, 0.1753778312533333), (4096, 6.690133333333332e-07)],
    )
    @pytest.mark.parametrize("root", range(8))
    def test_nvlink_every_dgx1_root(self, root, nbytes, expected):
        assert nvlink_broadcast_time(nbytes, dgx1_topology(), "V100", root) == expected

    @pytest.mark.parametrize(
        "device, nbytes, expected",
        [
            ("V100", GIB, [
                (0.08947848533333333, "pcie"),
                (0.11095332181333332, "nvlink"),
                (0.11095332181333332, "nvlink"),
                (0.13242815829333332, "nvlink"),
                (0.13242815829333332, "nvlink"),
                (0.1753778312533333, "nvlink"),
                (0.1753778312533333, "nvlink"),
                (0.1753778312533333, "nvlink"),
            ]),
            ("V100", 4096, [
                (3.413333333333333e-07, "pcie"),
                (4.232533333333333e-07, "nvlink"),
                (4.232533333333333e-07, "nvlink"),
                (5.051733333333333e-07, "nvlink"),
                (5.051733333333333e-07, "nvlink"),
                (6.690133333333332e-07, "nvlink"),
                (6.690133333333332e-07, "nvlink"),
                (6.690133333333332e-07, "nvlink"),
            ]),
            ("A100", GIB, [(0.044739242666666665, "pcie")]
             + [(0.04831838208, "nvlink")] * 7),
            ("A100", 4096, [(1.7066666666666666e-07, "pcie")]
             + [(1.8432e-07, "nvlink")] * 7),
        ],
    )
    def test_best_broadcast_one_to_eight_gpus(self, device, nbytes, expected):
        got = [best_broadcast_time(nbytes, n, device) for n in range(1, 9)]
        assert got == expected

    def test_cluster_collectives(self):
        fabric = cluster_topology(6, 12.5e9, 2e-6)
        assert cluster_broadcast_time(1e8, fabric) == 0.024006
        assert cluster_reduce_time(1e8, fabric) == 0.024006

    def test_cluster_collectives_degraded_nic(self):
        fabric = degrade_link(cluster_topology(6, 12.5e9, 2e-6), 2, 0.25)
        assert cluster_broadcast_time(1e8, fabric) == 0.09600600000000001
        assert cluster_reduce_time(1e8, fabric) == 0.09600600000000001

    def test_cluster_collectives_survivor_subsets(self):
        fabric = degrade_link(cluster_topology(6, 12.5e9, 2e-6), 2, 0.25)
        survivors = [0, 1, 3, 4]  # the degraded node is gone
        assert cluster_broadcast_time(1e8, fabric, survivors) == 0.016004
        assert cluster_reduce_time(1e8, fabric, survivors) == 0.016004
        assert cluster_reduce_time(1e8, fabric, [0, 2]) == 0.032002
        assert cluster_reduce_time(1e8, fabric, [5]) == 0.0


class TestClusterFabric:
    def test_degrade_link_is_in_place(self):
        fabric = cluster_topology(3, 10e9)
        assert degrade_link(fabric, 1, 0.5) is fabric
        assert fabric.nic_bandwidth == {0: 10e9, 1: 5e9, 2: 10e9}

    def test_spec_topology_is_a_fresh_copy(self):
        spec = ClusterSpec(n_nodes=4)
        degrade_link(spec.topology(), 0, 0.1)
        fabric = spec.topology()
        assert set(fabric.nic_bandwidth.values()) == {spec.interconnect_bandwidth}
        assert fabric.latency == spec.mpi_latency

    def test_degrade_link_rejects_unknown_node_and_bad_factor(self):
        fabric = cluster_topology(2)
        with pytest.raises(ValueError, match="node 7"):
            degrade_link(fabric, 7, 0.5)
        for factor in (0.0, 1.5):
            with pytest.raises(ValueError, match="factor"):
                degrade_link(fabric, 0, factor)

    def test_no_nodes_rejected(self):
        with pytest.raises(ValueError, match="n_nodes"):
            cluster_topology(0)
