"""Multi-GPU interconnect topology (DGX-1 NVLink hybrid cube mesh).

The DGX-1 used in the paper's scaling study wires its 8 V100s in the
NVLink *hybrid cube-mesh*: each GPU has 6 NVLink2 ports; GPUs 0-3 and 4-7
form two quads with doubled links on some edges, plus cross connections —
not a full crossbar, so data placement matters.  The Raven A100 nodes use
NVSwitch, an effective all-to-all.

While the tiled matrix profile needs no GPU-to-GPU traffic during compute
(tiles are independent), the *input distribution* does: the host can feed
every GPU over PCIe, or feed one GPU and let NVLink broadcast.  This
module models both strategies over the real link graphs — plain
adjacency dicts (:class:`LinkGraph`) walked by one breadth-first search —
and, one tier up, the inter-node fabric as per-node NIC bandwidths plus
a message latency (:class:`ClusterFabric`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .device import DeviceSpec, get_device

__all__ = [
    "NVLINK2_BW",
    "NVLINK3_BW",
    "LinkGraph",
    "ClusterFabric",
    "dgx1_topology",
    "nvswitch_topology",
    "pcie_broadcast_time",
    "nvlink_broadcast_time",
    "best_broadcast_time",
    "cluster_topology",
    "degrade_link",
    "cluster_broadcast_time",
    "cluster_reduce_time",
]

#: Per-link NVLink bandwidth (one direction), bytes/s.
NVLINK2_BW = 25e9  # V100 generation
NVLINK3_BW = 50e9  # A100 generation


@dataclass
class LinkGraph:
    """An undirected GPU link graph as adjacency dicts.

    ``adj[u][v]`` is the link record ``{"links": bricks, "bandwidth":
    bytes/s}``, one dict shared by both directions.  Nodes and each
    node's neighbours keep insertion order, which fixes the parents the
    breadth-first broadcast tree picks.
    """

    name: str
    adj: dict[int, dict[int, dict]] = field(default_factory=dict)

    def add_edge(self, u: int, v: int, **link) -> None:
        """Connect ``u`` and ``v`` (re-adding an edge replaces its
        record and keeps its place in both neighbour orders)."""
        self.adj.setdefault(u, {})[v] = link
        self.adj.setdefault(v, {})[u] = link

    def subgraph(self, nodes) -> "LinkGraph":
        """The induced subgraph on ``nodes``, kept in this graph's node
        order, each node's neighbours ordered by a node-major walk of
        this graph's edges."""
        keep = set(nodes)
        sub = LinkGraph(self.name, {u: {} for u in self.adj if u in keep})
        for u in sub.adj:
            for v, link in self.adj[u].items():
                if v in keep:
                    sub.add_edge(u, v, **link)
        return sub

    def bfs_levels(self, root: int) -> list[list[tuple[int, int]]]:
        """The breadth-first tree from ``root`` as its edge lists, one
        per depth level ``1, 2, ...``: each newly reached node hangs off
        the first frontier node, in frontier order, that links to it."""
        seen = {root}
        frontier = [root]
        levels = []
        while frontier:
            level = []
            for u in frontier:
                for v in self.adj[u]:
                    if v not in seen:
                        seen.add(v)
                        level.append((u, v))
            if level:
                levels.append(level)
            frontier = [v for _, v in level]
        return levels


def dgx1_topology() -> LinkGraph:
    """The DGX-1 hybrid cube-mesh of 8 V100s.

    Edges carry a ``links`` attribute (1 or 2 NVLink bricks) and
    ``bandwidth`` in bytes/s.  Reference: NVIDIA DGX-1 system architecture
    whitepaper; intra-quad neighbours get doubled links on the ring edges.
    """
    graph = LinkGraph("DGX-1", {n: {} for n in range(8)})
    double = [(0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 3), (4, 6), (5, 7)]
    single = [
        (0, 3),
        (1, 2),
        (4, 7),
        (5, 6),
        (0, 4),
        (1, 5),
        (2, 6),
        (3, 7),
    ]
    for u, v in double:
        graph.add_edge(u, v, links=2, bandwidth=2 * NVLINK2_BW)
    for u, v in single:
        graph.add_edge(u, v, links=1, bandwidth=NVLINK2_BW)
    return graph


def nvswitch_topology(n_gpus: int = 4, link_bw: float = NVLINK3_BW * 12 / 2) -> LinkGraph:
    """An NVSwitch all-to-all (Raven A100 nodes): every pair connected at
    the full per-GPU NVLink aggregate."""
    graph = LinkGraph("NVSwitch", {n: {} for n in range(n_gpus)})
    for u in range(n_gpus):
        for v in range(u + 1, n_gpus):
            graph.add_edge(u, v, links=12, bandwidth=link_bw)
    return graph


def pcie_broadcast_time(
    nbytes: float, n_gpus: int, device: "DeviceSpec | str"
) -> float:
    """Host feeds every GPU over the shared PCIe complex (serialised)."""
    device = get_device(device)
    if device.pcie_bandwidth <= 0:
        return 0.0
    return n_gpus * nbytes / device.pcie_bandwidth


def nvlink_broadcast_time(
    nbytes: float,
    topology: LinkGraph,
    device: "DeviceSpec | str",
    root: int = 0,
) -> float:
    """Host feeds GPU ``root`` once over PCIe, then the payload propagates
    over NVLink along a breadth-first broadcast tree; each tree depth level
    is one store-and-forward round at the slowest participating link."""
    device = get_device(device)
    if root not in topology.adj:
        raise ValueError(f"root {root} not in topology {topology.name!r}")
    total = (
        nbytes / device.pcie_bandwidth if device.pcie_bandwidth > 0 else 0.0
    )
    for level in topology.bfs_levels(root):
        slowest = min(topology.adj[u][v]["bandwidth"] for u, v in level)
        total += nbytes / slowest
    return total


def best_broadcast_time(
    nbytes: float,
    n_gpus: int,
    device: "DeviceSpec | str" = "V100",
    topology: LinkGraph | None = None,
) -> tuple[float, str]:
    """The better of PCIe fan-out and NVLink tree broadcast.

    Returns ``(seconds, strategy)``.  Large payloads favour NVLink (per
    level the links are 2-4x PCIe); tiny payloads favour direct PCIe
    (fewer store-and-forward rounds).  ``n_gpus`` must lie in 1..the
    topology's GPU count: the first ``n_gpus`` GPUs take part.
    """
    device = get_device(device)
    if topology is None:
        topology = (
            dgx1_topology() if device.name == "V100" else nvswitch_topology(n_gpus)
        )
    nodes = list(topology.adj)
    if not 1 <= n_gpus <= len(nodes):
        raise ValueError(
            f"n_gpus must be in 1..{len(nodes)} for topology "
            f"{topology.name!r}, got {n_gpus}"
        )
    sub = topology.subgraph(nodes[:n_gpus])
    candidates = {"pcie": pcie_broadcast_time(nbytes, n_gpus, device)}
    reached = sum(len(level) for level in sub.bfs_levels(nodes[0]))
    if reached == n_gpus - 1:  # the NVLink subgraph is connected
        candidates["nvlink"] = nvlink_broadcast_time(nbytes, sub, device)
    strategy = min(candidates, key=candidates.get)
    return candidates[strategy], strategy


# ----------------------------------------------------------------------
# Inter-node fabric (the cluster tier above the intra-node NVLink graphs)


@dataclass
class ClusterFabric:
    """The inter-node fabric: each node's ingress NIC bandwidth
    (``nic_bandwidth[node]``, bytes/s) and the per-message ``latency``
    (seconds)."""

    nic_bandwidth: dict[int, float]
    latency: float


def cluster_topology(
    n_nodes: int,
    bandwidth: float = 12.5e9,
    latency: float = 2.0e-6,
) -> ClusterFabric:
    """The inter-node fabric of ``n_nodes`` nodes.

    A full-bisection fat tree (the Raven interconnect) is all-to-all at
    the NIC rate, so what bounds a collective is each *node's* ingress
    link — modelled as a per-node NIC bandwidth (bytes/s) plus a
    fabric-wide latency (seconds per message).  Degraded-link faults
    scale one node's NIC down via :func:`degrade_link`.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    return ClusterFabric(dict.fromkeys(range(n_nodes), bandwidth), latency)


def degrade_link(graph: ClusterFabric, node: int, factor: float) -> ClusterFabric:
    """Scale ``node``'s NIC bandwidth by ``factor`` (in place).

    ``factor`` must lie in (0, 1]: a dead link is a node *crash*, a
    different fault kind — the failure detector, not the cost model,
    owns that transition.
    """
    if node not in graph.nic_bandwidth:
        raise ValueError(f"node {node} not in the cluster fabric")
    if not 0.0 < factor <= 1.0:
        raise ValueError(f"factor must be in (0, 1], got {factor}")
    graph.nic_bandwidth[node] *= factor
    return graph


def _collective_round_time(
    nbytes: float, graph: ClusterFabric, nodes
) -> tuple[int, float]:
    """(rounds, seconds-per-round) of a binomial tree over ``nodes``."""
    live = list(graph.nic_bandwidth) if nodes is None else list(nodes)
    if not live:
        return 0, 0.0
    rounds = max(len(live) - 1, 0).bit_length()
    slowest = min(graph.nic_bandwidth[n] for n in live)
    return rounds, nbytes / slowest + graph.latency


def cluster_broadcast_time(
    nbytes: float, graph: ClusterFabric, nodes=None
) -> float:
    """Binomial-tree broadcast of ``nbytes`` to every node in ``nodes``
    (default: all): ceil(log2 N) store-and-forward rounds, each paced by
    the slowest participating NIC plus the fabric latency."""
    rounds, per_round = _collective_round_time(nbytes, graph, nodes)
    return rounds * per_round


def cluster_reduce_time(nbytes: float, graph: ClusterFabric, nodes=None) -> float:
    """MPI_Reduce-style gather of per-node partials to the root — the
    same binomial-tree shape as the broadcast (each round halves the
    number of live senders)."""
    rounds, per_round = _collective_round_time(nbytes, graph, nodes)
    return rounds * per_round
