"""Cluster description: nodes, per-node GPUs, and the fabric between them.

:class:`ClusterSpec` is the single input naming the fleet a job runs on.
It validates every field by name (the layout-validation error contract:
``ValueError`` messages lead with the offending field), serialises to a
plain dict so the :class:`~repro.engine.checkpoint.RunJournal` can stash
it in its ``extra`` metadata, and knows how to build the inter-node
fabric (:meth:`ClusterSpec.topology`).

Defaults describe a Raven-like partition: 4 A100s per node on a
100 Gbit/s (12.5 GB/s effective) interconnect with 2 µs MPI latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.device import DeviceSpec, get_device
from ..gpu.topology import cluster_topology

__all__ = ["ClusterSpec", "PLACEMENTS"]

#: Sharding strategies the dispatcher understands: ``round_robin``
#: spreads consecutive tiles over the flat (node, gpu) list — the MPI
#: deployment of the paper's Pseudocode 2 assignment — while ``block``
#: gives each node one contiguous run of tiles (fewest cross-node
#: profile-column overlaps, the topology-friendly choice).
PLACEMENTS = ("round_robin", "block")


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous GPU cluster."""

    n_nodes: int
    gpus_per_node: int = 4
    device: str = "A100"
    interconnect_bandwidth: float = 12.5e9  # bytes/s per NIC
    mpi_latency: float = 2.0e-6  # seconds per message
    placement: str = "round_robin"

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.gpus_per_node < 1:
            raise ValueError("cluster needs at least one node and one GPU")
        if self.interconnect_bandwidth <= 0:
            raise ValueError(
                f"interconnect_bandwidth must be > 0 bytes/s, got "
                f"{self.interconnect_bandwidth}"
            )
        if self.mpi_latency <= 0:
            raise ValueError(
                f"mpi_latency must be > 0 seconds, got {self.mpi_latency}"
            )
        try:
            get_device(self.device)
        except Exception as exc:
            raise ValueError(
                f"device: unknown device {self.device!r} ({exc}); a "
                f"heterogeneous fleet is not supported — name one "
                f"registered DeviceSpec"
            ) from None
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, got "
                f"{self.placement!r}"
            )

    @property
    def total_gpus(self) -> int:
        return self.n_nodes * self.gpus_per_node

    @property
    def device_spec(self) -> DeviceSpec:
        return get_device(self.device)

    def topology(self):
        """The inter-node fabric (fresh copy; faults mutate it)."""
        return cluster_topology(
            self.n_nodes, self.interconnect_bandwidth, self.mpi_latency
        )

    def node_of(self, tile_id: int, n_tiles: int) -> int:
        """Home node of a tile under this spec's placement."""
        if self.placement == "round_robin":
            return (tile_id % self.total_gpus) // self.gpus_per_node
        return min(tile_id * self.n_nodes // max(n_tiles, 1), self.n_nodes - 1)

    def gpu_of(self, tile_id: int) -> int:
        """Within-node GPU of a tile (round-robin over the node's GPUs)."""
        if self.placement == "round_robin":
            return (tile_id % self.total_gpus) % self.gpus_per_node
        return tile_id % self.gpus_per_node

    def to_dict(self) -> dict:
        return {
            "n_nodes": self.n_nodes,
            "gpus_per_node": self.gpus_per_node,
            "device": self.device,
            "interconnect_bandwidth": self.interconnect_bandwidth,
            "mpi_latency": self.mpi_latency,
            "placement": self.placement,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSpec":
        return cls(**data)
