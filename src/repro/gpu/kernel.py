"""Kernel abstractions: launch configuration, grid-stride loops, cost counters.

Every GPU kernel in this reproduction is a subclass of :class:`Kernel` that
performs the *real* numerical work with vectorised numpy in the requested
precision.  A :class:`KernelCost` describes the memory traffic, arithmetic
and synchronisation a kernel would incur on hardware; the charge formulas
live in the roofline performance model (``perfmodel.py``), and the tile
primitive charges the shape of the computation it actually performed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator


from .device import DeviceSpec

__all__ = ["LaunchConfig", "KernelCost", "Kernel", "grid_stride_chunks"]


@dataclass(frozen=True)
class LaunchConfig:
    """Kernel launch configuration ``<<<grid, block>>>``.

    The paper tunes these to saturate the device: grid=64 with block=2560
    on V100 and block=3456 on A100, so that grid*block equals the hardware
    thread capacity (Section IV).
    """

    grid: int
    block: int

    def __post_init__(self) -> None:
        if self.grid <= 0 or self.block <= 0:
            raise ValueError(f"grid and block must be positive, got {self}")

    @property
    def total_threads(self) -> int:
        return self.grid * self.block

    @classmethod
    def tuned_for(cls, device: DeviceSpec) -> "LaunchConfig":
        """The paper's tuned configuration: 64 blocks filling every warp slot."""
        grid = 64
        block = max(device.max_threads // grid, 1)
        return cls(grid=grid, block=block)

    def occupancy(self, device: DeviceSpec) -> float:
        """Fraction of hardware thread slots this launch occupies (<=1)."""
        return min(1.0, self.total_threads / device.max_threads)


def grid_stride_chunks(n_items: int, config: LaunchConfig) -> Iterator[slice]:
    """Iterate a flat index space the way a grid-stride loop walks it.

    A grid-stride loop assigns thread ``t`` the items ``t, t+T, t+2T, ...``
    with ``T = grid*block`` total threads; one *round* of the loop touches a
    contiguous span of ``T`` items (which is what makes the accesses
    coalesced).  Vectorised numpy already processes whole spans at once, so
    for simulation purposes each chunk is one loop round; kernels use the
    chunk count to account for loop-iteration overheads.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be non-negative, got {n_items}")
    step = config.total_threads
    for start in range(0, n_items, step):
        yield slice(start, min(start + step, n_items))


@dataclass
class KernelCost:
    """Hardware-cost footprint of one kernel invocation.

    Fields match what NVIDIA Nsight Compute reports and what the paper's
    resource-utilisation discussion references (Section V-C): DRAM traffic,
    L2/L1 traffic, arithmetic, and coarse-grained synchronisation count.
    """

    name: str
    bytes_dram: float = 0.0
    bytes_l2: float = 0.0
    bytes_l1: float = 0.0
    flops: float = 0.0
    syncs: int = 0
    launches: int = 1
    loop_rounds: int = 0
    #: Whether ``flops`` execute on the tensor-core (MMA) unit rather
    #: than the vector pipes — priced against ``peak_flops_tc``.
    tensor_core: bool = False

    def __add__(self, other: "KernelCost") -> "KernelCost":
        if self.name != other.name:
            raise ValueError(f"cannot merge costs of {self.name!r} and {other.name!r}")
        return KernelCost(
            name=self.name,
            bytes_dram=self.bytes_dram + other.bytes_dram,
            bytes_l2=self.bytes_l2 + other.bytes_l2,
            bytes_l1=self.bytes_l1 + other.bytes_l1,
            flops=self.flops + other.flops,
            syncs=self.syncs + other.syncs,
            launches=self.launches + other.launches,
            loop_rounds=self.loop_rounds + other.loop_rounds,
            tensor_core=self.tensor_core or other.tensor_core,
        )

    def scaled(self, factor: float) -> "KernelCost":
        """Cost of ``factor`` repetitions of this invocation."""
        return KernelCost(
            name=self.name,
            bytes_dram=self.bytes_dram * factor,
            bytes_l2=self.bytes_l2 * factor,
            bytes_l1=self.bytes_l1 * factor,
            flops=self.flops * factor,
            syncs=int(round(self.syncs * factor)),
            launches=int(round(self.launches * factor)),
            loop_rounds=int(round(self.loop_rounds * factor)),
            tensor_core=self.tensor_core,
        )


@dataclass
class Kernel:
    """Base class for the four GPU kernels.

    Subclasses implement ``run(...)`` returning their numerical outputs;
    the per-row methods record their hardware cost in ``self.cost`` (the
    main-loop methods are pure numerics: ``run_tile`` charges the tile).
    ``config`` is the launch configuration used for the grid-stride
    loops.
    """

    config: LaunchConfig
    cost: KernelCost = field(init=False)

    def __post_init__(self) -> None:
        self.cost = KernelCost(name=type(self).__name__, launches=0)

    def _charge(self, cost: KernelCost) -> None:
        """Add ``cost``'s counts to :attr:`cost` (the per-row methods
        charge one row each through ``repro.gpu.perfmodel``)."""
        self.cost = self.cost + replace(cost, name=self.cost.name)
