"""Simulated GPU substrate: device specs, device memory, CUDA-style streams,
kernel-launch abstractions and the calibrated roofline performance model."""

from .calibration import (
    DEVICE_EFFICIENCY_SCALE,
    DRAM_EFFICIENCY,
    L1_EFFICIENCY,
    device_scale,
    dram_efficiency,
    l1_efficiency,
)
from .device import A100, DEVICES, SKYLAKE16, V100, DeviceSpec, get_device
from .kernel import Kernel, KernelCost, LaunchConfig, grid_stride_chunks
from .memory import DeviceAllocation, DeviceMemory, DeviceOutOfMemoryError
from .perfmodel import (
    KernelTiming,
    TileTiming,
    cpu_baseline_time,
    kernel_time,
    single_tile_costs,
    single_tile_timing,
    sort_stage_count,
    transfer_time,
)
from .simulator import GPUSimulator, SimulatedGPU
from .stream import DeviceQueues, Stream, StreamOp, Timeline

__all__ = [
    "A100",
    "V100",
    "SKYLAKE16",
    "DEVICES",
    "DeviceSpec",
    "get_device",
    "Kernel",
    "KernelCost",
    "LaunchConfig",
    "grid_stride_chunks",
    "DeviceAllocation",
    "DeviceMemory",
    "DeviceOutOfMemoryError",
    "KernelTiming",
    "TileTiming",
    "cpu_baseline_time",
    "kernel_time",
    "single_tile_costs",
    "single_tile_timing",
    "sort_stage_count",
    "transfer_time",
    "GPUSimulator",
    "SimulatedGPU",
    "DeviceQueues",
    "Stream",
    "StreamOp",
    "Timeline",
    "DEVICE_EFFICIENCY_SCALE",
    "DRAM_EFFICIENCY",
    "L1_EFFICIENCY",
    "device_scale",
    "dram_efficiency",
    "l1_efficiency",
]
