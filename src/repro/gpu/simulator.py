"""The simulated multi-GPU node: devices, memories, stream pools, timeline.

`GPUSimulator` is the execution context the core algorithms run against.
It owns one :class:`DeviceQueues`/:class:`DeviceMemory` pair per simulated
GPU plus a pool of up to ``max_streams`` streams per device (the paper uses
at most 16 non-blocking streams, Section IV), and accumulates the global
:class:`Timeline` from which all performance figures are derived.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import DeviceSpec, get_device
from .memory import DeviceMemory
from .perfmodel import TileTiming, transfer_time
from .stream import DeviceQueues, Stream, Timeline, flush_streams

__all__ = ["SimulatedGPU", "GPUSimulator", "schedule_tile_timing"]


def schedule_tile_timing(
    gpu: "SimulatedGPU",
    stream: Stream,
    timeline: Timeline,
    timing: TileTiming,
    label: str,
) -> None:
    """Enqueue one tile's modelled operations on a stream (Pseudocode 1
    order: H2D copy, the four kernels, D2H copy of P and I).

    Ops are *enqueued*, not placed: callers run ``GPUSimulator.flush()``
    once every tile is submitted, so the event-driven scheduler can
    interleave streams the way the hardware does.
    """
    stream.enqueue("h2d", f"h2d:{label}", transfer_time(timing.h2d_bytes, gpu.spec))
    for name, kt in timing.kernels.items():
        stream.enqueue("compute", f"{name}:{label}", kt.busy, kt.overhead)
    stream.enqueue("d2h", f"d2h:{label}", transfer_time(timing.d2h_bytes, gpu.spec))


@dataclass
class SimulatedGPU:
    """One simulated GPU: spec + queues + memory + its stream pool."""

    spec: DeviceSpec
    queues: DeviceQueues
    memory: DeviceMemory
    streams: list[Stream]
    _next_stream: int = 0

    def next_stream(self) -> Stream:
        """Round-robin stream selection (tiles cycle through the pool)."""
        stream = self.streams[self._next_stream % len(self.streams)]
        self._next_stream += 1
        return stream


class GPUSimulator:
    """A node with ``n_gpus`` identical simulated GPUs.

    Parameters
    ----------
    device:
        Device spec or name (``"V100"``, ``"A100"``).
    n_gpus:
        Number of GPUs in the node (DGX-1 has 8 V100s; Raven nodes 4 A100s).
    n_streams:
        Streams per GPU, capped at the device's ``max_streams`` (16).
    """

    def __init__(
        self,
        device: "DeviceSpec | str" = "A100",
        n_gpus: int = 1,
        n_streams: int | None = None,
    ):
        spec = get_device(device)
        if n_gpus < 1:
            raise ValueError(f"n_gpus must be >= 1, got {n_gpus}")
        n_streams = n_streams if n_streams is not None else spec.max_streams
        if not 1 <= n_streams <= spec.max_streams:
            raise ValueError(
                f"n_streams must be in [1, {spec.max_streams}], got {n_streams}"
            )
        self.spec = spec
        self.n_streams = n_streams
        self.timeline = Timeline()
        self.gpus: list[SimulatedGPU] = []
        for index in range(n_gpus):
            queues = DeviceQueues(name=spec.name, index=index)
            self.gpus.append(
                SimulatedGPU(
                    spec=spec,
                    queues=queues,
                    memory=DeviceMemory(spec),
                    streams=[
                        Stream(device=queues, stream_id=s) for s in range(n_streams)
                    ],
                )
            )

    @property
    def n_gpus(self) -> int:
        return len(self.gpus)

    def flush(self) -> None:
        """Run the event-driven scheduler for all pending ops on all GPUs."""
        for gpu in self.gpus:
            flush_streams(gpu.streams, self.timeline)

    def reset_timeline(self) -> None:
        """Clear the timeline, all engine/stream clocks and every queued
        op (new experiment): an op enqueued before the reset would
        otherwise be placed into the next experiment's timeline."""
        self.timeline = Timeline()
        for gpu in self.gpus:
            gpu.queues.engine_ready = {k: 0.0 for k in gpu.queues.engine_ready}
            for stream in gpu.streams:
                stream.ready = 0.0
                stream.pending.clear()
            gpu._next_stream = 0
            gpu.memory.free_all()

    def memory_report(self) -> list[dict[str, int]]:
        return [gpu.memory.report() for gpu in self.gpus]
