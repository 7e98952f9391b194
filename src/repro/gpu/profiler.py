"""Nsight-Compute-style profiling reports for simulated runs.

The paper profiles its kernels with NVIDIA Nsight Compute (Section V-A)
and reports throughput utilisations per kernel (Section V-C).  This
module renders the equivalent report from a
:class:`~repro.core.result.MatrixProfileResult`: per-kernel modelled
time, share of the run, traffic, achieved bandwidth, arithmetic
intensity and the binding resource — everything needed to reason about
where a configuration's time goes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.result import MatrixProfileResult
from ..precision.modes import policy_for
from ..reporting import format_seconds, format_table
from .device import DeviceSpec, get_device
from .perfmodel import roofline_terms

__all__ = ["KernelProfile", "binding", "profile_result", "render_report"]


@dataclass(frozen=True)
class KernelProfile:
    """One kernel's aggregate profile over a run."""

    name: str
    time: float
    share: float  # fraction of total kernel time
    bytes_dram: float
    bytes_l1: float
    flops: float
    achieved_dram_bw: float  # bytes/s actually sustained (modelled)
    arithmetic_intensity: float  # flops per DRAM byte
    bound_by: str
    launches: int
    syncs: int


def binding(cost, device: DeviceSpec, itemsize: int) -> str:
    """The resource binding ``cost`` on ``device``: the largest of its
    DRAM, L2, L1/TEX and SM roofline terms
    (:func:`~repro.gpu.perfmodel.roofline_terms`).

    No working set is passed, so this names the *paper-scale* resource:
    the one binding when the tile's planes do not fit in L2.  The
    modelled clock prices executed tiles with their working set, whose
    L2-residency bonus lowers the DRAM term, so at executed scale the
    term that set a kernel's time can differ — a 1024 x 8, m = 32 FP64
    run reports DRAM for dist_calc while its L2 term is the largest."""
    terms = roofline_terms(cost, device, itemsize)
    return max(terms, key=terms.get)


def profile_result(
    result: MatrixProfileResult, device: "DeviceSpec | str" = "A100"
) -> list[KernelProfile]:
    """Build per-kernel profiles from a result's costs and timeline."""
    if not result.costs:
        raise ValueError(
            "result carries no kernel costs (modelled-only runs have no "
            "recorded execution to profile)"
        )
    device = get_device(device)
    policy = policy_for(result.mode)
    breakdown = result.kernel_breakdown()
    total = sum(breakdown.values()) or 1.0
    profiles = []
    for name, cost in result.costs.items():
        time = breakdown.get(name, 0.0)
        itemsize = (
            policy.precalc.itemsize if name == "precalculation" else policy.itemsize
        )
        profiles.append(
            KernelProfile(
                name=name,
                time=time,
                share=time / total,
                bytes_dram=cost.bytes_dram,
                bytes_l1=cost.bytes_l1,
                flops=cost.flops,
                achieved_dram_bw=cost.bytes_dram / time if time > 0 else 0.0,
                arithmetic_intensity=(
                    cost.flops / cost.bytes_dram if cost.bytes_dram else 0.0
                ),
                bound_by=binding(cost, device, itemsize),
                launches=cost.launches,
                syncs=cost.syncs,
            )
        )
    profiles.sort(key=lambda p: p.time, reverse=True)
    return profiles


def render_report(
    result: MatrixProfileResult, device: "DeviceSpec | str" = "A100"
) -> str:
    """Human-readable profiling report (the `ncu`-summary equivalent)."""
    device = get_device(device)
    profiles = profile_result(result, device)
    rows = [
        [
            p.name,
            format_seconds(p.time),
            f"{p.share:.1%}",
            f"{p.bytes_dram / 1e6:.1f} MB",
            f"{p.achieved_dram_bw / 1e9:.0f} GB/s",
            f"{p.arithmetic_intensity:.2f}",
            p.bound_by,
            p.launches,
            p.syncs,
        ]
        for p in profiles
    ]
    header = (
        f"Profile: {result.mode} on {device.name}, {result.n_tiles} tile(s), "
        f"{result.n_gpus} GPU(s) — modelled total "
        f"{format_seconds(result.modeled_time)}"
    )
    table = format_table(
        ["kernel", "time", "share", "DRAM traffic", "achieved BW",
         "flops/byte", "bound by", "launches", "syncs"],
        rows,
        header,
    )
    peak = device.mem_bandwidth / 1e9
    return f"{table}\n(device peak DRAM bandwidth: {peak:.0f} GB/s)"
