"""The four GPU kernels of Pseudocode 1, executing real numpy arithmetic in
the requested precision (their hardware costs are charged through
``repro.gpu.perfmodel``)."""

from .dist_calc import DistCalcKernel
from .layout import to_device_layout, to_host_layout, validate_series
from .precalc import PrecalcResult
from .sort_scan import SortScanKernel, fanin_inclusive_scan
from .update import INDEX_DTYPE, UpdateKernel

__all__ = [
    "DistCalcKernel",
    "PrecalcResult",
    "SortScanKernel",
    "fanin_inclusive_scan",
    "UpdateKernel",
    "INDEX_DTYPE",
    "to_device_layout",
    "to_host_layout",
    "validate_series",
]
