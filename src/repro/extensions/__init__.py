"""Extensions implementing the paper's future-work directions (Section VII):
TF32/BFLOAT16 transprecision modes and mSTAMP motif-subspace recovery.
Multi-node deployment lives in its own tier, :mod:`repro.cluster`."""

from .subspace import (
    MotifSubspace,
    motif_with_subspace,
    recover_subspace,
    segment_distances,
)
from .transprecision import (
    BF16,
    SOFT_FORMATS,
    SOFT_FP16,
    TF32,
    SoftFormat,
    round_to_format,
    transprecision_itemsize,
    transprecision_matrix_profile,
)

__all__ = [
    "MotifSubspace",
    "motif_with_subspace",
    "recover_subspace",
    "segment_distances",
    "SoftFormat",
    "BF16",
    "TF32",
    "SOFT_FP16",
    "SOFT_FORMATS",
    "round_to_format",
    "transprecision_itemsize",
    "transprecision_matrix_profile",
]
