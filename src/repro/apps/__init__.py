"""Applications built on the matrix profile: NN classification (HPC-ODA
case study), motif/discord mining, and MPdist, snippets, chains, regime
segmentation, consensus motifs and annotation vectors.  Live streams are
served by :mod:`repro.streams`."""

from .annotation import (
    apply_annotation,
    corrected_profile,
    flat_region_annotation,
    interval_annotation,
)
from .chains import (
    LeftRightProfile,
    anchored_chain,
    left_right_profile,
    unanchored_chain,
)
from .consensus import ConsensusMotif, consensus_motif, distance_profile
from .mpdist import mpdist, mpdist_profile
from .snippets import Snippet, find_snippets
from .classifier import (
    ClassificationOutcome,
    classify_hpcoda,
    nn_classify,
    smooth_predictions,
)
from .motif import Motif, top_discords, top_motifs
from .segmentation import (
    RegimeSegmentation,
    arc_curve,
    corrected_arc_curve,
    find_regime_changes,
    segment_regimes,
)

__all__ = [
    "apply_annotation",
    "corrected_profile",
    "flat_region_annotation",
    "interval_annotation",
    "ConsensusMotif",
    "consensus_motif",
    "distance_profile",
    "mpdist",
    "mpdist_profile",
    "Snippet",
    "find_snippets",
    "LeftRightProfile",
    "anchored_chain",
    "left_right_profile",
    "unanchored_chain",
    "RegimeSegmentation",
    "arc_curve",
    "corrected_arc_curve",
    "find_regime_changes",
    "segment_regimes",
    "ClassificationOutcome",
    "classify_hpcoda",
    "nn_classify",
    "smooth_predictions",
    "Motif",
    "top_discords",
    "top_motifs",
]
