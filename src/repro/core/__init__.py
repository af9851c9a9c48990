"""STPP core: phase profiles, V-zone detection, and relative tag ordering.

This subpackage is the paper's contribution.  Everything else in the
repository exists to feed it realistic phase profiles (the simulation
substrates) or to compare it against prior schemes (the baselines).
"""

from .dtw import (
    DTWResult,
    ResumableSegmentAligner,
    align_resumable_batch,
    segmented_dtw_align_batch,
    subsequence_dtw_batch,
)
from .fitting import QuadraticFit, fit_vzone, fit_vzone_profile
from .localizer import BatchLocalizer, STPPConfig, STPPLocalizer
from .ordering_x import order_tags_x
from .ordering_y import (
    VALUE_MODES,
    YOrderingConfig,
    build_representations,
    order_tags_y,
    signed_gap,
)
from .phase_profile import PhaseProfile, ProfileSet
from .reference import (
    DEFAULT_REFERENCE_PERIODS,
    ReferenceProfile,
    canonical_reference,
    reference_profile,
    shared_canonical_reference,
)
from .result import AxisOrdering, LocalizationResult
from .segmentation import (
    CoarseRepresentation,
    IncrementalSegmenter,
    SegmentArrays,
    coarse_representation,
    segment_profile_arrays,
)
from .vzone import DETECTION_METHODS, VZone, VZoneDetector

__all__ = [
    "AxisOrdering",
    "BatchLocalizer",
    "CoarseRepresentation",
    "DEFAULT_REFERENCE_PERIODS",
    "DETECTION_METHODS",
    "DTWResult",
    "LocalizationResult",
    "PhaseProfile",
    "ProfileSet",
    "QuadraticFit",
    "ReferenceProfile",
    "STPPConfig",
    "STPPLocalizer",
    "SegmentArrays",
    "VALUE_MODES",
    "VZone",
    "VZoneDetector",
    "YOrderingConfig",
    "align_resumable_batch",
    "build_representations",
    "canonical_reference",
    "coarse_representation",
    "IncrementalSegmenter",
    "ResumableSegmentAligner",
    "fit_vzone",
    "fit_vzone_profile",
    "order_tags_x",
    "order_tags_y",
    "reference_profile",
    "segment_profile_arrays",
    "segmented_dtw_align_batch",
    "shared_canonical_reference",
    "signed_gap",
    "subsequence_dtw_batch",
]
