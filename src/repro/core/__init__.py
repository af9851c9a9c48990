"""STPP core: phase profiles, V-zone detection, and relative tag ordering.

This subpackage is the paper's contribution.  Everything else in the
repository exists to feed it realistic phase profiles (the simulation
substrates) or to compare it against prior schemes (the baselines).
"""

from .dtw import (
    DTWResult,
    ReferenceColumns,
    ResumableSegmentAligner,
    accumulate_cost,
    accumulate_cost_batch,
    align_resumable_batch,
    dtw_align,
    segmented_dtw_align,
    segmented_dtw_align_batch,
    subsequence_dtw,
    subsequence_dtw_batch,
    warp_query_to_reference,
)
from .fitting import QuadraticFit, fit_vzone, fit_vzone_profile
from .localizer import BatchLocalizer, STPPConfig, STPPLocalizer
from .ordering_x import bottom_time_gaps, order_tags_x
from .ordering_y import (
    VALUE_MODES,
    YOrderingConfig,
    build_representations,
    gap_metric,
    order_metric,
    order_tags_y,
    pairwise_gaps,
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
    Segment,
    coarse_representation,
    segment_distance_matrix,
    segment_profile,
    segment_range_distance,
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
    "Segment",
    "VALUE_MODES",
    "VZone",
    "VZoneDetector",
    "YOrderingConfig",
    "accumulate_cost",
    "accumulate_cost_batch",
    "align_resumable_batch",
    "bottom_time_gaps",
    "build_representations",
    "canonical_reference",
    "coarse_representation",
    "IncrementalSegmenter",
    "ReferenceColumns",
    "ResumableSegmentAligner",
    "dtw_align",
    "fit_vzone",
    "fit_vzone_profile",
    "gap_metric",
    "order_metric",
    "order_tags_x",
    "order_tags_y",
    "pairwise_gaps",
    "reference_profile",
    "segment_distance_matrix",
    "segment_profile",
    "segment_range_distance",
    "segmented_dtw_align",
    "segmented_dtw_align_batch",
    "shared_canonical_reference",
    "signed_gap",
    "subsequence_dtw",
    "subsequence_dtw_batch",
    "warp_query_to_reference",
]
