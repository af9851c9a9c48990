"""The end-to-end STPP pipeline: phase profiles in, relative locations out.

:class:`STPPLocalizer` packages the paper's full workflow:

1. detect every tag's V-zone by matching a reference profile with (segmented)
   DTW (§3.1.1–3.1.2);
2. quadratically fit each V-zone to obtain its bottom time and curvature
   (§3.1.2);
3. order tags along X by bottom time (§3.1) and along Y by comparing V-zone
   coarse representations (§3.2).

The localizer consumes :class:`~repro.core.phase_profile.ProfileSet` objects,
which in this repository come from the simulator but in a real deployment
would come straight from the reader's read log.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from .ordering_x import order_tags_x
from .ordering_y import YOrderingConfig, order_tags_y
from .phase_profile import PhaseProfile, ProfileSet
from .reference import (
    DEFAULT_REFERENCE_PERIODS,
    ReferenceProfile,
    shared_canonical_reference,
)
from .result import LocalizationResult
from .vzone import DETECTION_METHODS, VZoneDetector


@dataclass(frozen=True, slots=True)
class STPPConfig:
    """Tunable parameters of the STPP pipeline.

    The defaults reproduce the paper's choices: 4-period reference profile
    (§4.2), coarse-segment window ``w = 5`` (Figure 12), ``k = 10`` segments
    for the Y-axis coarse representation, pivot-based Y comparison (§3.2.2).
    """

    window_size: int = 5
    """Samples per coarse DTW segment (``w``)."""

    detection_method: str = "segmented_dtw"
    """V-zone detection strategy; one of repro.core.vzone.DETECTION_METHODS."""

    reference_periods: int = DEFAULT_REFERENCE_PERIODS
    """Number of periods in the reference profile."""

    reference_speed_mps: float = 0.3
    """Nominal sweep speed used to generate the reference profile."""

    reference_perpendicular_distance_m: float = 0.35
    """Nominal tag-to-trajectory distance used for the reference profile."""

    y_segment_count: int = 10
    """Number of equal segments (``k``) for the Y-axis coarse representation."""

    y_value_mode: str = "depth"
    """V-zone summary used for Y ordering: 'depth', 'raw', or 'curvature'."""

    y_comparison: str = "pivot"
    """'pivot' (M−1 comparisons) or 'all_pairs'."""

    antenna_below_tags: bool = True
    """True when the antenna trajectory passes below all tags (paper §4.2);
    tags closer to the trajectory then have smaller Y coordinates."""

    min_profile_samples: int = 12
    """Profiles with fewer samples are reported as unordered."""

    def __post_init__(self) -> None:
        if self.detection_method not in DETECTION_METHODS:
            raise ValueError(
                f"detection_method must be one of {DETECTION_METHODS}, "
                f"got {self.detection_method!r}"
            )
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if self.reference_periods < 1:
            raise ValueError("reference_periods must be >= 1")
        if self.y_segment_count < 2:
            raise ValueError("y_segment_count must be >= 2")

    def y_config(self) -> YOrderingConfig:
        """The Y-axis ordering configuration implied by this STPP config."""
        return YOrderingConfig(
            segment_count=self.y_segment_count,
            value_mode=self.y_value_mode,
            comparison=self.y_comparison,
            closest_first=self.antenna_below_tags,
        )


@dataclass
class STPPLocalizer:
    """Relative localization of RFID tags from their phase profiles.

    One call localizes every tag of a sweep:

    * V-zone detection aligns **all** tags at once through the batch
      aligners (``core.dtw.segmented_dtw_align_batch`` /
      ``subsequence_dtw_batch``), which sweep whole padded chunks of cost
      matrices per NumPy step instead of a per-tag Python loop;
    * the reference profile comes from the process-wide cache
      (:func:`~repro.core.reference.shared_canonical_reference`), and its
      segmentation is derived once and reused across every call, so one
      engine serves a stream of sweeps.

    The detections are bit-identical to detecting each tag on its own.
    """

    config: STPPConfig = field(default_factory=STPPConfig)
    reference: ReferenceProfile | None = None
    """Optional explicit reference profile; built from the config when None."""

    def __post_init__(self) -> None:
        if self.reference is None:
            self.reference = shared_canonical_reference(
                perpendicular_distance_m=self.config.reference_perpendicular_distance_m,
                speed_mps=self.config.reference_speed_mps,
                periods=self.config.reference_periods,
            )
        self._detector = VZoneDetector(
            reference=self.reference,
            window_size=self.config.window_size,
            method=self.config.detection_method,
            min_profile_samples=self.config.min_profile_samples,
        )

    @property
    def detector(self) -> VZoneDetector:
        """The V-zone detector the localizer uses (exposed for diagnostics)."""
        return self._detector

    def localize(
        self,
        profiles: "ProfileSet | Mapping[str, PhaseProfile]",
        expected_tag_ids: "list[str] | None" = None,
        pivot_tag_id: str | None = None,
    ) -> LocalizationResult:
        """Run the full pipeline and return X and Y orderings.

        Parameters
        ----------
        profiles:
            Phase profiles keyed by tag id (a :class:`ProfileSet` works).
        expected_tag_ids:
            The full tag population; tags without a usable profile are listed
            in the orderings' ``unordered_ids``.  Defaults to the profiles'
            own tag ids.
        pivot_tag_id:
            Optional pivot for the Y-axis comparison (a random tag otherwise).
        """
        profile_map = self._as_mapping(profiles)
        if expected_tag_ids is not None:
            expected = list(expected_tag_ids)
            # Only the tags of interest are localized; any other profiles in
            # the input (e.g. Landmarc reference tags sharing the read log)
            # are ignored rather than silently mixed into the ordering.
            expected_set = set(expected)
            profile_map = {
                tag_id: profile
                for tag_id, profile in profile_map.items()
                if tag_id in expected_set
            }
        else:
            expected = list(profile_map)

        started = time.perf_counter()
        vzones = self._detector.detect_all(profile_map)
        x_ordering = order_tags_x(vzones, all_tag_ids=expected)
        y_ordering = order_tags_y(
            profile_map,
            vzones,
            config=self.config.y_config(),
            all_tag_ids=expected,
            pivot_tag_id=pivot_tag_id,
        )
        elapsed = time.perf_counter() - started

        return LocalizationResult(
            x_ordering=x_ordering,
            y_ordering=y_ordering,
            vzones=vzones,
            metadata={
                "detection_method": self.config.detection_method,
                "window_size": self.config.window_size,
                "y_value_mode": self.config.y_value_mode,
                "elapsed_s": elapsed,
                "profile_count": len(profile_map),
            },
        )

    @staticmethod
    def _as_mapping(
        profiles: "ProfileSet | Mapping[str, PhaseProfile]",
    ) -> dict[str, PhaseProfile]:
        if isinstance(profiles, ProfileSet):
            return dict(profiles.profiles)
        return dict(profiles)


# perfbench/fleet.py and the docs know the engine by this name.
BatchLocalizer = STPPLocalizer
