"""V-zone detection (paper §3.1).

The V-zone of a phase profile is the wrap-free, self-symmetric region around
the instant the antenna is perpendicular to the tag.  Finding it is the core
of tag ordering along the X axis: the V-zone bottom times order the tags.

Three detection strategies are provided:

* ``"segmented_dtw"`` (default, the paper's method §3.1.2): match a reference
  profile against the coarse segment representation of the measured profile
  with duration-weighted DTW, then read the V-zone location off the warping
  path.
* ``"full_dtw"`` (the paper's unoptimised method §3.1.1): the same idea on raw
  samples; used by the ablation benchmarks to quantify the speed-up of
  segmentation.
* ``"longest_run"``: a simple heuristic that picks the longest wrap-free run
  of the profile (phase changes slowest near the perpendicular point, so the
  wrap-free run containing it lasts longest).  It is used as a fallback when a
  DTW detection yields a degenerate window, and as an ablation point.

Whatever the strategy, the detected window is refined with the quadratic fit
of :mod:`repro.core.fitting`, which supplies the bottom time (X ordering), the
curvature (Y ordering), and a validity flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..rf.constants import TWO_PI
from .dtw import (
    DTWResult,
    ReferenceColumns,
    segmented_dtw_align,
    segmented_dtw_align_batch,
    subsequence_dtw,
    subsequence_dtw_batch,
)
from .fitting import QuadraticFit, fit_vzone
from .phase_profile import PhaseProfile
from .reference import ReferenceProfile, shared_canonical_reference
from .segmentation import Segment, segment_profile, segment_profile_arrays

DETECTION_METHODS = ("segmented_dtw", "full_dtw", "longest_run")
"""The supported V-zone detection strategies."""


@dataclass(frozen=True, slots=True)
class VZone:
    """A detected V-zone within a measured phase profile."""

    tag_id: str
    start_index: int
    end_index: int
    """Sample index range of the V-zone window (end exclusive)."""

    start_time_s: float
    end_time_s: float
    fit: QuadraticFit
    """Quadratic fit over the window; carries bottom time and curvature."""

    method: str
    """Which detection strategy produced the window."""

    dtw_cost: float = float("nan")
    """Warping cost of the DTW match (NaN for non-DTW methods)."""

    @property
    def duration_s(self) -> float:
        """Duration of the detected window, seconds."""
        return self.end_time_s - self.start_time_s

    @property
    def bottom_time_s(self) -> float:
        """Estimated perpendicular-point time (the V-zone bottom)."""
        return self.fit.bottom_time_s

    @property
    def sample_count(self) -> int:
        """Number of samples inside the window."""
        return self.end_index - self.start_index


@dataclass
class VZoneDetector:
    """Detects the V-zone of measured phase profiles.

    Parameters
    ----------
    reference:
        The reference profile used by the DTW strategies.  Defaults to the
        canonical 4-period reference (paper §4.2).
    window_size:
        Samples per coarse segment (``w``); the paper selects 5 (Figure 12).
    method:
        One of :data:`DETECTION_METHODS`.
    min_profile_samples:
        Profiles with fewer samples than this are rejected (detection returns
        ``None``); such tags are reported as unordered by the localizer.
    expand_fraction:
        The detected window is symmetrically expanded by this fraction of its
        length before fitting, which recovers samples lost to segmentation
        granularity at the window edges.
    """

    reference: ReferenceProfile = field(default_factory=shared_canonical_reference)
    window_size: int = 5
    method: str = "segmented_dtw"
    min_profile_samples: int = 12
    expand_fraction: float = 0.15
    fallback_to_longest_run: bool = True

    def __post_init__(self) -> None:
        if self.method not in DETECTION_METHODS:
            raise ValueError(
                f"unknown detection method {self.method!r}; expected one of {DETECTION_METHODS}"
            )
        if self.window_size < 1:
            raise ValueError("window size must be >= 1")
        if self.min_profile_samples < 3:
            raise ValueError("min_profile_samples must be at least 3")
        if self.expand_fraction < 0:
            raise ValueError("expand fraction must be non-negative")
        self._reference_segments: list[Segment] | None = None
        self._reference_columns: ReferenceColumns | None = None
        self._reference_vzone_range: tuple[int, int] | None = None

    # ------------------------------------------------------------------ API

    def detect(self, profile: PhaseProfile) -> VZone | None:
        """Locate the V-zone of ``profile``; returns None for unusable profiles."""
        if len(profile) < self.min_profile_samples:
            return None

        if self.method == "segmented_dtw":
            vzone = self._detect_segmented_dtw(profile)
        elif self.method == "full_dtw":
            vzone = self._detect_full_dtw(profile)
        else:
            vzone = self._detect_longest_run(profile)

        if self.fallback_to_longest_run and self.method != "longest_run":
            vzone = self._apply_fallback(vzone, profile)
        return vzone

    def _apply_fallback(self, vzone: VZone | None, profile: PhaseProfile) -> VZone | None:
        """Run the longest-run fallback only when it could change the outcome.

        :meth:`_better_of` keeps the primary whenever its fit is valid, so
        computing the fallback (three candidate windows, a quadratic fit
        each) for a valid primary is pure waste — the detections are
        identical either way, this just skips the discarded work.
        """
        if vzone is not None and vzone.fit.valid:
            return vzone
        return self._better_of(vzone, self._detect_longest_run(profile))

    @staticmethod
    def _better_of(primary: VZone | None, secondary: VZone | None) -> VZone | None:
        """Prefer the primary detection; fall back when it is missing/invalid.

        A valid fit always beats an invalid one.  When both are valid the
        primary (the configured method) wins — comparing fit residuals across
        windows of different widths is not a reliable tie-breaker because
        narrow windows can overfit noise.
        """
        if primary is None:
            return secondary
        if secondary is None:
            return primary
        if primary.fit.valid or not secondary.fit.valid:
            return primary
        return secondary

    def detect_all(
        self,
        profiles: "dict[str, PhaseProfile] | list[PhaseProfile]",
    ) -> dict[str, VZone]:
        """Detect V-zones for many profiles; tags without a detection are omitted.

        The DTW strategies align every usable profile against the reference
        in one batched accumulation
        (:func:`~repro.core.dtw.accumulate_cost_batch`); the detections are
        bit-identical to calling :meth:`detect` per profile, which is what a
        single profile and the ``longest_run`` method do.
        """
        items = list(profiles.values()) if isinstance(profiles, dict) else list(profiles)
        if self.method != "longest_run" and len(items) > 1:
            return self._detect_all_batched(items)
        detections: dict[str, VZone] = {}
        for profile in items:
            vzone = self.detect(profile)
            if vzone is not None:
                detections[profile.tag_id] = vzone
        return detections

    def detect_from_segmented_alignment(
        self,
        profile: PhaseProfile,
        measured_segments: list[Segment],
        result: DTWResult,
    ) -> VZone | None:
        """Build a V-zone from an externally computed segmented-DTW alignment.

        The streaming session computes alignments with the resumable aligner
        (:class:`~repro.core.dtw.ResumableSegmentAligner`) as profiles grow;
        this method turns such an alignment into a detection through exactly
        the same window/fit/fallback path as :meth:`detect_all` — including
        the longest-run fallback — so a streaming detection from the final
        alignment is bit-identical to the batch detection.
        """
        vzone = self._vzone_from_segmented(profile, measured_segments, result)
        if self.fallback_to_longest_run:
            vzone = self._apply_fallback(vzone, profile)
        return vzone

    def _detect_all_batched(self, items: "list[PhaseProfile]") -> dict[str, VZone]:
        """Batched DTW detection over every usable profile at once."""
        usable = [p for p in items if len(p) >= self.min_profile_samples]
        primaries: dict[int, VZone | None] = {}
        if self.method == "segmented_dtw":
            # Column-form segmentations: the aligner reads bounds/durations
            # straight off the arrays, with no per-segment objects built.
            segmentations = [
                segment_profile_arrays(p, self.window_size) for p in usable
            ]
            indices = [k for k, segs in enumerate(segmentations) if segs]
            if indices:
                results = segmented_dtw_align_batch(
                    self.reference_segmentation(),
                    [segmentations[k] for k in indices],
                    subsequence=True,
                )
                for k, result in zip(indices, results):
                    primaries[k] = self._vzone_from_segmented(
                        usable[k], segmentations[k], result
                    )
        else:  # full_dtw
            results = subsequence_dtw_batch(
                self.reference.profile.phases_rad, [p.phases_rad for p in usable]
            )
            for k, result in enumerate(results):
                primaries[k] = self._vzone_from_full(usable[k], result)

        detections: dict[str, VZone] = {}
        for k, profile in enumerate(usable):
            vzone = primaries.get(k)
            if self.fallback_to_longest_run:
                vzone = self._apply_fallback(vzone, profile)
            if vzone is not None:
                detections[profile.tag_id] = vzone
        return detections

    # ------------------------------------------------------- DTW strategies

    def reference_segmentation(self) -> list[Segment]:
        """The reference profile's segmentation (computed once, cached).

        Public because the streaming session seeds its per-tag resumable
        aligners with it; callers must not mutate the returned list.
        """
        if self._reference_segments is None:
            self._reference_segments = segment_profile(
                self.reference.profile, self.window_size
            )
        return self._reference_segments

    def reference_columns(self) -> ReferenceColumns:
        """:meth:`reference_segmentation`'s bounds and durations (computed
        once, cached, read-only), shared by the streaming session's per-tag
        resumable aligners."""
        if self._reference_columns is None:
            self._reference_columns = ReferenceColumns.of(self.reference_segmentation())
        return self._reference_columns

    def _reference_vzone_segment_range(self) -> tuple[int, int]:
        """Indices of the reference segments overlapping the reference V-zone.

        Computed once, next to the cached :meth:`reference_segmentation`.
        """
        if self._reference_vzone_range is None:
            start = self.reference.vzone_start_index
            end = self.reference.vzone_end_index
            overlapping = [
                i
                for i, seg in enumerate(self.reference_segmentation())
                if seg.end_index > start and seg.start_index < end
            ]
            if not overlapping:
                raise RuntimeError("reference segmentation does not cover its own V-zone")
            self._reference_vzone_range = (min(overlapping), max(overlapping))
        return self._reference_vzone_range

    def _detect_segmented_dtw(self, profile: PhaseProfile) -> VZone | None:
        measured_segments = segment_profile(profile, self.window_size)
        if not measured_segments:
            return None
        result = segmented_dtw_align(
            self.reference_segmentation(), measured_segments, subsequence=True
        )
        return self._vzone_from_segmented(profile, measured_segments, result)

    def _vzone_from_segmented(
        self,
        profile: PhaseProfile,
        measured_segments: "list[Segment] | object",
        result: DTWResult,
    ) -> VZone | None:
        """Turn a segmented-DTW alignment into a V-zone window.

        ``measured_segments`` may be a ``list[Segment]`` or the batched
        detector's column-form ``SegmentArrays`` — only indexed access to the
        matched segments' sample ranges is needed.
        """
        ref_vz_start, ref_vz_end = self._reference_vzone_segment_range()
        try:
            q_start_seg, q_end_seg = result.query_indices_for_reference_range(
                ref_vz_start, ref_vz_end
            )
        except ValueError:
            return None
        start_index = measured_segments[q_start_seg].start_index
        end_index = measured_segments[q_end_seg].end_index
        return self._build_vzone(profile, start_index, end_index, "segmented_dtw", result.cost)

    def _detect_full_dtw(self, profile: PhaseProfile) -> VZone | None:
        result = subsequence_dtw(self.reference.profile.phases_rad, profile.phases_rad)
        return self._vzone_from_full(profile, result)

    def _vzone_from_full(self, profile: PhaseProfile, result: DTWResult) -> VZone | None:
        """Turn a raw-sample alignment into a V-zone window."""
        try:
            q_start, q_end = result.query_indices_for_reference_range(
                self.reference.vzone_start_index,
                max(self.reference.vzone_start_index, self.reference.vzone_end_index - 1),
            )
        except ValueError:
            return None
        return self._build_vzone(profile, q_start, q_end + 1, "full_dtw", result.cost)

    # -------------------------------------------------- heuristic strategy

    def _detect_longest_run(self, profile: PhaseProfile) -> VZone | None:
        """Pick the best wrap-free run as the V-zone candidate.

        Near the perpendicular point the phase changes slowest, so the
        wrap-free run containing it spans the most time.  Among the three
        longest runs (by duration) the one whose quadratic fit is best (valid,
        lowest residual) wins; this guards against long flat runs produced by
        an antenna dwelling at the end of its sweep.
        """
        phases = profile.phases_rad
        times = profile.timestamps_s
        if phases.size < 3:
            return None
        jump_threshold = 0.75 * TWO_PI
        jumps = np.nonzero(np.abs(np.diff(phases)) > jump_threshold)[0] + 1
        boundaries = [0, *jumps.tolist(), phases.size]
        runs: list[tuple[float, int, int]] = []
        for run_start, run_end in zip(boundaries[:-1], boundaries[1:]):
            if run_end - run_start < 3:
                continue
            duration = float(times[run_end - 1] - times[run_start])
            runs.append((duration, run_start, run_end))
        if not runs:
            return None
        runs.sort(key=lambda item: item[0], reverse=True)
        candidates = []
        for _, start_index, end_index in runs[:3]:
            vzone = self._build_vzone(profile, start_index, end_index, "longest_run", float("nan"))
            if vzone is not None:
                candidates.append(vzone)
        if not candidates:
            return None
        valid = [vz for vz in candidates if vz.fit.valid]
        if valid:
            return min(valid, key=lambda vz: vz.fit.residual_rms_rad / max(vz.fit.curvature, 1e-6))
        return candidates[0]

    # -------------------------------------------------------------- helpers

    def _build_vzone(
        self,
        profile: PhaseProfile,
        start_index: int,
        end_index: int,
        method: str,
        dtw_cost: float,
    ) -> VZone | None:
        start_index = max(0, start_index)
        end_index = min(len(profile), end_index)
        if end_index - start_index < 3:
            return None
        if self.expand_fraction > 0:
            expansion = int(round((end_index - start_index) * self.expand_fraction))
            start_index = max(0, start_index - expansion)
            end_index = min(len(profile), end_index + expansion)
        window = profile.slice_index(start_index, end_index)
        fit = fit_vzone(window.timestamps_s, window.phases_rad)

        # Recentre-and-refit: DTW (or the heuristic) only needs to land a
        # window that overlaps the true V-zone; the quadratic fit then tells
        # us where the bottom really is, and refitting on a window centred
        # there (with the half-width implied by the curvature) symmetrises the
        # window and sharpens both the bottom-time and curvature estimates.
        if fit.valid:
            refined = self._refit_centred(profile, fit)
            if refined is not None:
                start_index, end_index, fit = refined

        return VZone(
            tag_id=profile.tag_id,
            start_index=start_index,
            end_index=end_index,
            start_time_s=float(profile.timestamps_s[start_index]),
            end_time_s=float(profile.timestamps_s[end_index - 1]),
            fit=fit,
            method=method,
            dtw_cost=dtw_cost,
        )

    def _refit_centred(
        self, profile: PhaseProfile, fit: QuadraticFit
    ) -> tuple[int, int, QuadraticFit] | None:
        """Refit the quadratic on a window centred at the fitted bottom."""
        halfwidth = fit.vzone_halfwidth_s()
        if not np.isfinite(halfwidth):
            return None
        halfwidth = float(np.clip(halfwidth, 0.15, 3.0))
        times = profile.timestamps_s
        start_time = fit.bottom_time_s - halfwidth
        end_time = fit.bottom_time_s + halfwidth
        start_index = int(np.searchsorted(times, start_time, side="left"))
        end_index = int(np.searchsorted(times, end_time, side="right"))
        if end_index - start_index < 5:
            return None
        window = profile.slice_index(start_index, end_index)
        refined = fit_vzone(window.timestamps_s, window.phases_rad)
        if not refined.valid:
            return None
        return start_index, end_index, refined
