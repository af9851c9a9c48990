"""Tag ordering along the Y axis (paper §3.2).

The farther a tag is from the antenna trajectory, the lower its radial
velocity as the antenna passes, hence the smaller its phase changing rate and
the shallower its V-zone.  STPP therefore orders tags along Y by comparing
V-zone *shapes*:

* each V-zone is summarised by the mean phase value of ``k`` equal segments
  (the coarse representation of §3.2.1);
* two tags are compared with the ratio metric ``O(P,Q) = Σ (s_P,i − s_Q,i)/s_P,i``
  and the gap metric ``G(P,Q) = Σ |s_P,i − s_Q,i|``;
* a pivot tag reduces the number of comparisons from M(M−1)/2 to M−1 (§3.2.2).

Implementation note (documented in DESIGN.md): the paper computes the segment
means over raw wrapped phase values, which carries a half-wavelength ambiguity
in the V-zone bottom value.  The default here computes the means over the
phase *depth above the fitted bottom*, sampled over a common time window
centred on each tag's bottom — this preserves the paper's intent (compare
phase changing rates via segment means) while removing the ambiguity.  The
paper-literal behaviour is available as ``value_mode="raw"`` and a pure
curvature comparison as ``value_mode="curvature"``; both are exercised by the
ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .fitting import QuadraticFit
from .phase_profile import PhaseProfile
from .result import AxisOrdering
from .segmentation import CoarseRepresentation, coarse_representation
from .vzone import VZone

VALUE_MODES = ("depth", "raw", "curvature")
"""Supported ways of summarising a V-zone for Y-axis comparison."""


def signed_gap(p: CoarseRepresentation, q: CoarseRepresentation) -> float:
    """Signed version of the gap metric: positive when P's values dominate Q's."""
    if p.segment_count != q.segment_count:
        raise ValueError("representations must have the same segment count")
    return float(np.sum(p.segment_means_rad - q.segment_means_rad))


@dataclass(frozen=True, slots=True)
class YOrderingConfig:
    """Configuration of the Y-axis ordering stage."""

    segment_count: int = 10
    """Number of equal segments (``k``) in the coarse representation."""

    value_mode: str = "depth"
    """'depth' (default), 'raw' (paper-literal), or 'curvature'."""

    comparison: str = "pivot"
    """'pivot' (M−1 comparisons, §3.2.2) or 'all_pairs' (M(M−1)/2, Borda count)."""

    window_halfwidth_s: float | None = None
    """Half-width of the common comparison window; None derives it from the
    narrowest detected V-zone."""

    closest_first: bool = True
    """If True, the ordering lists the tag closest to the trajectory first
    (the correct choice when the antenna passes below all tags, §4.2)."""

    def __post_init__(self) -> None:
        if self.segment_count < 2:
            raise ValueError("segment count must be at least 2")
        if self.value_mode not in VALUE_MODES:
            raise ValueError(f"value_mode must be one of {VALUE_MODES}, got {self.value_mode!r}")
        if self.comparison not in ("pivot", "all_pairs"):
            raise ValueError("comparison must be 'pivot' or 'all_pairs'")
        if self.window_halfwidth_s is not None and self.window_halfwidth_s <= 0:
            raise ValueError("window halfwidth must be positive")


def _smooth(values: np.ndarray, width: int = 5) -> np.ndarray:
    """Centred moving average with edge padding; suppresses per-sample noise."""
    if values.size < width or width < 2:
        return values
    pad = width // 2
    padded = np.pad(values, pad, mode="edge")
    kernel = np.ones(width, dtype=float) / width
    smoothed = np.convolve(padded, kernel, mode="valid")
    return smoothed[: values.size]


def _folded_depth_segments(
    profile: PhaseProfile,
    fit: QuadraticFit,
    halfwidth_s: float,
    segment_count: int,
) -> np.ndarray:
    """Per-segment mean phase depth, folded around the V-zone bottom.

    The V-zone is symmetric around the perpendicular point, so samples at
    time offset ``+τ`` and ``−τ`` carry the same depth information.  Folding
    the window onto ``|τ|`` before averaging makes the representation robust
    to one flank being partially outside the sweep (edge tags) or thinned by
    dropouts — the remaining flank still populates every segment.

    Returns ``segment_count`` means over equal ``|τ|`` bins spanning
    ``[0, halfwidth_s]``; empty bins are filled by linear interpolation from
    their neighbours.  Returns an empty array when the window holds fewer
    than ``segment_count`` samples.
    """
    window = profile.slice_time(
        fit.bottom_time_s - halfwidth_s, fit.bottom_time_s + halfwidth_s
    )
    if len(window) < segment_count:
        return np.array([], dtype=float)
    unwrapped = _smooth(np.unwrap(window.phases_rad))
    depth = unwrapped - float(np.min(unwrapped))
    offsets = np.abs(window.timestamps_s - fit.bottom_time_s)
    bin_width = halfwidth_s / segment_count
    bins = np.minimum((offsets / bin_width).astype(int), segment_count - 1)

    sums = np.zeros(segment_count, dtype=float)
    counts = np.zeros(segment_count, dtype=float)
    np.add.at(sums, bins, depth)
    np.add.at(counts, bins, 1.0)
    filled = counts > 0
    if not np.any(filled):
        return np.array([], dtype=float)
    means = np.zeros(segment_count, dtype=float)
    means[filled] = sums[filled] / counts[filled]
    if not np.all(filled):
        centres = (np.arange(segment_count) + 0.5) * bin_width
        means[~filled] = np.interp(centres[~filled], centres[filled], means[filled])
    return means


def _available_halfwidth(vzone: VZone) -> float:
    """Largest symmetric window around the bottom covered by the detection."""
    before = vzone.fit.bottom_time_s - vzone.start_time_s
    after = vzone.end_time_s - vzone.fit.bottom_time_s
    return max(min(before, after), 0.0)


def _common_halfwidth(vzones: Mapping[str, VZone], configured: float | None) -> float:
    """The comparison half-window shared by all tags.

    Uses the median available symmetric window across tags (the depth values
    are sliced from the full profile, so a tag whose *detected* window is
    narrower than the median still contributes its surrounding samples),
    clipped to [0.3 s, 1.5 s]: wide enough for the depth differences to beat
    the noise, narrow enough to stay inside every tag's reading zone.
    """
    if configured is not None:
        return configured
    halfwidths = [_available_halfwidth(vz) for vz in vzones.values()]
    if not halfwidths:
        raise ValueError("no V-zones available to derive a comparison window")
    return float(np.clip(np.median(halfwidths), 0.3, 1.5))


def build_representations(
    profiles: Mapping[str, PhaseProfile],
    vzones: Mapping[str, VZone],
    config: YOrderingConfig,
) -> dict[str, CoarseRepresentation]:
    """Build the per-tag coarse representation used for Y-axis comparison."""
    representations: dict[str, CoarseRepresentation] = {}
    if not vzones:
        return representations
    halfwidth = _common_halfwidth(vzones, config.window_halfwidth_s)
    for tag_id, vzone in vzones.items():
        profile = profiles.get(tag_id)
        if profile is None:
            continue
        if config.value_mode == "depth":
            means = _folded_depth_segments(
                profile, vzone.fit, halfwidth, config.segment_count
            )
            if means.size != config.segment_count:
                continue
            representations[tag_id] = CoarseRepresentation(
                tag_id=tag_id,
                segment_means_rad=means,
                segment_count=config.segment_count,
            )
        elif config.value_mode == "raw":
            window = profile.slice_index(vzone.start_index, vzone.end_index)
            values = np.asarray(window.phases_rad, dtype=float)
            if values.size < config.segment_count:
                continue
            representations[tag_id] = coarse_representation(
                tag_id, values, config.segment_count
            )
        # curvature mode does not use coarse representations at all
    return representations


def order_tags_y(
    profiles: Mapping[str, PhaseProfile],
    vzones: Mapping[str, VZone],
    config: YOrderingConfig | None = None,
    all_tag_ids: Iterable[str] | None = None,
    pivot_tag_id: str | None = None,
) -> AxisOrdering:
    """Order tags along the Y axis by comparing their V-zone profiles.

    The returned scores are "distance-from-trajectory" scores: larger score
    means farther from the antenna trajectory.  With ``closest_first=True``
    (the paper's deployment: antenna below all tags) the ordering is by
    increasing Y coordinate.
    """
    config = config if config is not None else YOrderingConfig()

    if config.value_mode == "curvature":
        scores = {
            tag_id: -vzone.fit.curvature
            for tag_id, vzone in vzones.items()
            if vzone.fit.valid and vzone.fit.curvature > 0
        }
    else:
        representations = build_representations(profiles, vzones, config)
        scores = _scores_from_representations(representations, config, pivot_tag_id)

    ordered = sorted(scores, key=lambda tag_id: scores[tag_id])
    if not config.closest_first:
        ordered.reverse()

    if all_tag_ids is None:
        unordered: tuple[str, ...] = ()
    else:
        unordered = tuple(tag_id for tag_id in all_tag_ids if tag_id not in scores)

    return AxisOrdering(
        axis="y",
        ordered_ids=tuple(ordered),
        scores={tag_id: float(scores[tag_id]) for tag_id in ordered},
        unordered_ids=unordered,
    )


def _scores_from_representations(
    representations: dict[str, CoarseRepresentation],
    config: YOrderingConfig,
    pivot_tag_id: str | None,
) -> dict[str, float]:
    """Distance-from-trajectory scores (larger = farther) from representations.

    The sign of a segment-mean difference means opposite things in the two
    value modes: in "depth" mode larger values mean a deeper V-zone, i.e. a
    tag *closer* to the trajectory; in "raw" mode larger values mean a
    shallower V-zone, i.e. a tag *farther* away (paper §3.2.1).
    """
    if not representations:
        return {}
    tag_ids = list(representations)
    farther_sign = 1.0 if config.value_mode == "raw" else -1.0

    if config.comparison == "pivot":
        pivot = pivot_tag_id if pivot_tag_id in representations else tag_ids[0]
        pivot_rep = representations[pivot]
        return {
            tag_id: farther_sign * signed_gap(representations[tag_id], pivot_rep)
            for tag_id in tag_ids
        }

    # All-pairs comparison: accumulate signed gaps over every pair so each
    # tag's score reflects how much shallower it is than the rest.
    scores: dict[str, float] = {tag_id: 0.0 for tag_id in tag_ids}
    for i, tag_a in enumerate(tag_ids):
        for tag_b in tag_ids[i + 1 :]:
            gap = signed_gap(representations[tag_a], representations[tag_b])
            scores[tag_a] += farther_sign * gap
            scores[tag_b] -= farther_sign * gap
    return scores
