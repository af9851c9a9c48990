"""The per-profile boundary walk that ``segment_profile_arrays`` replaced,
and the sample-by-sample loop the walk replaced before it.

Production segments every profile (and, in the streaming session, every
stale tag of a refresh at once) in one vectorized pass over the hard
boundaries.  The oracle is the walk it replaced: starting at sample 0, a
segment closes at the first of the window filling, the next 0/2π jump, or
the end of the profile, and the next one starts there.  Min and max come
from ``np.min``/``np.max`` over each segment's slice, not from ``reduceat``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.segmentation import SegmentArrays
from repro.rf.constants import TWO_PI


@dataclass(frozen=True, slots=True)
class Segment:
    """One coarse segment, as the oracles build them one at a time."""

    start_index: int
    end_index: int
    """Index one past the last sample of the segment."""

    start_time_s: float
    end_time_s: float
    min_phase_rad: float
    max_phase_rad: float


def columns_of(segments: list[Segment]) -> SegmentArrays:
    """The column form of a list of segments (what the library produces)."""
    return SegmentArrays(
        np.array([s.start_index for s in segments], dtype=np.intp),
        np.array([s.end_index for s in segments], dtype=np.intp),
        np.array([s.start_time_s for s in segments], dtype=float),
        np.array([s.end_time_s for s in segments], dtype=float),
        np.array([s.min_phase_rad for s in segments], dtype=float),
        np.array([s.max_phase_rad for s in segments], dtype=float),
    )


def _jump_indices(phases: np.ndarray, jump_threshold_rad: float) -> list[int]:
    """Indices ``i`` such that a 0/2π wrap occurs between samples ``i-1`` and ``i``."""
    return [
        index
        for index in range(1, len(phases))
        if abs(float(phases[index]) - float(phases[index - 1])) > jump_threshold_rad
    ]


def segment_profile_per_sample(
    profile, window_size: int, jump_threshold_rad: float = 0.75 * TWO_PI
) -> list[Segment]:
    """The historical sample-by-sample segmentation loop."""
    if profile.is_empty:
        return []
    phases = profile.phases_rad
    times = profile.timestamps_s
    jump_set = set(_jump_indices(phases, jump_threshold_rad))
    segments = []
    start = 0
    for index in range(1, len(profile) + 1):
        window_full = (index - start) >= window_size
        if not (window_full or index in jump_set or index == len(profile)):
            continue
        chunk = phases[start:index]
        segments.append(
            Segment(
                start_index=start,
                end_index=index,
                start_time_s=float(times[start]),
                end_time_s=float(times[index - 1]),
                min_phase_rad=float(np.min(chunk)),
                max_phase_rad=float(np.max(chunk)),
            )
        )
        start = index
        if index == len(profile):
            break
    return segments


def segment_walk(
    times: np.ndarray,
    phases: np.ndarray,
    window_size: int,
    jump_threshold_rad: float = 0.75 * TWO_PI,
) -> list[Segment]:
    """The segmentation of one profile, boundary by boundary."""
    sample_count = len(phases)
    jumps = _jump_indices(phases, jump_threshold_rad)
    segments = []
    jump_cursor = 0
    start = 0
    while start < sample_count:
        stop = start + window_size
        while jump_cursor < len(jumps) and jumps[jump_cursor] <= start:
            jump_cursor += 1
        if jump_cursor < len(jumps) and jumps[jump_cursor] < stop:
            stop = jumps[jump_cursor]
        stop = min(stop, sample_count)
        chunk = phases[start:stop]
        segments.append(
            Segment(
                start_index=start,
                end_index=stop,
                start_time_s=float(times[start]),
                end_time_s=float(times[stop - 1]),
                min_phase_rad=float(np.min(chunk)),
                max_phase_rad=float(np.max(chunk)),
            )
        )
        start = stop
    return segments


def assert_same_columns(actual, expected) -> None:
    """Two ``SegmentArrays`` hold the same six columns, bit for bit."""
    for name in ("starts", "ends", "start_times", "end_times", "mins", "maxs"):
        left, right = getattr(actual, name), getattr(expected, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name
