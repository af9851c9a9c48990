"""Coarse-grained segment representation of phase profiles (paper §3.1.2).

To make V-zone detection cheap, STPP does not run DTW on raw samples.  A phase
profile of length ``M`` is split into segments of ``w`` samples; each segment
records its phase *range* (min and max) and its *time interval*, and DTW runs
on the segment sequence, reducing the cost from ``O(MN)`` to ``O(MN/w²)``.
Segments never span a 0/2π phase jump: whenever the wrapped phase jumps, the
segment is split at the jump (see Figure 8 of the paper).

The same module provides the equal-count mean-value representation used for
Y-axis ordering (paper §3.2.1): the V-zone is split into ``k`` equal segments
and each segment is summarised by its mean phase value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rf.constants import TWO_PI
from .phase_profile import PhaseProfile


@dataclass(frozen=True, slots=True)
class Segment:
    """One coarse segment of a phase profile."""

    start_index: int
    """Index of the first sample of the segment in the original profile."""

    end_index: int
    """Index one past the last sample of the segment."""

    start_time_s: float
    end_time_s: float
    min_phase_rad: float
    """``s^L`` in the paper: the smallest phase value within the segment."""

    max_phase_rad: float
    """``s^U`` in the paper: the largest phase value within the segment."""

    def __post_init__(self) -> None:
        if self.end_index <= self.start_index:
            raise ValueError("segment must contain at least one sample")
        if self.max_phase_rad < self.min_phase_rad:
            raise ValueError("segment max phase must be >= min phase")

    @property
    def sample_count(self) -> int:
        """Number of samples the segment covers."""
        return self.end_index - self.start_index

    @property
    def duration_s(self) -> float:
        """Time interval ``s^T`` of the segment, in seconds."""
        return self.end_time_s - self.start_time_s


def _phase_jump_indices(phases: np.ndarray, jump_threshold_rad: float) -> np.ndarray:
    """Indices ``i`` such that a 0/2π wrap occurs between samples ``i-1`` and ``i``."""
    if phases.size < 2:
        return np.array([], dtype=int)
    diffs = np.abs(np.diff(phases))
    return np.nonzero(diffs > jump_threshold_rad)[0] + 1


class SegmentArrays:
    """Structure-of-arrays segmentation: what the batch engines consume.

    :func:`segment_profile` historically returned a ``list[Segment]``, which
    the batched DTW aligner immediately unpacked back into bounds/duration
    arrays — tens of thousands of dataclass constructions per localization
    whose fields were only ever read columnwise.  ``SegmentArrays`` keeps the
    columns as NumPy arrays and materialises :class:`Segment` objects lazily,
    so the hot path (segment → distance matrix → DTW) never touches per-
    segment objects while indexing and iteration still behave like the list.
    """

    __slots__ = ("starts", "ends", "start_times", "end_times", "mins", "maxs")

    def __init__(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        start_times: np.ndarray,
        end_times: np.ndarray,
        mins: np.ndarray,
        maxs: np.ndarray,
    ) -> None:
        self.starts = starts
        self.ends = ends
        self.start_times = start_times
        self.end_times = end_times
        self.mins = mins
        self.maxs = maxs

    def __len__(self) -> int:
        return int(self.starts.size)

    def __getitem__(self, index: int) -> Segment:
        return Segment(
            start_index=int(self.starts[index]),
            end_index=int(self.ends[index]),
            start_time_s=float(self.start_times[index]),
            end_time_s=float(self.end_times[index]),
            min_phase_rad=float(self.mins[index]),
            max_phase_rad=float(self.maxs[index]),
        )

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(min_phase, max_phase)`` arrays (no per-object extraction)."""
        return self.mins, self.maxs

    def durations(self) -> np.ndarray:
        """Per-segment durations clamped away from zero, as an array."""
        return np.maximum(self.end_times - self.start_times, 1e-6)

    def to_segments(self) -> list[Segment]:
        """Materialise the equivalent ``list[Segment]``."""
        return [self[k] for k in range(len(self))]


def segment_profile_arrays(
    profile: PhaseProfile,
    window_size: int,
    jump_threshold_rad: float = 0.75 * TWO_PI,
) -> SegmentArrays:
    """:func:`segment_profile` as columns — the batch engines' form.

    Identical segmentation (same boundaries, same min/max values); only the
    container differs.
    """
    if window_size < 1:
        raise ValueError(f"window size must be >= 1, got {window_size}")
    phases = profile.phases_rad
    times = profile.timestamps_s
    sample_count = len(profile)
    if sample_count == 0:
        empty_index = np.empty(0, dtype=np.intp)
        empty_float = np.empty(0)
        return SegmentArrays(
            empty_index, empty_index, empty_float, empty_float, empty_float, empty_float
        )
    jumps = _phase_jump_indices(phases, jump_threshold_rad)

    # Each segment closes at the first boundary after its start: the window
    # filling, the next 0/2pi jump, or the end of the profile.  Walking
    # boundary to boundary (O(M / w) steps) replaces the historical
    # sample-by-sample loop; the boundary sequence is identical.
    boundaries = [0]
    jump_cursor = 0
    jump_count = jumps.size
    start = 0
    while start < sample_count:
        stop = start + window_size
        while jump_cursor < jump_count and jumps[jump_cursor] <= start:
            jump_cursor += 1
        if jump_cursor < jump_count and jumps[jump_cursor] < stop:
            stop = int(jumps[jump_cursor])
        if stop > sample_count:
            stop = sample_count
        boundaries.append(stop)
        start = stop

    starts = np.array(boundaries[:-1], dtype=np.intp)
    ends = np.array(boundaries[1:], dtype=np.intp)
    # reduceat evaluates min/max over [starts[i], starts[i+1]) — exactly the
    # per-chunk np.min/np.max values the per-sample loop computed.
    mins = np.minimum.reduceat(phases, starts)
    maxs = np.maximum.reduceat(phases, starts)
    return SegmentArrays(
        starts=starts,
        ends=ends,
        start_times=times[starts],
        end_times=times[ends - 1],
        mins=mins,
        maxs=maxs,
    )


def segment_profile(
    profile: PhaseProfile,
    window_size: int,
    jump_threshold_rad: float = 0.75 * TWO_PI,
) -> list[Segment]:
    """Split ``profile`` into segments of ``window_size`` samples.

    Segments are split additionally at every 0/2π phase jump so that no
    segment contains a wrap (paper §3.1.2).  The last segment may be shorter
    than ``window_size``.

    Parameters
    ----------
    profile:
        The phase profile to segment.
    window_size:
        Target number of samples per segment (``w`` in the paper); must be
        at least 1.
    jump_threshold_rad:
        A sample-to-sample phase difference larger than this is treated as a
        wrap.  The default (1.5π) only triggers on genuine wraps, not on noise.
    """
    if profile.is_empty and window_size >= 1:
        return []
    return segment_profile_arrays(profile, window_size, jump_threshold_rad).to_segments()


class IncrementalSegmenter:
    """Streaming counterpart of :func:`segment_profile`.

    Maintains the coarse segmentation of a growing phase profile with
    amortized O(1) work per appended sample: a segment *closes* as soon as its
    fate is sealed — it reached ``window_size`` samples, or the next sample
    sits across a 0/2π jump — and closed segments are never touched again.
    Only the open tail (at most ``window_size - 1`` samples) is re-described
    when :meth:`segments` is called.

    The produced segmentation is **identical** to running
    :func:`segment_profile` on the full profile at any point: both close a
    segment at the first boundary where the window is full or a jump occurs,
    and both emit the trailing partial segment.  The only streaming-specific
    notion is :meth:`stable_count`: the number of segments that can never
    change as more samples arrive, which is what lets the resumable DTW
    aligner (:class:`~repro.core.dtw.ResumableSegmentAligner`) cache its
    accumulation prefix.
    """

    __slots__ = (
        "window_size",
        "jump_threshold_rad",
        "_closed",
        "_count",
        "_prev_phase",
        "_open_start",
        "_open_count",
        "_open_start_time",
        "_open_end_time",
        "_open_min",
        "_open_max",
    )

    def __init__(
        self, window_size: int, jump_threshold_rad: float = 0.75 * TWO_PI
    ) -> None:
        if window_size < 1:
            raise ValueError(f"window size must be >= 1, got {window_size}")
        self.window_size = window_size
        self.jump_threshold_rad = jump_threshold_rad
        self._closed: list[Segment] = []
        self._count = 0
        self._prev_phase = 0.0
        self._reset_open(0)

    def _reset_open(self, start: int) -> None:
        self._open_start = start
        self._open_count = 0
        self._open_start_time = 0.0
        self._open_end_time = 0.0
        self._open_min = float("inf")
        self._open_max = float("-inf")

    def _close_open(self) -> None:
        self._closed.append(
            Segment(
                start_index=self._open_start,
                end_index=self._open_start + self._open_count,
                start_time_s=self._open_start_time,
                end_time_s=self._open_end_time,
                min_phase_rad=self._open_min,
                max_phase_rad=self._open_max,
            )
        )
        self._reset_open(self._open_start + self._open_count)

    def append(self, timestamp_s: float, phase_rad: float) -> None:
        """Feed one sample (samples must arrive in timestamp order)."""
        timestamp_s = float(timestamp_s)
        phase_rad = float(phase_rad)
        if (
            self._open_count > 0
            and abs(phase_rad - self._prev_phase) > self.jump_threshold_rad
        ):
            # A 0/2π wrap sits between the previous sample and this one:
            # the open segment closes at that boundary (paper Figure 8).
            self._close_open()
        if self._open_count == 0:
            self._open_start_time = timestamp_s
        self._open_count += 1
        self._open_end_time = timestamp_s
        if phase_rad < self._open_min:
            self._open_min = phase_rad
        if phase_rad > self._open_max:
            self._open_max = phase_rad
        self._prev_phase = phase_rad
        self._count += 1
        if self._open_count >= self.window_size:
            self._close_open()

    def extend(self, timestamps_s: np.ndarray, phases_rad: np.ndarray) -> None:
        """Feed a batch of samples (in timestamp order)."""
        for timestamp_s, phase_rad in zip(timestamps_s, phases_rad):
            self.append(timestamp_s, phase_rad)

    @property
    def sample_count(self) -> int:
        """Total samples consumed so far."""
        return self._count

    def stable_count(self) -> int:
        """Number of leading segments that no future sample can change."""
        return len(self._closed)

    def segments(self) -> list[Segment]:
        """The current segmentation: closed segments plus the open tail.

        Equals ``segment_profile(profile_so_far, window_size)`` exactly.  The
        returned list shares the closed-segment prefix, so callers must not
        mutate it.
        """
        if self._open_count == 0:
            return list(self._closed)
        tail = Segment(
            start_index=self._open_start,
            end_index=self._open_start + self._open_count,
            start_time_s=self._open_start_time,
            end_time_s=self._open_end_time,
            min_phase_rad=self._open_min,
            max_phase_rad=self._open_max,
        )
        return [*self._closed, tail]


def segment_bounds(segments: list[Segment]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(min_phase, max_phase)`` arrays of a segmentation.

    Extracted once per segmentation so the batched DTW engine can build many
    distance matrices against a shared reference without re-reading the
    segment objects each time.
    """
    mins = np.array([seg.min_phase_rad for seg in segments], dtype=float)
    maxs = np.array([seg.max_phase_rad for seg in segments], dtype=float)
    return mins, maxs


def segment_durations(segments: list[Segment]) -> np.ndarray:
    """Per-segment durations clamped away from zero (for duration weights)."""
    return np.array([max(seg.duration_s, 1e-6) for seg in segments], dtype=float)


def range_gap_matrix(
    left_min: np.ndarray,
    left_max: np.ndarray,
    right_min: np.ndarray,
    right_max: np.ndarray,
) -> np.ndarray:
    """Pairwise range-gap distances (the paper's ``D_{i,j}``), vectorized.

    Zero where the two phase ranges overlap, otherwise the distance between
    the closest points of the ranges.  ``tests/oracles/dtw.py`` keeps the
    pair-at-a-time form.
    """
    gap = np.maximum(
        left_min[:, None] - right_max[None, :],
        right_min[None, :] - left_max[:, None],
    )
    return np.maximum(gap, 0.0)


def duration_weight_matrix(
    left_durations: np.ndarray, right_durations: np.ndarray
) -> np.ndarray:
    """Pairwise ``min(s^T_P,i, s^T_Q,j)`` weights from per-side duration arrays."""
    return np.minimum(left_durations[:, None], right_durations[None, :])


def segment_distance_matrix(left: list[Segment], right: list[Segment]) -> np.ndarray:
    """Matrix of range-gap distances (``D_{i,j}``) between two segmentations."""
    left_min, left_max = segment_bounds(left)
    right_min, right_max = segment_bounds(right)
    return range_gap_matrix(left_min, left_max, right_min, right_max)


def segment_duration_weights(left: list[Segment], right: list[Segment]) -> np.ndarray:
    """Matrix of ``min(s^T_P,i, s^T_Q,j)`` weights used in the segmented DTW cost."""
    return duration_weight_matrix(segment_durations(left), segment_durations(right))


@dataclass(frozen=True, slots=True)
class CoarseRepresentation:
    """Equal-count mean-value representation of a V-zone profile (paper §3.2.1)."""

    tag_id: str
    segment_means_rad: np.ndarray
    """Mean phase value of each of the ``k`` segments (``s_{P,i}`` in the paper)."""

    segment_count: int

    def __post_init__(self) -> None:
        means = np.asarray(self.segment_means_rad, dtype=float)
        object.__setattr__(self, "segment_means_rad", means)
        if means.ndim != 1:
            raise ValueError("segment means must be one-dimensional")
        if means.size != self.segment_count:
            raise ValueError(
                f"expected {self.segment_count} segment means, got {means.size}"
            )


def coarse_representation(
    tag_id: str,
    values: np.ndarray,
    segment_count: int,
) -> CoarseRepresentation:
    """Split ``values`` into ``segment_count`` equal chunks and average each.

    Averaging suppresses per-sample phase noise; since each chunk corresponds
    to one time window, the chunk mean reflects the accumulated phase changing
    rate within that window (paper §3.2.1).
    """
    if segment_count < 1:
        raise ValueError(f"segment count must be >= 1, got {segment_count}")
    values = np.asarray(values, dtype=float)
    if values.size < segment_count:
        raise ValueError(
            f"need at least {segment_count} values to build {segment_count} segments, "
            f"got {values.size}"
        )
    chunks = np.array_split(values, segment_count)
    means = np.array([float(np.mean(chunk)) for chunk in chunks], dtype=float)
    return CoarseRepresentation(tag_id=tag_id, segment_means_rad=means, segment_count=segment_count)
