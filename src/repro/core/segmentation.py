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

from collections.abc import Hashable, Sequence
from dataclasses import dataclass

import numpy as np

from ..rf.constants import TWO_PI
from .phase_profile import PhaseProfile


JUMP_THRESHOLD_RAD = 0.75 * TWO_PI
"""A sample-to-sample phase step larger than this is a 0/2π wrap.

1.5π triggers only on genuine wraps, not on noise.  Segmentation splits at
every such step, and the longest-run V-zone heuristic ends its runs there.
"""


class SegmentArrays:
    """A segmentation as columns: what the DTW engines consume.

    Segment ``k`` covers samples ``[starts[k], ends[k])`` of its profile,
    from ``start_times[k]`` to ``end_times[k]``, with phase range
    ``[mins[k], maxs[k]]`` (``s^L`` and ``s^U`` in the paper).  The aligners
    read the columns whole (segment → distance matrix → DTW) and never a
    segment on its own; a slice gives the ``SegmentArrays`` of the sliced
    columns.
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

    @classmethod
    def of_blocks(cls, indices: np.ndarray, values: np.ndarray) -> "SegmentArrays":
        """The segmentation whose ``(2, S)`` index block holds the start and
        end indices and whose ``(4, S)`` value block holds the start and end
        times and the min and max phases."""
        return cls(indices[0], indices[1], values[0], values[1], values[2], values[3])

    def __len__(self) -> int:
        return int(self.starts.size)

    def __getitem__(self, index: slice) -> "SegmentArrays":
        return SegmentArrays(
            self.starts[index],
            self.ends[index],
            self.start_times[index],
            self.end_times[index],
            self.mins[index],
            self.maxs[index],
        )

    def durations(self) -> np.ndarray:
        """Per-segment durations (``s^T``) clamped away from zero."""
        return np.maximum(self.end_times - self.start_times, 1e-6)


def _segment_runs(
    times: np.ndarray,
    phases: np.ndarray,
    run_starts: np.ndarray,
    window_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Segment consecutive runs of samples in one vectorized pass.

    ``times``/``phases`` hold the runs back to back, the run starting at
    each of ``run_starts`` (ascending, the first 0, none empty), and each
    run is segmented as a profile of its own.  Returns the ``(2, S)`` block
    of segment start and end positions in the concatenation and the
    ``(4, S)`` block of start times, end times, min and max phases, in run
    order (see :meth:`SegmentArrays.of_blocks`).

    A segment closes at the first boundary after its start: the window
    filling, the next 0/2π jump, or the end of its run.  So the *hard*
    boundaries (run starts and jumps) cut the samples into pieces, and each
    piece splits into windows of ``window_size`` from its start, the last
    one possibly shorter: a sample starts a segment exactly when its offset
    from its piece's start is a multiple of ``window_size``.  A jump between
    two runs falls on a run start, which is a boundary anyway.
    ``tests/oracles/segmentation.py`` keeps the per-profile boundary walk
    this replaced.
    """
    count = phases.size
    positions = np.arange(count)
    hard = np.empty(count, dtype=bool)
    np.greater(np.abs(np.diff(phases)), JUMP_THRESHOLD_RAD, out=hard[1:])
    hard[run_starts] = True
    piece_starts = np.maximum.accumulate(np.where(hard, positions, 0))
    starts = np.flatnonzero((positions - piece_starts) % window_size == 0)
    indices = np.empty((2, starts.size), dtype=np.intp)
    indices[0] = starts
    indices[1, :-1] = starts[1:]
    indices[1, -1] = count
    values = np.empty((4, starts.size))
    values[0] = times[starts]
    values[1] = times[indices[1] - 1]
    # reduceat evaluates min/max over [starts[i], starts[i+1]): exactly the
    # segments' samples.
    values[2] = np.minimum.reduceat(phases, starts)
    values[3] = np.maximum.reduceat(phases, starts)
    return indices, values


_EMPTY_INDICES = np.empty((2, 0), dtype=np.intp)
_EMPTY_VALUES = np.empty((4, 0))
_FIRST_RUN = np.zeros(1, dtype=np.intp)


def segment_profile_arrays(profile: PhaseProfile, window_size: int) -> SegmentArrays:
    """Split ``profile`` into segments of ``window_size`` samples (``w``).

    Segments are split additionally at every 0/2π phase jump (a step larger
    than :data:`JUMP_THRESHOLD_RAD`) so that no segment contains a wrap
    (paper §3.1.2); the last segment of a piece may be shorter than
    ``window_size``.  The profile is one run of the vectorized pass that
    :meth:`IncrementalSegmenter.extend` runs over many streams at once.
    """
    if window_size < 1:
        raise ValueError(f"window size must be >= 1, got {window_size}")
    if len(profile) == 0:
        return SegmentArrays.of_blocks(_EMPTY_INDICES, _EMPTY_VALUES)
    return SegmentArrays.of_blocks(
        *_segment_runs(profile.timestamps_s, profile.phases_rad, _FIRST_RUN, window_size)
    )


class _Stream:
    """One stream's state in an :class:`IncrementalSegmenter`.

    ``indices``/``values`` are its segments' blocks (see
    :meth:`SegmentArrays.of_blocks`): the first ``closed`` are closed, and
    a last one past them describes the open tail, whose samples
    ``tail_times``/``tail_phases`` keep for the next pass to segment again
    together with the new ones.  Each pass replaces the blocks rather than
    writing into them, so a segmentation handed out stays as it was.
    """

    __slots__ = ("indices", "values", "closed", "tail_times", "tail_phases", "sample_count")

    def __init__(self) -> None:
        self.indices = _EMPTY_INDICES
        self.values = _EMPTY_VALUES
        self.closed = 0
        self.tail_times = self.tail_phases = _EMPTY_VALUES[0]
        self.sample_count = 0


class IncrementalSegmenter:
    """Streaming counterpart of :func:`segment_profile_arrays`, for many
    streams at once.

    Keeps each stream's segmentation (streams are keyed by any hashable, e.g.
    a tag id) as columns: the start and end index, start and end time and
    min and max phase of its **closed** segments — a segment closes as soon
    as its fate is sealed: it reached ``window_size`` samples, or the next
    sample sits across a 0/2π jump — plus its **open tail**, the at most
    ``window_size - 1`` samples after the last closed segment.  Closed
    segments are never touched again.

    :meth:`extend` segments the new samples of every stream it is given in
    one vectorized pass: each stream's open tail and new samples, back to
    back, each stream's start a forced boundary — no Python work per sample.
    The produced segmentation is **identical** to running
    :func:`segment_profile_arrays` on the stream's full profile at any
    point: both run the same kernel, and a closed segment's boundaries do
    not depend on the samples after it.  The only streaming-specific notion
    is :meth:`stable_count`: the number of segments that can never change as
    more samples arrive, which is what lets the resumable DTW aligner
    (:class:`~repro.core.dtw.ResumableSegmentAligner`) cache its
    accumulation prefix.
    """

    __slots__ = ("window_size", "_streams")

    def __init__(self, window_size: int) -> None:
        if window_size < 1:
            raise ValueError(f"window size must be >= 1, got {window_size}")
        self.window_size = window_size
        self._streams: dict[Hashable, _Stream] = {}

    def extend(
        self,
        timestamps_s: "np.ndarray | Sequence[np.ndarray]",
        phases_rad: "np.ndarray | Sequence[np.ndarray]",
        keys: "Sequence[Hashable] | None" = None,
    ) -> None:
        """Feed new samples, in timestamp order, to one stream or to many.

        Without ``keys`` the arrays are the new samples of the default
        stream (key ``None``).  With ``keys``, ``timestamps_s[k]`` and
        ``phases_rad[k]`` are the new samples of stream ``keys[k]`` (each
        key at most once), and every stream is segmented in the same pass.
        """
        if keys is None:
            keys, timestamps_s, phases_rad = (None,), (timestamps_s,), (phases_rad,)
        elif len(set(keys)) != len(keys):
            raise ValueError("a stream may appear only once per extend")
        streams: list[_Stream] = []
        time_parts: list[np.ndarray] = []
        phase_parts: list[np.ndarray] = []
        lengths: list[int] = []
        tail_starts: list[int] = []
        for key, times, phases in zip(keys, timestamps_s, phases_rad, strict=True):
            new = len(phases)
            if not new:
                continue
            stream = self._streams.get(key)
            if stream is None:
                stream = self._streams[key] = _Stream()
            tail = stream.tail_phases.size
            streams.append(stream)
            time_parts += (stream.tail_times, times)
            phase_parts += (stream.tail_phases, phases)
            lengths.append(tail + new)
            tail_starts.append(stream.sample_count - tail)
            stream.sample_count += new
        if not streams:
            return
        times = np.concatenate(time_parts)
        phases = np.concatenate(phase_parts)
        run_ends = np.cumsum(lengths)
        run_starts = run_ends - lengths
        indices, values = _segment_runs(times, phases, run_starts, self.window_size)
        firsts = np.searchsorted(indices[0], run_starts)
        counts = np.diff(firsts, append=indices.shape[1])
        lasts = firsts + counts - 1
        # A run's last segment stays open unless its window is full: the
        # next sample may still join it.
        last_starts = indices[0, lasts]
        is_open = indices[1, lasts] - last_starts < self.window_size
        tail_from = np.where(is_open, last_starts, run_ends)
        # Positions in the concatenation become indices into each stream.
        indices -= np.repeat(run_starts - tail_starts, counts)
        for stream, first, count, closed, begin, end in zip(
            streams,
            firsts.tolist(),
            counts.tolist(),
            (counts - is_open).tolist(),
            tail_from.tolist(),
            run_ends.tolist(),
        ):
            stop = first + count
            kept = stream.closed
            stream.indices = np.concatenate(
                (stream.indices[:, :kept], indices[:, first:stop]), axis=1
            )
            stream.values = np.concatenate(
                (stream.values[:, :kept], values[:, first:stop]), axis=1
            )
            stream.closed = kept + closed
            stream.tail_times = times[begin:end].copy()
            stream.tail_phases = phases[begin:end].copy()

    def discard(self, key: Hashable = None) -> None:
        """Forget a stream (its samples were re-sorted; feed it again from 0)."""
        self._streams.pop(key, None)

    def sample_count(self, key: Hashable = None) -> int:
        """Samples stream ``key`` has consumed so far."""
        stream = self._streams.get(key)
        return 0 if stream is None else stream.sample_count

    def stable_count(self, key: Hashable = None) -> int:
        """Number of leading segments of stream ``key`` that no future sample
        can change."""
        stream = self._streams.get(key)
        return 0 if stream is None else stream.closed

    def segments(self, key: Hashable = None) -> SegmentArrays:
        """Stream ``key``'s current segmentation: closed segments plus the
        open tail.

        Equals ``segment_profile_arrays(profile_so_far, window_size)``
        exactly; later passes leave it as it is.  Callers must not mutate it.
        """
        stream = self._streams.get(key)
        if stream is None:
            return SegmentArrays.of_blocks(_EMPTY_INDICES, _EMPTY_VALUES)
        return SegmentArrays.of_blocks(stream.indices, stream.values)

    def state(self) -> dict:
        """Every stream's blocks, closed count, open tail and sample count,
        for a checkpoint."""
        return {
            key: {name: getattr(stream, name) for name in _Stream.__slots__}
            for key, stream in self._streams.items()
        }

    def load_state(self, state: dict) -> None:
        """Replace every stream with the ones of a :meth:`state`."""
        self._streams = {}
        for key, saved in state.items():
            stream = self._streams[key] = _Stream()
            for name in _Stream.__slots__:
                setattr(stream, name, saved[name])


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
