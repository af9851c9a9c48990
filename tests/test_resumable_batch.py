"""The batched resume of segmented DTW, and the plain-float backtrack.

``align_resumable_batch`` is the only way a streaming alignment is
accumulated: every lane either starts fresh or is seeded with its aligner's
last cached column, and all lanes share one chunked anti-diagonal sweep.
The differential tests here drive random growth schedules through it and
hold every lane, at every step, bit-identical to the pure-Python segmented
alignment of ``tests/oracles/dtw.py`` (random lanes) or to a from-scratch
``segmented_dtw_align_batch`` (real profiles).  ``_backtrack`` is checked
against the ``min(..., key=...)`` walk it replaced (``tests/oracles/dtw.py``),
on tie-heavy matrices in particular, since a tie is where two walks could
part.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles.dtw import accumulate_python, backtrack_min, segmented_align_python
from oracles.segmentation import Segment, columns_of
from repro.core import BatchLocalizer, STPPConfig, dtw
from repro.core.dtw import (
    ResumableSegmentAligner,
    _accumulate_chunk,
    _backtrack,
    align_resumable_batch,
    segmented_dtw_align_batch,
)
from repro.core.reference import shared_canonical_reference
from repro.core.segmentation import IncrementalSegmenter, segment_profile_arrays
from repro.service import CHECKPOINT_VERSION, LocalizationSession
from repro.simulation import collect_sweep, standard_antenna_moving_scene
from repro.simulation.collector import profiles_from_read_log
from repro.workloads.library import generate_bookshelf


# ---------------------------------------------------------------------------
# Batched resume vs from-scratch segmented DTW
# ---------------------------------------------------------------------------


@st.composite
def segments(draw, min_size: int = 1, max_size: int = 6) -> list[Segment]:
    """Segments with small integer-valued phases and durations (tie-heavy)."""
    count = draw(st.integers(min_size, max_size))
    result = []
    for index in range(count):
        low = draw(st.integers(0, 3))
        high = low + draw(st.integers(0, 2))
        duration = draw(st.sampled_from([0.0, 1.0, 2.0]))
        result.append(
            Segment(
                start_index=index,
                end_index=index + 1,
                start_time_s=float(index),
                end_time_s=float(index) + duration,
                min_phase_rad=float(low),
                max_phase_rad=float(high),
            )
        )
    return result


def _assert_matches_scratch(result, expected):
    assert result.cost == expected.cost
    assert result.path == expected.path
    assert (result.query_start, result.query_end) == (
        expected.query_start,
        expected.query_end,
    )


class _Lane:
    """One growing stream: a stable prefix plus a volatile tail."""

    def __init__(self, reference: list[Segment]) -> None:
        self.reference = columns_of(reference)
        self.aligner = ResumableSegmentAligner(self.reference)
        self.stable: list[Segment] = []


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_resume_matches_scratch_on_random_growth(data):
    """Lanes of different references grow by different amounts per step;
    some join late (fresh next to resumed lanes), some reorder (reset and a
    shorter stable prefix), and a tiny cell budget splits every step into
    several chunks."""
    references = [data.draw(segments(1, 5)) for _ in range(2)]
    lane_count = data.draw(st.integers(1, 5))
    lanes = [_Lane(references[k % 2]) for k in range(lane_count)]
    max_cells = data.draw(st.sampled_from([1, 12, 40, 250_000]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dtw, "MAX_BATCH_CELLS", max_cells)
        _grow_and_check(data, lanes)


def _grow_and_check(data, lanes: list[_Lane]) -> None:
    for _ in range(data.draw(st.integers(1, 5))):
        active, queries, stable_counts = [], [], []
        for lane in lanes:
            action = data.draw(st.sampled_from(["grow", "grow", "skip", "reorder"]))
            if action == "skip":
                continue
            if action == "reorder":
                lane.aligner.reset()
                lane.stable = lane.stable[: data.draw(st.integers(0, len(lane.stable)))]
            lane.stable = lane.stable + data.draw(segments(0, 4))
            tail = data.draw(segments(0 if lane.stable else 1, 2))
            query = lane.stable + tail
            # None means "all but the last": only truthful when that last
            # segment is the whole tail, or less than the real stable prefix
            # (yet no less than what is cached).  0 keeps nothing cached.
            cached = lane.aligner._cached_cols
            choices = [len(lane.stable)]
            if cached <= len(query) - 1 <= len(lane.stable):
                choices.append(None)
            if cached == 0:
                choices.append(0)
            stable_count = data.draw(st.sampled_from(choices))
            active.append(lane)
            queries.append(columns_of(query))
            stable_counts.append(stable_count)
        results = align_resumable_batch(
            [lane.aligner for lane in active], queries, stable_counts
        )
        assert len(results) == len(active)
        for lane, query, result in zip(active, queries, results):
            _assert_matches_scratch(result, segmented_align_python(lane.reference, query))


def test_batched_resume_matches_scratch_on_real_profiles(small_row_sweep, monkeypatch):
    """The session's regime: the canonical reference, real segmentations
    growing in uneven rounds, every tag resumed in one call per round."""
    monkeypatch.setattr(dtw, "MAX_BATCH_CELLS", 20_000)
    _, _, sweep = small_row_sweep
    reference = segment_profile_arrays(shared_canonical_reference().profile, 5)
    profiles = [sweep.profiles[tag_id] for tag_id in sweep.profiles.tag_ids()]
    aligners = [ResumableSegmentAligner(reference) for _ in profiles]
    segmenters = [IncrementalSegmenter(5) for _ in profiles]
    consumed = [0] * len(profiles)
    rng = np.random.default_rng(5)
    while any(c < len(p) for c, p in zip(consumed, profiles)):
        lanes = []
        for k, profile in enumerate(profiles):
            step = int(rng.integers(0, 60))
            segmenters[k].extend(
                profile.timestamps_s[consumed[k] : consumed[k] + step],
                profile.phases_rad[consumed[k] : consumed[k] + step],
            )
            consumed[k] = min(consumed[k] + step, len(profile))
            if segmenters[k].segments():
                lanes.append(k)
        results = align_resumable_batch(
            [aligners[k] for k in lanes],
            [segmenters[k].segments() for k in lanes],
            [segmenters[k].stable_count() for k in lanes],
        )
        scratch = segmented_dtw_align_batch(
            reference, [segmenters[k].segments() for k in lanes]
        )
        for result, expected in zip(results, scratch):
            _assert_matches_scratch(result, expected)


def test_empty_batch_is_empty():
    assert align_resumable_batch([], []) == []


def test_invalid_lane_leaves_every_aligner_untouched():
    reference = segment_profile_arrays(shared_canonical_reference().profile, 5)
    query = reference[:6]
    good, bad = ResumableSegmentAligner(reference), ResumableSegmentAligner(reference)
    bad.align(query, 4)
    with pytest.raises(ValueError, match="stable prefix shrank"):
        align_resumable_batch([good, bad], [query, query[:2]], [5, 1])
    assert (good._cached_cols, bad._cached_cols) == (0, 4)
    with pytest.raises(ValueError, match="query"):
        align_resumable_batch([good, bad], [query, query[:0]], [5, 0])
    assert good._cached_cols == 0
    with pytest.raises(ValueError, match="pair up"):
        align_resumable_batch([good], [query, query])


# ---------------------------------------------------------------------------
# Plain-float backtrack vs the min(..., key=...) oracle
# ---------------------------------------------------------------------------


def _every_end_column(cost):
    """Check the free-start walk from every end column."""
    for end_col in range(cost.shape[1]):
        assert _backtrack(cost, end_col) == backtrack_min(cost, start_col=end_col)


@settings(max_examples=150, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 9), st.integers(1, 9)),
        elements=st.integers(0, 2).map(float),
    )
)
def test_backtrack_matches_oracle_on_tie_heavy_matrices(cost):
    """Raw integer-valued matrices: two- and three-way ties everywhere,
    1×N and N×1 shapes included."""
    _every_end_column(cost)


@settings(max_examples=100, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 9), st.integers(1, 9)),
        elements=st.integers(0, 3).map(float),
    ),
)
def test_backtrack_matches_oracle_on_accumulated_matrices(weighted):
    """Accumulated costs of integer weights, as the aligners produce them."""
    _every_end_column(accumulate_python(weighted, None, True))


@pytest.mark.parametrize(
    "cost",
    [
        np.zeros((4, 5)),  # three-way tie at every step: diagonal wins
        np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]),  # up == left
        np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 5.0]]),  # up == left < diag
        np.array([[0.0, 1.0], [0.0, 0.0]]),  # diag == up
        np.array([[0.0, 0.0], [1.0, 0.0]]),  # diag == left
        np.arange(7.0)[None, :],
        np.arange(7.0)[:, None],
        np.array([[3.0]]),
    ],
    ids=["all-zero", "up-eq-left", "up-eq-left-lt-diag", "diag-eq-up",
         "diag-eq-left", "1xN", "Nx1", "1x1"],
)
def test_backtrack_matches_oracle_on_hand_picked_ties(cost):
    _every_end_column(cost)


def test_backtrack_matches_oracle_on_full_dtw_sized_matrix(small_row_sweep):
    """A raw-sample matrix (the full_dtw strategy's hundreds × hundreds),
    non-contiguous like a lane sliced out of a batch stack."""
    _, _, sweep = small_row_sweep
    reference = shared_canonical_reference().profile.phases_rad
    query = sweep.profiles[sweep.profiles.tag_ids()[0]].phases_rad
    distance = np.abs(reference[:, None] - query[None, :])
    matrices = [np.ones((2, 2)), distance]
    shapes = [matrix.shape for matrix in matrices]
    strided = _accumulate_chunk([0, 1], shapes, matrices.__getitem__)[:, :, 1]
    assert not strided.flags.c_contiguous
    end_col = int(np.argmin(strided[-1]))
    assert _backtrack(strided, end_col) == backtrack_min(strided, end_col)


# ---------------------------------------------------------------------------
# Session: checkpoint after provisionals, restore, finalize through the batch
# ---------------------------------------------------------------------------


def test_restored_session_finalizes_through_the_batch_like_uninterrupted():
    shelf = generate_bookshelf(levels=1, books_per_level=12, seed=31)
    tags = shelf.to_tags(seed=31)
    scene = standard_antenna_moving_scene(tags, seed=31)
    sweep = collect_sweep(scene)
    channel = scene.reader_config.channel.channel_index
    batches = list(sweep.read_log.iter_batches(64))
    cut = len(batches) // 2

    def replay(session, part):
        for index, batch in enumerate(part):
            session.ingest_batch(batch)
            if index % 2:
                session.provisional()

    uninterrupted = LocalizationSession(expected_tag_ids=tags.ids(), channel_index=channel)
    replay(uninterrupted, batches[:cut])
    interrupted = LocalizationSession(expected_tag_ids=tags.ids(), channel_index=channel)
    replay(interrupted, batches[:cut])
    assert any(p.aligner._cached_cols for p in interrupted._pipelines.values())
    restored = LocalizationSession.restore(interrupted.checkpoint())
    replay(uninterrupted, batches[cut:])
    replay(restored, batches[cut:])

    final = restored.finalize()
    expected = uninterrupted.finalize()
    batch = BatchLocalizer(STPPConfig()).localize(
        profiles_from_read_log(sweep.read_log, channel_index=channel),
        expected_tag_ids=tags.ids(),
    )
    assert CHECKPOINT_VERSION == 3
    assert final.result.vzones.keys() == expected.result.vzones.keys()
    for tag_id, vzone in expected.result.vzones.items():
        other = final.result.vzones[tag_id]
        assert (other.start_index, other.end_index, other.fit) == (
            vzone.start_index, vzone.end_index, vzone.fit,
        )
        assert other.dtw_cost == vzone.dtw_cost or (
            np.isnan(other.dtw_cost) and np.isnan(vzone.dtw_cost)
        )
    for result in (expected.result, batch):
        assert final.result.x_ordering == result.x_ordering
        assert final.result.y_ordering == result.y_ordering
    assert final.confidence == expected.confidence
