"""Batched localization engine: equivalence with the sequential path.

The vectorized/batched DTW kernels are required to be *bit-identical* to the
seed's pure-Python double loop — batching is a throughput optimisation, never
a behavioural one.  These tests pin that contract at every level: the raw
accumulation kernel, the batch aligners, and the end-to-end localizer on a
seeded scene.  They also cover the degenerate-shape behaviour of the
backtracker and the error contract of
:meth:`DTWResult.query_indices_for_reference_range`.
"""

import math

import numpy as np
import pytest

from repro.core.dtw import (
    DTWResult,
    _accumulate_chunk,
    _backtrack,
    _backtracked_batch,
    _result_from_cost,
    accumulate_cost,
    segmented_dtw_align,
    segmented_dtw_align_batch,
    subsequence_dtw,
    subsequence_dtw_batch,
)
from repro.core.localizer import BatchLocalizer, STPPConfig, STPPLocalizer
from repro.core.vzone import DETECTION_METHODS
from repro.core.ordering_x import order_tags_x
from repro.core.ordering_y import order_tags_y
from repro.core.reference import shared_canonical_reference
from repro.core.segmentation import segment_profile
from repro.evaluation.runner import standard_experiment
from repro.motion.speed_profiles import DEFAULT_BELT_SPEED_MPS
from repro.simulation.collector import collect_sweep, profiles_from_read_log
from repro.simulation.presets import standard_tag_moving_scene
from repro.workloads.airport import MORNING_PEAK, baggage_batch
from repro.workloads.layouts import random_spacing_row
from repro.workloads.library import audit_shelf, generate_bookshelf, misplace_books

from oracles.dtw import accumulate_python


class TestVectorizedKernelEquivalence:
    def test_matches_python_loop_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            rows = int(rng.integers(1, 30))
            cols = int(rng.integers(1, 45))
            distance = rng.random((rows, cols))
            weights = rng.random((rows, cols)) + 0.1 if trial % 2 else None
            expected = accumulate_python(distance, weights, True)
            assert np.array_equal(expected, accumulate_cost(distance, weights))

    def test_batch_matches_single_across_mixed_shapes_and_chunks(self):
        rng = np.random.default_rng(11)
        matrices = [
            rng.random((int(rng.integers(1, 40)), int(rng.integers(1, 60))))
            for _ in range(23)
        ]
        # A tiny chunk budget forces several padded chunks of mixed shapes.
        batched = _backtracked_batch(
            [matrix.shape for matrix in matrices], matrices.__getitem__, max_cells=4000
        )
        for matrix, result in zip(matrices, batched):
            assert result == _result_from_cost(accumulate_cost(matrix))

    def test_subsequence_batch_equals_sequential(self):
        rng = np.random.default_rng(3)
        reference = rng.random(25)
        queries = [rng.random(int(rng.integers(5, 90))) for _ in range(15)]
        batched = subsequence_dtw_batch(reference, queries)
        for query, result in zip(queries, batched):
            assert result == subsequence_dtw(reference, query)

    def test_segmented_batch_equals_sequential(self):
        reference = shared_canonical_reference()
        ref_segments = segment_profile(reference.profile, 5)
        rng = np.random.default_rng(5)
        positions = random_spacing_row(6, 0.06, 0.18, rng=rng)
        experiment = standard_experiment(positions, seed=21)
        profiles = profiles_from_read_log(experiment.read_log)
        segmentations = [
            segment_profile(profile, 5)
            for profile in profiles.profiles.values()
            if len(profile) >= 12
        ]
        assert len(segmentations) >= 2
        batched = segmented_dtw_align_batch(ref_segments, segmentations)
        for segments, result in zip(segmentations, batched):
            assert result == segmented_dtw_align(ref_segments, segments)

    def test_batch_rejects_empty_segmentations(self):
        reference = shared_canonical_reference()
        ref_segments = segment_profile(reference.profile, 5)
        with pytest.raises(ValueError):
            segmented_dtw_align_batch(ref_segments, [[]])
        with pytest.raises(ValueError):
            segmented_dtw_align_batch([], [ref_segments])


class TestKernelMatchesOracleOnEdgeShapes:
    """Single rows/columns and ties stress the anti-diagonal bookkeeping."""

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 12), (12, 1), (2, 37), (37, 2), (16, 16)]
    )
    def test_single_and_batched_match_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        distance = rng.random(shape)
        weights = rng.random(shape) + 0.1
        for w in (None, weights):
            expected = accumulate_python(distance, w, True)
            assert np.array_equal(accumulate_cost(distance, w), expected)
        weighted = distance * weights
        (batched,) = _accumulated_chunk([weighted])
        assert np.array_equal(batched, accumulate_python(weighted, None, True))

    def test_tied_costs_match_oracle(self):
        # Small integer distances make every min() over predecessors a tie.
        rng = np.random.default_rng(17)
        matrices = [rng.integers(0, 3, size=(9, 14)).astype(float) for _ in range(4)]
        for matrix, cost in zip(matrices, _accumulated_chunk(matrices)):
            expected = accumulate_python(matrix, None, True)
            assert np.array_equal(cost, expected)
            assert np.array_equal(accumulate_cost(matrix), expected)


def _accumulated_chunk(matrices: list[np.ndarray]) -> list[np.ndarray]:
    """Each matrix's accumulated cost, swept together as one padded chunk."""
    shapes = [matrix.shape for matrix in matrices]
    cost = _accumulate_chunk(list(range(len(matrices))), shapes, matrices.__getitem__)
    return [cost[:rows, :cols, k] for k, (rows, cols) in enumerate(shapes)]


class TestBacktrackDegenerateShapes:
    def test_single_column_alignment_walks_all_rows(self):
        result = subsequence_dtw(np.array([1.0, 2.0, 3.0]), np.array([1.0]))
        assert result.path == ((0, 0), (1, 0), (2, 0))
        assert (result.query_start, result.query_end) == (0, 0)

    def test_single_row_subsequence_is_single_cell(self):
        # A free query start on a one-row matrix stops immediately: the match
        # is the single cheapest column.
        result = subsequence_dtw(np.array([2.0]), np.array([5.0, 2.5, 9.0]))
        assert result.path == ((0, 1),)
        assert result.cost == pytest.approx(0.5)

    def test_backtrack_1x1(self):
        path = _backtrack(np.array([[3.0]]), 0)
        assert path == ((0, 0),)


class TestQueryIndicesContract:
    def _result(self) -> DTWResult:
        return subsequence_dtw(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]))

    def test_inclusive_range(self):
        result = self._result()
        assert result.query_indices_for_reference_range(0, 2) == (0, 2)
        assert result.query_indices_for_reference_range(1, 1) == (1, 1)

    def test_inverted_range_raises(self):
        with pytest.raises(ValueError, match="inverted"):
            self._result().query_indices_for_reference_range(2, 1)

    def test_negative_bound_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            self._result().query_indices_for_reference_range(-1, 2)

    def test_uncovered_range_raises_with_covered_rows(self):
        with pytest.raises(ValueError, match=r"path covers reference rows \[0, 2\]"):
            self._result().query_indices_for_reference_range(5, 9)


def _assert_vzones_equal(left, right):
    assert set(left) == set(right)
    for tag_id in left:
        a, b = left[tag_id], right[tag_id]
        assert (a.start_index, a.end_index, a.method) == (
            b.start_index,
            b.end_index,
            b.method,
        )
        assert a.bottom_time_s == b.bottom_time_s
        assert a.fit == b.fit
        assert a.dtw_cost == b.dtw_cost or (
            math.isnan(a.dtw_cost) and math.isnan(b.dtw_cost)
        )


class TestBatchLocalizerEquivalence:
    @pytest.mark.parametrize("method", ["segmented_dtw", "full_dtw"])
    def test_matches_per_tag_sequential_localization(self, method):
        rng = np.random.default_rng(3)
        positions = random_spacing_row(8, 0.05, 0.2, rng=rng)
        experiment = standard_experiment(positions, seed=3)
        profiles = profiles_from_read_log(experiment.read_log)
        config = STPPConfig(detection_method=method)
        localizer = BatchLocalizer(config)
        batched = localizer.localize(profiles, expected_tag_ids=experiment.target_ids)

        expected = experiment.target_ids
        profile_map = {p.tag_id: p for p in profiles if p.tag_id in set(expected)}
        sequential = {
            p.tag_id: vzone
            for p in profile_map.values()
            if (vzone := localizer.detector.detect(p)) is not None
        }
        x_ordering = order_tags_x(sequential, all_tag_ids=expected)
        y_ordering = order_tags_y(
            profile_map, sequential, config=config.y_config(), all_tag_ids=expected
        )

        _assert_vzones_equal(sequential, batched.vzones)
        assert x_ordering.ordered_ids == batched.x_ordering.ordered_ids
        assert y_ordering.ordered_ids == batched.y_ordering.ordered_ids
        assert x_ordering.unordered_ids == batched.x_ordering.unordered_ids

    def test_detect_all_matches_per_profile_detect(self):
        rng = np.random.default_rng(9)
        positions = random_spacing_row(5, 0.06, 0.15, rng=rng)
        experiment = standard_experiment(positions, seed=9)
        profiles = profiles_from_read_log(experiment.read_log)
        detector = STPPLocalizer(STPPConfig()).detector
        profile_map = dict(profiles.profiles)
        sequential = {
            p.tag_id: vzone
            for p in profiles
            if (vzone := detector.detect(p)) is not None
        }
        _assert_vzones_equal(sequential, detector.detect_all(profile_map))

    @pytest.mark.parametrize("method", DETECTION_METHODS)
    def test_detect_all_matches_detect_for_every_method(self, method):
        # The DTW methods align in one batch, longest_run has no alignment;
        # every method fits all windows in one staged batch, and must equal
        # detect() called profile by profile.
        rng = np.random.default_rng(12)
        positions = random_spacing_row(6, 0.05, 0.18, rng=rng)
        experiment = standard_experiment(positions, seed=12)
        profiles = list(profiles_from_read_log(experiment.read_log))
        detector = STPPLocalizer(STPPConfig(detection_method=method)).detector
        sequential = {
            p.tag_id: vzone
            for p in profiles
            if (vzone := detector.detect(p)) is not None
        }
        assert sequential
        _assert_vzones_equal(sequential, detector.detect_all(profiles))

    def test_detect_all_of_no_profiles_is_empty(self):
        detector = STPPLocalizer(STPPConfig()).detector
        assert detector.detect_all([]) == {}
        assert detector.detect_all({}) == {}

    def test_shared_reference_is_cached(self):
        first = BatchLocalizer(STPPConfig())
        second = BatchLocalizer(STPPConfig())
        assert first.reference is second.reference


class TestWorkloadEntryPoints:
    def test_audit_shelf_flags_misplaced_books(self):
        shelf = generate_bookshelf(levels=1, books_per_level=10, seed=42)
        shuffled, misplaced = misplace_books(
            shelf, 1, rng=np.random.default_rng(42)
        )
        flagged = audit_shelf(shuffled, seed=42)
        assert all(book in flagged for book in misplaced)

    def test_belt_order_is_recovered(self):
        batch = baggage_batch(MORNING_PEAK, bag_count=5, seed=13)
        scene = standard_tag_moving_scene(
            batch.tags, belt_speed_mps=DEFAULT_BELT_SPEED_MPS, seed=13
        )
        result = BatchLocalizer().localize(
            collect_sweep(scene).profiles, expected_tag_ids=batch.tags.ids()
        )
        assert list(result.x_ordering.ordered_ids) == batch.ground_truth_order()
