"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.dtw import subsequence_dtw
from repro.core.phase_profile import PhaseProfile
from repro.core.segmentation import (
    coarse_representation,
    segment_distance_matrix,
    segment_profile,
)
from repro.evaluation.metrics import ordering_accuracy, pairwise_order_accuracy
from repro.rf.constants import TWO_PI, channel_wavelength_m
from repro.rf.phase_model import round_trip_phase, wrap_phase

from oracles.dtw import accumulate_python, segment_range_distance

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
small_positive = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)


class TestPhaseModelProperties:
    @given(distance=small_positive)
    def test_phase_always_wrapped(self, distance):
        theta = round_trip_phase(distance, channel_wavelength_m(6))
        assert 0.0 <= theta < TWO_PI

    @given(theta=finite_floats)
    def test_wrap_phase_idempotent(self, theta):
        once = wrap_phase(theta)
        assert 0.0 <= once < TWO_PI
        assert wrap_phase(once) == pytest.approx(once)

    @given(distance=small_positive, k=st.integers(min_value=-3, max_value=3))
    def test_phase_periodic_in_half_wavelength(self, distance, k):
        wavelength = channel_wavelength_m(6)
        shifted = distance + k * wavelength / 2.0
        if shifted <= 0:
            return
        diff = abs(
            round_trip_phase(distance, wavelength) - round_trip_phase(shifted, wavelength)
        )
        assert min(diff, TWO_PI - diff) < 1e-6


def profile_strategy(min_size=2, max_size=60):
    """Random valid phase profiles."""
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, n, elements=st.floats(0.001, 0.1, allow_nan=False)),
            arrays(np.float64, n, elements=st.floats(0.0, TWO_PI - 1e-6, allow_nan=False)),
        )
    )


class TestProfileAndSegmentationProperties:
    @settings(max_examples=30, deadline=None)
    @given(data=profile_strategy(), window=st.integers(min_value=1, max_value=10))
    def test_segments_partition_profile(self, data, window):
        gaps, phases = data
        times = np.cumsum(gaps)
        profile = PhaseProfile("t", times, phases)
        segments = segment_profile(profile, window)
        assert sum(s.sample_count for s in segments) == len(profile)
        # Segments are contiguous and ordered.
        boundaries = [s.start_index for s in segments] + [segments[-1].end_index]
        assert boundaries == sorted(boundaries)
        # No segment contains a wrap larger than the threshold.
        for segment in segments:
            chunk = profile.phases_rad[segment.start_index:segment.end_index]
            assert np.all(np.abs(np.diff(chunk)) <= 0.75 * TWO_PI + 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(data=profile_strategy())
    def test_segment_distance_nonnegative_symmetric(self, data):
        gaps, phases = data
        times = np.cumsum(gaps)
        profile = PhaseProfile("t", times, phases)
        segments = segment_profile(profile, 5)
        matrix = segment_distance_matrix(segments, segments)
        assert (matrix >= 0.0).all()
        assert np.array_equal(matrix, matrix.T)
        for i, a in enumerate(segments[:4]):
            for j, b in enumerate(segments[:4]):
                assert matrix[i, j] == segment_range_distance(a, b)

    @settings(max_examples=30, deadline=None)
    @given(
        values=arrays(np.float64, st.integers(10, 80), elements=st.floats(0, 10, allow_nan=False)),
        k=st.integers(min_value=2, max_value=10),
    )
    def test_coarse_representation_mean_bounds(self, values, k):
        if values.size < k:
            return
        rep = coarse_representation("t", values, k)
        assert rep.segment_means_rad.size == k
        assert np.min(values) - 1e-9 <= np.min(rep.segment_means_rad)
        assert np.max(rep.segment_means_rad) <= np.max(values) + 1e-9


class TestDTWProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seq=arrays(np.float64, st.integers(2, 30), elements=st.floats(0, 6, allow_nan=False)),
    )
    def test_self_alignment_zero_cost(self, seq):
        result = subsequence_dtw(seq, seq)
        assert result.cost == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        ref=arrays(np.float64, st.integers(2, 20), elements=st.floats(0, 6, allow_nan=False)),
        query=arrays(np.float64, st.integers(2, 25), elements=st.floats(0, 6, allow_nan=False)),
    )
    def test_dtw_cost_nonnegative_and_path_valid(self, ref, query):
        result = subsequence_dtw(ref, query)
        assert result.cost >= 0.0
        assert result.path[0] == (0, result.query_start)
        assert result.path[-1] == (len(ref) - 1, result.query_end)
        assert 0 <= result.query_start <= result.query_end < len(query)
        for (r0, q0), (r1, q1) in zip(result.path, result.path[1:]):
            assert 0 <= r1 - r0 <= 1
            assert 0 <= q1 - q0 <= 1

    @settings(max_examples=25, deadline=None)
    @given(
        ref=arrays(np.float64, st.integers(2, 15), elements=st.floats(0, 6, allow_nan=False)),
        query=arrays(np.float64, st.integers(2, 25), elements=st.floats(0, 6, allow_nan=False)),
    )
    def test_subsequence_cost_at_most_full_cost(self, ref, query):
        # Full DTW (both query ends pinned) is one of the alignments the
        # subsequence search ranges over, so it can never cost less.
        distance = np.abs(ref[:, None] - query[None, :])
        full_cost = accumulate_python(distance, None, False)[-1, -1]
        sub = subsequence_dtw(ref, query)
        assert sub.cost <= full_cost + 1e-9


class TestMetricProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        coords=st.lists(
            st.floats(min_value=0, max_value=10, allow_nan=False), min_size=2, max_size=12, unique=True
        ),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_accuracy_bounds_and_perfect_case(self, coords, seed):
        true = {f"t{i}": c for i, c in enumerate(coords)}
        correct_order = sorted(true, key=true.get)
        assert ordering_accuracy(true, correct_order) == 1.0
        assert pairwise_order_accuracy(true, correct_order) == 1.0
        rng = np.random.default_rng(seed)
        shuffled = list(true)
        rng.shuffle(shuffled)
        accuracy = ordering_accuracy(true, shuffled)
        assert 0.0 <= accuracy <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        coords=st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=10, unique=True)
    )
    def test_reversed_order_pairwise_zero(self, coords):
        # Integer-valued coordinates keep every pair clearly un-tied.
        true = {f"t{i}": float(c) for i, c in enumerate(coords)}
        reversed_order = sorted(true, key=true.get, reverse=True)
        assert pairwise_order_accuracy(true, reversed_order) == 0.0
