"""Unit tests for phase profiles, segmentation, and the DTW variants."""

import numpy as np
import pytest

from repro.core.dtw import segmented_dtw_align, subsequence_dtw
from repro.core.phase_profile import PhaseProfile, ProfileSet
from repro.core.segmentation import (
    CoarseRepresentation,
    coarse_representation,
    segment_distance_matrix,
    segment_profile,
)
from repro.rf.constants import TWO_PI
from repro.rfid.reading import ReadLog, TagRead
from repro.simulation.collector import profiles_from_read_log


def make_profile(times, phases, tag_id="t"):
    return PhaseProfile(tag_id=tag_id, timestamps_s=np.asarray(times, float), phases_rad=np.asarray(phases, float))


class TestPhaseProfile:
    def test_basic_properties(self):
        profile = make_profile([0.0, 0.1, 0.2], [1.0, 2.0, 3.0])
        assert len(profile) == 3
        assert profile.duration_s == pytest.approx(0.2)
        assert not profile.is_empty

    def test_validation(self):
        with pytest.raises(ValueError):
            make_profile([0.0, 0.1], [1.0])
        with pytest.raises(ValueError):
            make_profile([0.1, 0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            make_profile([0.0], [7.0])  # out of [0, 2*pi)

    def test_slice_time(self):
        profile = make_profile([0.0, 0.1, 0.2, 0.3], [1.0, 2.0, 3.0, 4.0])
        window = profile.slice_time(0.05, 0.25)
        assert len(window) == 2
        assert window.phases_rad.tolist() == [2.0, 3.0]
        with pytest.raises(ValueError):
            profile.slice_time(0.3, 0.1)

    def test_slice_index(self):
        profile = make_profile([0.0, 0.1, 0.2], [1.0, 2.0, 3.0])
        assert len(profile.slice_index(1, 3)) == 2

    def test_from_reads_sorts_and_wraps(self):
        log = ReadLog(
            [
                TagRead(0.2, "t", 7.0, -50.0),
                TagRead(0.0, "t", 1.0, -51.0),
                TagRead(0.1, "u", -1.0, -52.0),
            ]
        )
        profiles = profiles_from_read_log(log)
        assert profiles.tag_ids() == ["t", "u"]
        assert profiles["t"].timestamps_s.tolist() == [0.0, 0.2]
        assert profiles["t"].phases_rad[1] == pytest.approx(7.0 % TWO_PI)
        assert profiles["t"].rssi_dbm.tolist() == [-51.0, -50.0]
        assert profiles["u"].phases_rad[0] == pytest.approx(TWO_PI - 1.0)

    def test_empty_profile_properties(self):
        profile = make_profile([], [])
        assert profile.is_empty
        assert profile.duration_s == 0.0
        with pytest.raises(ValueError):
            _ = profile.start_time_s

    def test_metadata_merge(self):
        profile = make_profile([0.0], [1.0]).with_metadata(source="test")
        assert profile.metadata["source"] == "test"

    def test_profile_set(self):
        profiles = ProfileSet()
        profiles.add(make_profile([0.0], [1.0], "a"))
        profiles.add(make_profile([], [], "b"))
        assert len(profiles) == 2
        assert "a" in profiles


class TestSegmentation:
    def test_segment_count_and_coverage(self):
        profile = make_profile(np.linspace(0, 1, 20), np.linspace(0.5, 1.5, 20))
        segments = segment_profile(profile, window_size=5)
        assert sum(s.sample_count for s in segments) == 20
        assert len(segments) == 4

    def test_segments_split_at_phase_jumps(self):
        phases = [0.2, 0.1, 6.2, 6.1, 6.0]
        profile = make_profile(np.linspace(0, 1, 5), phases)
        segments = segment_profile(profile, window_size=5)
        assert len(segments) == 2
        assert segments[0].sample_count == 2

    def test_segment_ranges(self):
        profile = make_profile(np.linspace(0, 1, 10), np.linspace(1.0, 2.0, 10))
        segments = segment_profile(profile, window_size=10)
        assert segments[0].min_phase_rad == pytest.approx(1.0)
        assert segments[0].max_phase_rad == pytest.approx(2.0)

    def test_segment_range_distance(self):
        profile = make_profile(np.linspace(0, 1, 10), np.concatenate([np.full(5, 1.0), np.full(5, 3.0)]))
        segments = segment_profile(profile, window_size=5)
        matrix = segment_distance_matrix(segments[:2], segments[:2])
        assert matrix.tolist() == [[0.0, pytest.approx(2.0)], [pytest.approx(2.0), 0.0]]

    def test_distance_matrix_shape(self):
        profile = make_profile(np.linspace(0, 1, 20), np.linspace(0.5, 1.5, 20))
        segments = segment_profile(profile, window_size=4)
        matrix = segment_distance_matrix(segments, segments)
        assert matrix.shape == (len(segments), len(segments))
        assert np.allclose(np.diag(matrix), 0.0)

    def test_invalid_window_size(self):
        profile = make_profile([0.0], [1.0])
        with pytest.raises(ValueError):
            segment_profile(profile, 0)

    def test_coarse_representation_means(self):
        values = np.arange(20, dtype=float)
        rep = coarse_representation("t", values, 4)
        assert rep.segment_count == 4
        assert rep.segment_means_rad[0] == pytest.approx(np.mean(values[:5]))

    def test_coarse_representation_validation(self):
        with pytest.raises(ValueError):
            coarse_representation("t", np.arange(3.0), 5)
        with pytest.raises(ValueError):
            CoarseRepresentation("t", np.arange(3.0), 4)


def segment_profile_per_sample(profile, window_size, jump_threshold_rad=0.75 * TWO_PI):
    """The historical sample-by-sample segmentation loop, kept as the oracle
    for the vectorized (boundary-walk + reduceat) implementation."""
    from repro.core.segmentation import Segment, _phase_jump_indices

    if profile.is_empty:
        return []
    phases = profile.phases_rad
    times = profile.timestamps_s
    jump_set = set(int(i) for i in _phase_jump_indices(phases, jump_threshold_rad))
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


class TestVectorizedSegmentation:
    """The vectorized segment_profile equals the per-sample loop exactly."""

    def test_randomised_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            count = int(rng.integers(1, 60))
            window = int(rng.integers(1, 9))
            times = np.sort(rng.uniform(0, 10, count))
            phases = np.mod(rng.uniform(-10, 10, count), TWO_PI)
            profile = make_profile(times, phases)
            assert segment_profile(profile, window) == segment_profile_per_sample(
                profile, window
            )

    def test_arrays_form_matches_object_form(self):
        from repro.core.segmentation import segment_profile_arrays

        rng = np.random.default_rng(8)
        times = np.sort(rng.uniform(0, 10, 45))
        phases = np.mod(rng.uniform(-10, 10, 45), TWO_PI)
        profile = make_profile(times, phases)
        segments = segment_profile(profile, 5)
        arrays = segment_profile_arrays(profile, 5)
        assert arrays.to_segments() == segments
        assert len(arrays) == len(segments)
        assert arrays[0] == segments[0]
        assert list(arrays) == segments
        mins, maxs = arrays.bounds()
        assert mins.tolist() == [s.min_phase_rad for s in segments]
        assert maxs.tolist() == [s.max_phase_rad for s in segments]
        assert arrays.durations().tolist() == [
            max(s.duration_s, 1e-6) for s in segments
        ]

    def test_empty_profile(self):
        from repro.core.segmentation import segment_profile_arrays

        profile = PhaseProfile("t", np.empty(0), np.empty(0))
        assert segment_profile(profile, 5) == []
        assert len(segment_profile_arrays(profile, 5)) == 0

    def test_slice_views_match_masked_slicing(self):
        rng = np.random.default_rng(9)
        times = np.sort(rng.uniform(0, 10, 30))
        phases = np.mod(rng.uniform(-10, 10, 30), TWO_PI)
        rssi = rng.uniform(-60, -40, 30)
        profile = PhaseProfile("t", times, phases, rssi_dbm=rssi)
        window = profile.slice_index(4, 17)
        assert window.timestamps_s.tolist() == times[4:17].tolist()
        assert window.phases_rad.tolist() == phases[4:17].tolist()
        assert window.rssi_dbm.tolist() == rssi[4:17].tolist()
        by_time = profile.slice_time(times[4], times[16])
        assert by_time.timestamps_s.tolist() == times[4:17].tolist()
        # Out-of-range windows clamp exactly like the mask filter did.
        assert len(profile.slice_time(11.0, 12.0)) == 0
        assert len(profile.slice_index(0, len(profile))) == 30


class TestDTW:
    def test_identical_sequences_zero_cost(self):
        seq = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
        result = subsequence_dtw(seq, seq)
        assert result.cost == pytest.approx(0.0)
        assert result.path[0] == (0, 0)
        assert result.path[-1] == (4, 4)

    def test_warping_absorbs_stretch(self):
        reference = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
        stretched = np.repeat(reference, 3)
        result = subsequence_dtw(reference, stretched)
        assert result.cost == pytest.approx(0.0)

    def test_path_monotone(self):
        rng = np.random.default_rng(0)
        result = subsequence_dtw(rng.random(20), rng.random(30))
        rs = [r for r, _ in result.path]
        qs = [q for _, q in result.path]
        assert rs == sorted(rs)
        assert qs == sorted(qs)

    def test_subsequence_finds_embedded_pattern(self):
        pattern = np.array([3.0, 1.0, 3.0])
        query = np.concatenate([np.full(10, 5.0), pattern, np.full(10, 5.0)])
        result = subsequence_dtw(pattern, query)
        assert 9 <= result.query_start <= 11
        assert 11 <= result.query_end <= 13

    def test_query_indices_for_reference_range(self):
        reference = np.array([0.0, 1.0, 2.0, 3.0])
        query = np.array([0.0, 1.0, 2.0, 3.0])
        result = subsequence_dtw(reference, query)
        assert result.query_indices_for_reference_range(1, 2) == (1, 2)
        with pytest.raises(ValueError):
            result.query_indices_for_reference_range(10, 12)

    def test_empty_sequences_rejected(self):
        with pytest.raises(ValueError):
            subsequence_dtw(np.array([]), np.array([1.0]))
        with pytest.raises(ValueError):
            subsequence_dtw(np.array([1.0]), np.array([]))

    def test_segmented_dtw_prefers_matching_shape(self):
        times = np.linspace(0, 2, 100)
        v_shape = np.abs(times - 1.0) * 3.0 + 0.5
        profile = make_profile(times, np.minimum(v_shape, 6.2))
        segments = segment_profile(profile, 5)
        result = segmented_dtw_align(segments, segments)
        assert result.cost == pytest.approx(0.0)

    def test_segmented_dtw_requires_segments(self):
        with pytest.raises(ValueError):
            segmented_dtw_align([], [])
