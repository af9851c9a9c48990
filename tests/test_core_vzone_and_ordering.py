"""Unit tests for reference profiles, fitting, V-zone detection, and ordering."""

import warnings

import numpy as np
import pytest

from repro.core.fitting import fit_vzone, fit_vzone_profile
from repro.core.localizer import STPPConfig, STPPLocalizer
from repro.core.ordering_x import order_tags_x
from repro.core.ordering_y import (
    YOrderingConfig,
    build_representations,
    order_tags_y,
    signed_gap,
)
from repro.core.phase_profile import PhaseProfile
from repro.core.reference import canonical_reference, reference_profile
from repro.core.fitting import QuadraticFit
from repro.core.segmentation import coarse_representation
from repro.core.vzone import VZone, VZoneDetector
from repro.rf.constants import TWO_PI, channel_wavelength_m


def synthetic_profile(bottom_time, perpendicular_distance, speed=0.3, duration=4.0, tag_id="t", noise=0.0, seed=0):
    """Clean synthetic V profile with known geometry."""
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, duration, int(duration * 100))
    wavelength = channel_wavelength_m(6)
    distance = np.sqrt((speed * (times - bottom_time)) ** 2 + perpendicular_distance**2)
    phases = 4 * np.pi * distance / wavelength
    if noise:
        phases = phases + rng.normal(0, noise, phases.shape)
    return PhaseProfile(tag_id=tag_id, timestamps_s=times, phases_rad=np.mod(phases, TWO_PI))


class TestReferenceProfiles:
    def test_vzone_bottom_at_perpendicular_time(self):
        ref = reference_profile(1.5, 1.0, 0.0, 3.0, speed_mps=0.1)
        assert ref.perpendicular_time_s == pytest.approx(15.0)
        vzone = ref.vzone_profile
        assert vzone.start_time_s <= ref.perpendicular_time_s <= vzone.end_time_s

    def test_bottom_separation_grows_with_spacing(self):
        ref_a = reference_profile(1.45, 1.0, 0.0, 3.0)
        ref_b5 = reference_profile(1.50, 1.0, 0.0, 3.0)
        ref_b10 = reference_profile(1.55, 1.0, 0.0, 3.0)
        gap5 = ref_b5.perpendicular_time_s - ref_a.perpendicular_time_s
        gap10 = ref_b10.perpendicular_time_s - ref_a.perpendicular_time_s
        assert gap10 > gap5 > 0

    def test_farther_tag_has_shallower_vzone(self):
        near = reference_profile(1.5, 0.5, 0.0, 3.0)
        far = reference_profile(1.5, 1.0, 0.0, 3.0)
        fit_near = fit_vzone_profile(near.vzone_profile)
        fit_far = fit_vzone_profile(far.vzone_profile)
        assert fit_near.curvature > fit_far.curvature > 0

    def test_canonical_reference_periods(self):
        ref = canonical_reference(periods=4)
        # The unwrapped phase rises periods/2 full turns on each side of the
        # bottom, so the profile shows ~4 partial/complete periods in total.
        unwrapped = np.unwrap(ref.profile.phases_rad)
        span = unwrapped.max() - unwrapped.min()
        assert 1.8 * TWO_PI < span < 2.3 * TWO_PI
        jumps = np.sum(np.abs(np.diff(ref.profile.phases_rad)) > 0.75 * TWO_PI)
        assert 3 <= jumps + 1 <= 5

    def test_canonical_reference_bottom_phase_pinned(self):
        ref = canonical_reference(bottom_phase_rad=0.5)
        vzone = ref.vzone_profile
        assert float(np.min(vzone.phases_rad)) == pytest.approx(0.5, abs=0.05)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            reference_profile(0.5, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            canonical_reference(periods=0)


class TestQuadraticFitting:
    def test_recovers_bottom_time(self):
        profile = synthetic_profile(2.0, 0.35)
        vzone = profile.slice_time(1.3, 2.7)
        fit = fit_vzone(vzone.timestamps_s, vzone.phases_rad)
        assert fit.valid
        assert fit.bottom_time_s == pytest.approx(2.0, abs=0.05)

    def test_handles_wraparound_at_nadir(self):
        # Shift phases so the nadir dips through 0 and wraps to ~2*pi.
        profile = synthetic_profile(2.0, 0.35)
        shifted = np.mod(profile.phases_rad - float(profile.phases_rad.min()) - 0.1, TWO_PI)
        wrapped = PhaseProfile("t", profile.timestamps_s, shifted)
        vzone = wrapped.slice_time(1.5, 2.5)
        fit = fit_vzone(vzone.timestamps_s, vzone.phases_rad)
        assert fit.valid
        assert fit.bottom_time_s == pytest.approx(2.0, abs=0.08)

    def test_curvature_larger_for_closer_tag(self):
        near = synthetic_profile(2.0, 0.33)
        far = synthetic_profile(2.0, 0.45)
        fit_near = fit_vzone(*_window(near))
        fit_far = fit_vzone(*_window(far))
        assert fit_near.curvature > fit_far.curvature

    def test_too_few_samples_invalid(self):
        fit = fit_vzone(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        assert not fit.valid

    def test_fit_without_time_span_is_invalid(self):
        # Regression: twelve reads at one timestamp made polyfit's SVD fail
        # (LinAlgError) instead of yielding an invalid fit.
        fit = fit_vzone(np.zeros(12), np.linspace(1.0, 2.0, 12))
        assert not fit.valid
        assert fit.bottom_time_s == 0.0
        assert fit.bottom_phase_rad == 1.0

    def test_two_timestamps_are_rank_deficient_without_warning(self):
        # Six reads at only two instants admit many parabolas; polyfit used
        # to warn (RankWarning) and return one of them.
        times = np.array([1.0, 1.0, 1.0, 1.5, 1.5, 1.5])
        phases = np.array([2.0, 1.0, 3.0, 0.5, 2.5, 4.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_vzone(times, phases)
        assert not fit.valid
        assert fit.failure == "rank_deficient"
        assert fit.bottom_time_s == 1.5
        assert fit.bottom_phase_rad == 0.5
        assert fit.curvature == 0.0
        assert fit.residual_rms_rad == float("inf")

    def test_valid_fit_has_no_failure(self):
        fit = fit_vzone(*_window(synthetic_profile(2.0, 0.35)))
        assert fit.valid and fit.failure is None

    def test_failure_too_few_samples(self):
        fit = fit_vzone(np.array([0.0, 0.1, 0.2, 0.3]), np.array([1.0, 0.5, 0.4, 0.6]))
        assert fit.failure == "too_few_samples"
        assert fit.bottom_time_s == 0.2

    def test_failure_rank_deficient(self):
        fit = fit_vzone(np.zeros(12), np.linspace(1.0, 2.0, 12))
        assert fit.failure == "rank_deficient"

    def test_failure_curvature_not_positive(self):
        times = np.linspace(0.0, 1.0, 20)
        fit = fit_vzone(times, 3.0 - (times - 0.5) ** 2)
        assert fit.failure == "curvature_not_positive"
        assert fit.curvature < 0
        assert fit.bottom_time_s == 0.0  # the lowest sample

    def test_failure_bottom_outside_window(self):
        times = np.linspace(0.0, 1.0, 20)
        fit = fit_vzone(times, 0.5 + (times - 2.0) ** 2)
        assert fit.failure == "bottom_outside_window"
        assert fit.curvature == pytest.approx(1.0)
        assert fit.bottom_time_s == 1.0  # clamped to the window
        assert fit.bottom_phase_rad == pytest.approx(0.5)

    def test_empty_input(self):
        fit = fit_vzone(np.array([]), np.array([]))
        assert not fit.valid
        assert fit.sample_count == 0

    def test_monotone_data_marked_invalid_or_clamped(self):
        times = np.linspace(0, 1, 50)
        phases = np.linspace(0.5, 2.5, 50)
        fit = fit_vzone(times, phases)
        assert (not fit.valid) or (times[0] <= fit.bottom_time_s <= times[-1])


def _window(profile, halfwidth=0.7, centre=2.0):
    window = profile.slice_time(centre - halfwidth, centre + halfwidth)
    return window.timestamps_s, window.phases_rad


class TestVZoneDetection:
    @pytest.mark.parametrize("method", ["segmented_dtw", "full_dtw", "longest_run"])
    def test_detects_bottom_on_clean_profile(self, method):
        profile = synthetic_profile(2.0, 0.35)
        detector = VZoneDetector(method=method)
        vzone = detector.detect(profile)
        assert vzone is not None
        assert vzone.bottom_time_s == pytest.approx(2.0, abs=0.15)

    def test_detects_bottom_with_noise(self):
        # 0.1 rad is the phase jitter a COTS reader exhibits (DESIGN.md).
        profile = synthetic_profile(2.0, 0.35, noise=0.1, seed=3)
        vzone = VZoneDetector().detect(profile)
        assert vzone is not None
        assert vzone.bottom_time_s == pytest.approx(2.0, abs=0.2)

    def test_short_profile_rejected(self):
        profile = synthetic_profile(2.0, 0.35).slice_index(0, 5)
        assert VZoneDetector().detect(profile) is None

    def test_detect_all_skips_unusable(self):
        good = synthetic_profile(2.0, 0.35, tag_id="good")
        bad = good.slice_index(0, 4)
        bad = PhaseProfile("bad", bad.timestamps_s, bad.phases_rad)
        detections = VZoneDetector().detect_all({"good": good, "bad": bad})
        assert "good" in detections
        assert "bad" not in detections

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            VZoneDetector(method="nonsense")


def _vzone_with_fit(valid: bool, tag_id: str = "t", residual: float = 0.1) -> VZone:
    """A minimal VZone whose fit validity drives _better_of selection."""
    fit = QuadraticFit(
        curvature=5.0,
        bottom_time_s=2.0,
        bottom_phase_rad=0.5,
        residual_rms_rad=residual,
        sample_count=30,
        failure=None if valid else "curvature_not_positive",
    )
    return VZone(
        tag_id=tag_id,
        start_index=10,
        end_index=40,
        start_time_s=1.5,
        end_time_s=2.5,
        fit=fit,
        method="segmented_dtw",
    )


class TestBetterOf:
    """Fallback selection between the primary detection and longest-run."""

    def test_missing_primary_falls_back(self):
        secondary = _vzone_with_fit(valid=True)
        assert VZoneDetector._better_of(None, secondary) is secondary

    def test_missing_secondary_keeps_primary(self):
        primary = _vzone_with_fit(valid=False)
        assert VZoneDetector._better_of(primary, None) is primary

    def test_both_missing(self):
        assert VZoneDetector._better_of(None, None) is None

    def test_invalid_primary_loses_to_valid_fallback(self):
        primary = _vzone_with_fit(valid=False)
        secondary = _vzone_with_fit(valid=True)
        assert VZoneDetector._better_of(primary, secondary) is secondary

    def test_valid_primary_beats_valid_fallback(self):
        # Residuals are NOT compared across windows of different widths: a
        # valid primary wins even when the fallback fits more tightly.
        primary = _vzone_with_fit(valid=True, residual=0.5)
        secondary = _vzone_with_fit(valid=True, residual=0.01)
        assert VZoneDetector._better_of(primary, secondary) is primary

    def test_both_invalid_keeps_primary(self):
        primary = _vzone_with_fit(valid=False)
        secondary = _vzone_with_fit(valid=False)
        assert VZoneDetector._better_of(primary, secondary) is primary

    def test_detect_applies_fallback_on_degenerate_primary(self):
        # End-to-end: with fallback enabled, detection on a clean V never
        # returns an invalid fit when the longest-run fallback finds a valid
        # one — the selection rule above is what detect() relies on.
        profile = synthetic_profile(2.0, 0.35)
        vzone = VZoneDetector(method="segmented_dtw", fallback_to_longest_run=True).detect(profile)
        assert vzone is not None
        assert vzone.fit.valid


class TestOrderingX:
    def test_orders_by_bottom_time(self):
        profiles = {f"t{i}": synthetic_profile(1.0 + 0.4 * i, 0.35, tag_id=f"t{i}") for i in range(4)}
        vzones = VZoneDetector().detect_all(profiles)
        ordering = order_tags_x(vzones, all_tag_ids=list(profiles))
        assert list(ordering.ordered_ids) == [f"t{i}" for i in range(4)]
        assert ordering.unordered_ids == ()

    def test_gap_grows_with_spacing(self):
        profiles = {
            "a": synthetic_profile(1.0, 0.35, tag_id="a"),
            "b": synthetic_profile(1.3, 0.35, tag_id="b"),
            "c": synthetic_profile(2.0, 0.35, tag_id="c"),
        }
        ordering = order_tags_x(VZoneDetector().detect_all(profiles), all_tag_ids=list(profiles))
        bottoms = ordering.scores
        assert bottoms["c"] - bottoms["b"] > bottoms["b"] - bottoms["a"]

    def test_missing_tags_reported(self):
        profiles = {"a": synthetic_profile(1.0, 0.35, tag_id="a")}
        vzones = VZoneDetector().detect_all(profiles)
        ordering = order_tags_x(vzones, all_tag_ids=["a", "ghost"])
        assert "ghost" in ordering.unordered_ids
        assert "ghost" not in ordering.ordered_ids


class TestOrderingY:
    def _profiles_and_vzones(self, distances):
        profiles = {
            f"t{i}": synthetic_profile(2.0, d, tag_id=f"t{i}")
            for i, d in enumerate(distances)
        }
        vzones = VZoneDetector().detect_all(profiles)
        return profiles, vzones

    def test_orders_by_distance_from_trajectory(self):
        distances = [0.33, 0.40, 0.48, 0.57]
        profiles, vzones = self._profiles_and_vzones(distances)
        ordering = order_tags_y(profiles, vzones, all_tag_ids=list(profiles))
        assert list(ordering.ordered_ids) == [f"t{i}" for i in range(4)]

    def test_curvature_mode_agrees_on_clean_data(self):
        distances = [0.33, 0.45, 0.60]
        profiles, vzones = self._profiles_and_vzones(distances)
        ordering = order_tags_y(
            profiles, vzones, config=YOrderingConfig(value_mode="curvature"),
            all_tag_ids=list(profiles),
        )
        assert list(ordering.ordered_ids) == ["t0", "t1", "t2"]

    def test_metrics_definitions(self):
        p = coarse_representation("p", np.array([4.0, 3.0, 2.0, 1.0]), 4)
        q = coarse_representation("q", np.array([2.0, 1.5, 1.0, 0.5]), 4)
        assert signed_gap(p, q) == pytest.approx(5.0)

    def test_all_pairs_comparison_matches_pivot_on_clean_data(self):
        distances = [0.33, 0.42, 0.52]
        profiles, vzones = self._profiles_and_vzones(distances)
        pivot_order = order_tags_y(profiles, vzones, config=YOrderingConfig(comparison="pivot"))
        all_pairs_order = order_tags_y(profiles, vzones, config=YOrderingConfig(comparison="all_pairs"))
        assert pivot_order.ordered_ids == all_pairs_order.ordered_ids

    def test_pivot_scores_are_gaps_to_the_pivot(self):
        distances = [0.33, 0.42, 0.52]
        profiles, vzones = self._profiles_and_vzones(distances)
        by_pivot = {
            pivot: order_tags_y(profiles, vzones, pivot_tag_id=pivot).scores
            for pivot in ("t0", "t2", "missing")
        }
        assert by_pivot["t2"]["t2"] == 0.0
        # Gaps to another pivot shift every score alike; the order holds.
        shift = by_pivot["t2"]["t0"] - by_pivot["t0"]["t0"]
        for tag_id in profiles:
            assert by_pivot["t2"][tag_id] - by_pivot["t0"][tag_id] == pytest.approx(shift)
        # An unknown pivot falls back to the first tag.
        assert by_pivot["missing"] == by_pivot["t0"]

    def test_build_representations_segment_count(self):
        distances = [0.35, 0.45]
        profiles, vzones = self._profiles_and_vzones(distances)
        reps = build_representations(profiles, vzones, YOrderingConfig(segment_count=8))
        assert all(rep.segment_count == 8 for rep in reps.values())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            YOrderingConfig(segment_count=1)
        with pytest.raises(ValueError):
            YOrderingConfig(value_mode="bogus")
        with pytest.raises(ValueError):
            YOrderingConfig(comparison="bogus")


class TestLocalizer:
    def test_localize_synthetic_grid(self):
        profiles = {}
        for ix in range(3):
            for iy in range(2):
                tag_id = f"t{ix}{iy}"
                profiles[tag_id] = synthetic_profile(
                    1.0 + 0.5 * ix, 0.35 + 0.1 * iy, tag_id=tag_id
                )
        localizer = STPPLocalizer(STPPConfig())
        result = localizer.localize(profiles)
        x_ranks = {tid: result.x_ordering.ordered_ids.index(tid) for tid in profiles}
        assert x_ranks["t00"] < x_ranks["t10"] < x_ranks["t20"]
        y_ranks = {tid: result.y_ordering.ordered_ids.index(tid) for tid in profiles}
        assert y_ranks["t00"] < y_ranks["t01"]

    def test_expected_ids_filtering(self):
        profiles = {
            "keep": synthetic_profile(1.5, 0.35, tag_id="keep"),
            "ignore": synthetic_profile(2.5, 0.35, tag_id="ignore"),
        }
        result = STPPLocalizer().localize(profiles, expected_tag_ids=["keep"])
        assert "ignore" not in result.x_ordering.ordered_ids

    def test_config_validation(self):
        with pytest.raises(ValueError):
            STPPConfig(detection_method="bogus")
        with pytest.raises(ValueError):
            STPPConfig(window_size=0)

    def test_relative_position_roundtrip(self):
        profiles = {
            "a": synthetic_profile(1.0, 0.35, tag_id="a"),
            "b": synthetic_profile(2.0, 0.45, tag_id="b"),
        }
        result = STPPLocalizer().localize(profiles)
        for rank, tag_id in enumerate("ab"):
            assert result.x_ordering.ordered_ids.index(tag_id) == rank
            assert result.y_ordering.ordered_ids.index(tag_id) == rank
        assert len(result.x_ordering.ordered_ids) == 2
