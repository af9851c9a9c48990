"""Unit tests for the motion substrate and the scene/collector glue."""

import numpy as np
import pytest

from repro.motion.scenarios import antenna_moving_scenario
from repro.motion.speed_profiles import (
    ConstantSpeedProfile,
    PiecewiseSpeedProfile,
    jittered_speed_profile,
)
from repro.core.phase_profile import PhaseProfile, profiles_from_grouped_columns
from repro.motion.trajectory import LinearTrajectory
from repro.rf.constants import TWO_PI
from repro.rf.geometry import Point3D, as_position_array
from repro.rfid.reading import ReadLog, TagRead
from repro.rfid.tag import make_tags
from repro.simulation.collector import collect_sweep, profiles_from_read_log
from repro.simulation.presets import (
    SweepGeometry,
    indoor_channel,
    standard_antenna_moving_scene,
    standard_tag_moving_scene,
)
from repro.simulation.scene import Scene

from oracles.positions import ConstantVelocityTagPositions


class TestSpeedProfiles:
    def test_constant_profile(self):
        profile = ConstantSpeedProfile(0.5)
        assert profile.distance_at(2.0) == pytest.approx(1.0)
        assert profile.time_to_cover(1.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            ConstantSpeedProfile(0.0)

    def test_piecewise_profile_integrates(self):
        profile = PiecewiseSpeedProfile([(1.0, 0.1), (1.0, 0.3)])
        assert profile.distance_at(1.0) == pytest.approx(0.1)
        assert profile.distance_at(2.0) == pytest.approx(0.4)
        # beyond definition: continues at the last speed
        assert profile.distance_at(3.0) == pytest.approx(0.7)

    def test_piecewise_time_to_cover_inverse(self):
        profile = PiecewiseSpeedProfile([(1.0, 0.1), (2.0, 0.2)])
        for distance in (0.05, 0.1, 0.3, 0.6):
            assert profile.distance_at(profile.time_to_cover(distance)) == pytest.approx(distance)

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            PiecewiseSpeedProfile([])
        with pytest.raises(ValueError):
            PiecewiseSpeedProfile([(1.0, 0.0)])

    def test_jittered_profile_monotone_distance(self):
        profile = jittered_speed_profile(0.3, 10.0, rng=np.random.default_rng(0))
        times = np.linspace(0, 10, 50)
        distances = [profile.distance_at(t) for t in times]
        assert all(b >= a for a, b in zip(distances, distances[1:]))

    def test_jittered_profile_bounded_speeds(self):
        profile = jittered_speed_profile(0.3, 5.0, jitter_fraction=0.3, rng=np.random.default_rng(1))
        for _, speed in profile.segments:
            assert 0.3 * 0.3 <= speed <= 2.0 * 0.3


class TestTrajectories:
    def test_linear_trajectory_endpoints(self):
        trajectory = LinearTrajectory(Point3D(0, 0, 0), Point3D(1, 0, 0), ConstantSpeedProfile(0.5))
        assert trajectory.duration_s == pytest.approx(2.0)
        assert trajectory.position(0.0) == Point3D(0, 0, 0)
        assert trajectory.position(10.0) == Point3D(1, 0, 0)
        assert trajectory.position(1.0).x == pytest.approx(0.5)

    def test_linear_trajectory_progress(self):
        # At constant speed the fraction of the path covered grows linearly
        # with time, and the scalar, row and vectorized forms agree.
        trajectory = LinearTrajectory(Point3D(0, 0, 0), Point3D(2, 0, 0), ConstantSpeedProfile(0.4))
        times = [0.0, trajectory.duration_s / 4, trajectory.duration_s / 2]
        rows = trajectory.positions_at(times)
        for t, row, x in zip(times, rows, (0.0, 0.5, 1.0)):
            assert trajectory.position(t).x == pytest.approx(x)
            assert (trajectory.position_row(t) == row).all()

    def test_degenerate_trajectory_rejected(self):
        with pytest.raises(ValueError):
            LinearTrajectory(Point3D(0, 0, 0), Point3D(0, 0, 0))


class TestScenarios:
    def test_antenna_moving_scenario_static_tags(self):
        trajectory = LinearTrajectory(Point3D(0, 0, 0.3), Point3D(1, 0, 0.3), ConstantSpeedProfile(0.5))
        scenario = antenna_moving_scenario(trajectory, ["t"], np.array([[0.5, 0.1, 0.0]]))
        assert scenario.tag_position("t", 0.0) == scenario.tag_position("t", 1.0)
        assert scenario.antenna_position(0.0) != scenario.antenna_position(1.0)

    def test_tag_moving_scene_preserves_relative_geometry(self):
        positions = {"a": Point3D(0, 0, 0), "b": Point3D(0.1, 0.05, 0)}
        for jitter in (0.0, 0.2):
            tags = make_tags(as_position_array(list(positions.values())), seed=0)
            scenario = standard_tag_moving_scene(
                tags, belt_speed_mps=0.3, jitter_fraction=jitter, seed=5
            ).scenario
            a_id, b_id = tags.ids()
            for t in (0.0, 1.0, 3.0):
                a = scenario.tag_position(a_id, t)
                b = scenario.tag_position(b_id, t)
                assert a.distance_to(b) == pytest.approx(positions["a"].distance_to(positions["b"]))

    def test_equivalence_of_moving_cases(self):
        # The antenna-to-tag distance over time must be identical whether we
        # describe the sweep as antenna-moving or tag-moving (paper §1.3).
        positions = {"a": Point3D(0.4, 0.1, 0.0)}
        tags = make_tags(np.array([[0.4, 0.1, 0.0]]), seed=0)
        (tag_id,) = tags.ids()
        scenario = standard_tag_moving_scene(tags, belt_speed_mps=0.3, seed=5).scenario
        for t in np.linspace(0, 5, 11):
            antenna = scenario.antenna_position(t)
            tag = scenario.tag_position(tag_id, t)
            direct = antenna.distance_to(tag)
            # The antenna in the tags' moving frame, anchored at the tag's
            # initial position.
            relative = Point3D(
                antenna.x - (tag.x - positions["a"].x),
                antenna.y - (tag.y - positions["a"].y),
                antenna.z - (tag.z - positions["a"].z),
            )
            assert direct == pytest.approx(relative.distance_to(positions["a"]), abs=1e-9)

    def test_constant_belt_matches_a_constant_velocity_along_minus_x(self):
        # The belt at constant speed s gives the same bits as every tag
        # translating at velocity (-s, 0, 0).
        tags = make_tags(np.array([[0.0, 0.1, 0.0], [0.25, -0.05, 0.02]]), seed=0)
        belt = standard_tag_moving_scene(tags, belt_speed_mps=0.35, seed=5).scenario
        plain = ConstantVelocityTagPositions(
            tags.tag_ids, tags.position_array, (-0.35, 0.0, 0.0)
        )
        times = np.linspace(0.0, belt.duration_s, 17)
        rows = np.array([0, 1] * 8 + [1])
        assert np.array_equal(
            belt.tag_position.positions_at(times), plain.positions_at(times)
        )
        assert np.array_equal(
            belt.tag_position.positions_paired(rows, times),
            plain.positions_paired(rows, times),
        )
        for tag_id in tags.ids():
            for t in times.tolist():
                assert belt.tag_position(tag_id, t) == plain(tag_id, t)

    def test_invalid_parameters(self):
        tags = make_tags(np.zeros((1, 3)), seed=0)
        # A belt that does not move, and one that runs backwards.
        with pytest.raises(ValueError, match="speed"):
            standard_tag_moving_scene(tags, belt_speed_mps=0.0)
        with pytest.raises(ValueError, match="speed"):
            standard_tag_moving_scene(tags, belt_speed_mps=-0.3)


class TestPresetMotionValidation:
    """Both presets reject a non-positive speed and a jitter outside [0, 1)."""

    @pytest.fixture
    def tags(self):
        return make_tags(np.array([[0.0, 0.0, 0.0], [0.1, 0.05, 0.0]]), seed=0)

    @pytest.mark.parametrize("speed", [0.0, -0.3, float("nan")])
    def test_non_positive_speed(self, tags, speed):
        with pytest.raises(ValueError, match="speed must be positive"):
            standard_antenna_moving_scene(tags, speed_mps=speed, seed=1)
        with pytest.raises(ValueError, match="speed must be positive"):
            standard_tag_moving_scene(tags, belt_speed_mps=speed, seed=1)

    @pytest.mark.parametrize("jitter", [-0.1, 1.0, 1.5, float("nan")])
    def test_jitter_outside_unit_interval(self, tags, jitter):
        with pytest.raises(ValueError, match="jitter"):
            standard_antenna_moving_scene(tags, jitter_fraction=jitter, seed=1)
        with pytest.raises(ValueError, match="jitter"):
            standard_tag_moving_scene(tags, jitter_fraction=jitter, seed=1)

    @pytest.mark.parametrize("jitter", [0.0, 0.2])
    def test_valid_motion_builds(self, tags, jitter):
        for scene in (
            standard_antenna_moving_scene(tags, jitter_fraction=jitter, seed=1),
            standard_tag_moving_scene(tags, jitter_fraction=jitter, seed=1),
        ):
            assert scene.scenario.duration_s > 0


class TestSceneAndCollector:
    def test_scene_requires_tags(self):
        trajectory = LinearTrajectory(Point3D(0, 0, 0.3), Point3D(1, 0, 0.3), ConstantSpeedProfile(0.3))
        scenario = antenna_moving_scenario(trajectory, [], np.empty((0, 3)))
        from repro.rfid.tag import TagCollection

        with pytest.raises(ValueError):
            Scene(tags=TagCollection([]), scenario=scenario)

    def test_collect_sweep_profiles_match_read_log(self, small_row_sweep):
        _tags, scene, sweep = small_row_sweep
        rebuilt = profiles_from_read_log(sweep.read_log)
        for tag_id in sweep.profiles.tag_ids():
            assert len(rebuilt[tag_id]) == len(sweep.profiles[tag_id])

    def test_profiles_derive_channel_from_reads(self):
        # Regression: the old channel_index=6 default mislabelled profiles
        # whenever the scene's reader used a different channel; the channel is
        # now read off the log itself.
        from repro.rfid.reading import ReadLog, TagRead

        log = ReadLog([TagRead(0.1 * i, "a", 1.0, -50.0, channel_index=11) for i in range(4)])
        profiles = profiles_from_read_log(log)
        assert profiles["a"].channel_index == 11
        # An explicit override still wins.
        assert profiles_from_read_log(log, channel_index=3)["a"].channel_index == 3

    def test_profiles_reject_mixed_channel_log(self):
        from repro.rfid.reading import ReadLog, TagRead

        log = ReadLog(
            [
                TagRead(0.0, "a", 1.0, -50.0, channel_index=6),
                TagRead(0.1, "a", 1.1, -50.0, channel_index=7),
            ]
        )
        with pytest.raises(ValueError, match="multiple reader channels"):
            profiles_from_read_log(log)
        # Explicit channel resolves the ambiguity.
        assert profiles_from_read_log(log, channel_index=6)["a"].channel_index == 6

    def test_standard_scene_geometry(self):
        tags = make_tags([Point3D(0, 0, 0), Point3D(0.5, 0.1, 0)], seed=0)
        geometry = SweepGeometry()
        start, end = geometry.trajectory_endpoints(tags)
        assert start.z == pytest.approx(geometry.standoff_m)
        assert start.y < 0.0
        assert end.x > 0.5

    def test_standard_scenes_reproducible(self):
        tags = make_tags([Point3D(i * 0.1, 0, 0) for i in range(3)], seed=5)
        scene_a = standard_antenna_moving_scene(tags, seed=5)
        scene_b = standard_antenna_moving_scene(tags, seed=5)
        sweep_a = collect_sweep(scene_a)
        sweep_b = collect_sweep(scene_b)
        assert len(sweep_a.read_log) == len(sweep_b.read_log)
        first_a = sweep_a.read_log.reads[0]
        first_b = sweep_b.read_log.reads[0]
        assert first_a.phase_rad == pytest.approx(first_b.phase_rad)

    def test_tag_moving_scene_runs(self, staircase_sweep):
        tags, _scene, sweep = staircase_sweep
        assert set(sweep.read_log.tag_ids()) == set(tags.ids())

    def test_indoor_channel_requires_positions(self):
        with pytest.raises(ValueError):
            indoor_channel([])


def _assembly_log(seed: int, channel_index: int) -> ReadLog:
    """A read log that stresses profile assembly.

    Tags interleave, each tag's reads arrive out of time order with tied
    timestamps, and half the phases are edge values: below 0, exactly 0 and
    -0, at 2*pi and above, just under 2*pi, and one that wraps to 2*pi.
    """
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 80))
    tags = [f"tag-{k}" for k in range(int(rng.integers(1, 8)))]
    times = rng.choice(np.linspace(0.0, 1.0, 9), size=count)
    edges = np.array(
        [0.0, -0.0, -0.5, -1e-300, TWO_PI, np.nextafter(TWO_PI, 0.0), 7.0, 3 * TWO_PI, -TWO_PI]
    )
    phases = np.where(
        rng.random(count) < 0.5,
        rng.choice(edges, size=count),
        rng.uniform(-10.0, 20.0, size=count),
    )
    return ReadLog(
        [
            TagRead(float(t), tags[int(k)], float(p), float(r), channel_index=channel_index)
            for t, k, p, r in zip(
                times, rng.integers(0, len(tags), size=count), phases, rng.normal(-55, 5, count)
            )
        ]
    )


def from_reads(
    tag_id: str, reads: list[TagRead], channel_index: int
) -> PhaseProfile:
    """One tag's profile built read by read: stable time sort, phases wrapped."""
    timestamps = np.array([read.timestamp_s for read in reads])
    order = np.argsort(timestamps, kind="stable")
    phases = np.mod(np.array([read.phase_rad for read in reads]), TWO_PI)
    return PhaseProfile(
        tag_id=tag_id,
        timestamps_s=timestamps[order],
        phases_rad=phases[order],
        rssi_dbm=np.array([read.rssi_dbm for read in reads])[order],
        channel_index=channel_index,
    )


def _per_tag_from_reads(log: ReadLog, channel_index: int) -> dict[str, PhaseProfile]:
    """The reference: one :func:`from_reads` per tag, reads in log order."""
    grouped: dict[str, list[TagRead]] = {}
    for read in log.reads:
        grouped.setdefault(read.tag_id, []).append(read)
    return {
        tag_id: from_reads(tag_id, reads, channel_index)
        for tag_id, reads in grouped.items()
    }


class TestProfileAssembly:
    """``profiles_from_read_log`` equals per-tag :func:`from_reads`."""

    @pytest.mark.parametrize("explicit", [False, True], ids=["derived", "explicit"])
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_from_reads(self, seed, explicit):
        log = _assembly_log(seed, channel_index=11)
        channel_index = 3 if explicit else 11
        built = profiles_from_read_log(log, channel_index=3 if explicit else None)
        expected = _per_tag_from_reads(log, channel_index)
        assert list(built.profiles) == list(expected)
        for tag_id, reference in expected.items():
            profile = built[tag_id]
            assert profile.tag_id == tag_id
            assert profile.channel_index == channel_index
            assert profile.metadata == {}
            for field in ("timestamps_s", "phases_rad", "rssi_dbm"):
                mine, theirs = getattr(profile, field), getattr(reference, field)
                assert mine.dtype == theirs.dtype
                assert mine.tobytes() == theirs.tobytes(), field

    def test_edge_phases_present(self):
        # The generated logs do reach the wrap edges they are meant to cover.
        phases = np.concatenate(
            [_assembly_log(seed, 11).columns()["phase_rad"] for seed in range(30)]
        )
        assert np.any(phases < 0) and np.any(phases >= TWO_PI)
        assert np.any(phases == np.nextafter(TWO_PI, 0.0))
        assert np.any(np.mod(phases, TWO_PI) == TWO_PI)

    def test_grouped_columns_validated_once(self):
        # Time may step back only where the next tag's rows start.
        def build(times, phases=(1.0, 1.0, 1.0, 1.0)):
            return profiles_from_grouped_columns(
                ["a", "b"], np.array(times), np.array(phases), np.zeros(4), np.array([2, 4]), 6
            )

        a, b = build([0.1, 0.2, 0.0, 0.5])
        assert a.timestamps_s.tolist() == [0.1, 0.2] and b.timestamps_s.tolist() == [0.0, 0.5]
        with pytest.raises(ValueError, match="non-decreasing"):
            build([0.2, 0.1, 0.3, 0.5])
        with pytest.raises(ValueError, match=r"\[0, 2\*pi\)"):
            build([0.1, 0.2, 0.0, 0.5], phases=(1.0, 1.0, 7.0, 1.0))

    @pytest.mark.parametrize("channel_index", [None, 3])
    def test_empty_log(self, channel_index):
        assert len(profiles_from_read_log(ReadLog(), channel_index=channel_index)) == 0
