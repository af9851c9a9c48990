"""Preset channel configurations and a standard sweep-scene builder.

Absolute accuracy numbers in the paper depend on channel conditions we cannot
know exactly (multipath richness of a particular library aisle or baggage
tunnel).  These presets pin a default noise/multipath/dropout configuration
chosen so the *shape* of the paper's results is reproduced; every experiment
in :mod:`repro.evaluation.experiments` builds its scenes through this module
so that the calibration lives in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..motion.scenarios import antenna_moving_scenario, tag_moving_scenario
from ..motion.speed_profiles import ConstantSpeedProfile, jittered_speed_profile
from ..motion.trajectory import LinearTrajectory
from ..rf.antenna import DirectionalAntenna, ReadingZone
from ..rf.channel import BackscatterChannel
from ..rf.geometry import Point3D
from ..rf.multipath import MultipathChannel, typical_indoor_reflectors
from ..rf.noise import NoiseModel
from ..rfid.aloha import FrameSlottedAloha
from ..rfid.reader import ReaderConfig
from ..rfid.tag import TagCollection
from .scene import Scene

DEFAULT_STANDOFF_M = 0.30
"""Antenna-to-tag-plane distance (the 30 cm librarian-to-shelf gap, §4.2)."""

DEFAULT_ANTENNA_CLEARANCE_M = 0.15
"""How far below the lowest tag the antenna trajectory runs (§4.2)."""

DEFAULT_SWEEP_MARGIN_M = 0.30
"""Extra trajectory length beyond the outermost tags on each side."""

DEFAULT_ANTENNA_SPEED_MPS = 0.30
"""Sweep speed used in the micro-benchmarks (§4.3)."""

DEFAULT_NOISE = NoiseModel(
    phase_noise_std_rad=0.25,
    rssi_noise_std_db=2.0,
    random_dropout_probability=0.10,
    fade_dropout_threshold_db=-10.0,
)
"""Calibrated measurement-noise preset (see DESIGN.md, calibration note)."""

DEFAULT_REFLECTOR_COUNT = 6
"""Number of static reflectors in the default indoor multipath preset."""


def indoor_channel(
    tag_positions: "list[Point3D]",
    seed: int | None = None,
    noise: NoiseModel = DEFAULT_NOISE,
    reflector_count: int = DEFAULT_REFLECTOR_COUNT,
    channel_index: int = 6,
) -> BackscatterChannel:
    """A channel with indoor multipath scattered around the tag region.

    Tag-to-tag coupling is not part of the channel: the reader models it per
    read (``ReaderConfig.tag_coupling_coefficient``), which also holds when
    the tags move.
    """
    if not tag_positions:
        raise ValueError("at least one tag position is required")
    rng = np.random.default_rng(seed)
    coords = np.array([p.as_array() for p in tag_positions])
    region_min = Point3D(*coords.min(axis=0))
    region_max = Point3D(*coords.max(axis=0))
    reflectors = typical_indoor_reflectors(
        region_min, region_max, count=reflector_count, rng=rng
    )
    return BackscatterChannel(
        channel_index=channel_index,
        multipath=MultipathChannel(reflectors=reflectors),
        noise=noise,
    )


@dataclass(frozen=True, slots=True)
class SweepGeometry:
    """Geometry of a standard sweep over a planar tag arrangement.

    Tags live in the z=0 plane with coordinates (x, y); the antenna moves
    parallel to the X axis at ``y = min(tag y) - clearance`` and
    ``z = standoff``, pointed at the tag plane.  This matches the paper's
    deployment guidance (Section 4.2): put the antenna below all tags so that
    every tag has a distinct distance to the trajectory.
    """

    standoff_m: float = DEFAULT_STANDOFF_M
    antenna_clearance_m: float = DEFAULT_ANTENNA_CLEARANCE_M
    sweep_margin_m: float = DEFAULT_SWEEP_MARGIN_M

    def __post_init__(self) -> None:
        if self.standoff_m <= 0:
            raise ValueError("standoff must be positive")
        if self.sweep_margin_m < 0:
            raise ValueError("sweep margin must be non-negative")

    def trajectory_endpoints(self, tags: TagCollection) -> tuple[Point3D, Point3D]:
        """Start and end of the antenna trajectory for this tag population."""
        xs = [tag.position.x for tag in tags]
        ys = [tag.position.y for tag in tags]
        antenna_y = min(ys) - self.antenna_clearance_m
        start = Point3D(min(xs) - self.sweep_margin_m, antenna_y, self.standoff_m)
        end = Point3D(max(xs) + self.sweep_margin_m, antenna_y, self.standoff_m)
        return start, end


def standard_reader_config(
    tags: TagCollection,
    seed: int | None = None,
    noise: NoiseModel = DEFAULT_NOISE,
    reflector_count: int = DEFAULT_REFLECTOR_COUNT,
    max_range_m: float = 3.0,
) -> ReaderConfig:
    """Reader configuration with the indoor channel preset for ``tags``."""
    antenna = DirectionalAntenna(gain_dbi=6.0, beamwidth_deg=70.0, boresight=(0.0, 0.0, -1.0))
    channel = indoor_channel(
        [tag.position for tag in tags],
        seed=seed,
        noise=noise,
        reflector_count=reflector_count,
    )
    # The channel's antenna pattern and the reading zone share the antenna.
    channel = BackscatterChannel(
        channel_index=channel.channel_index,
        antenna=antenna,
        link_budget=channel.link_budget,
        multipath=channel.multipath,
        noise=channel.noise,
        device_offsets=channel.device_offsets,
        quantise=channel.quantise,
    )
    reading_zone = ReadingZone(max_range_m=max_range_m, antenna=antenna, beam_limited=True)
    return ReaderConfig(channel=channel, reading_zone=reading_zone)


def standard_antenna_moving_scene(
    tags: TagCollection,
    speed_mps: float = DEFAULT_ANTENNA_SPEED_MPS,
    jitter_fraction: float = 0.12,
    geometry: SweepGeometry = SweepGeometry(),
    noise: NoiseModel = DEFAULT_NOISE,
    reflector_count: int = DEFAULT_REFLECTOR_COUNT,
    seed: int | None = None,
    extra_dwell_s: float = 0.0,
) -> Scene:
    """The librarian case: a hand-pushed antenna sweeps past static tags."""
    start, end = geometry.trajectory_endpoints(tags)
    path_length = start.distance_to(end)
    rng = np.random.default_rng(seed)
    if jitter_fraction > 0:
        nominal_duration = path_length / speed_mps
        profile = jittered_speed_profile(
            speed_mps, nominal_duration * 1.2, jitter_fraction=jitter_fraction, rng=rng
        )
    else:
        profile = ConstantSpeedProfile(speed_mps)
    trajectory = LinearTrajectory(start, end, speed_profile=profile)
    scenario = antenna_moving_scenario(trajectory, tags.positions(), extra_dwell_s=extra_dwell_s)
    reader_config = standard_reader_config(
        tags, seed=seed, noise=noise, reflector_count=reflector_count
    )
    return Scene(
        tags=tags,
        scenario=scenario,
        reader_config=reader_config,
        protocol=FrameSlottedAloha(),
        seed=None if seed is None else seed + 1,
        description="standard antenna-moving sweep",
    )


def standard_tag_moving_scene(
    tags: TagCollection,
    belt_speed_mps: float = DEFAULT_ANTENNA_SPEED_MPS,
    geometry: SweepGeometry = SweepGeometry(),
    noise: NoiseModel = DEFAULT_NOISE,
    reflector_count: int = DEFAULT_REFLECTOR_COUNT,
    seed: int | None = None,
) -> Scene:
    """The conveyor-belt case: static antenna, tags translate along −X.

    The antenna sits above the middle of where the tags will pass; the belt
    carries the tags in the −X direction so that, in the antenna's frame, the
    geometry matches an antenna moving in +X.
    """
    xs = [tag.position.x for tag in tags]
    ys = [tag.position.y for tag in tags]
    antenna_y = min(ys) - geometry.antenna_clearance_m
    span = (max(xs) - min(xs)) + 2.0 * geometry.sweep_margin_m
    # Place the antenna beyond the leading tag so every tag passes it.
    antenna_pos = Point3D(min(xs) - geometry.sweep_margin_m, antenna_y, geometry.standoff_m)
    duration = span / belt_speed_mps + 1.0
    scenario = tag_moving_scenario(
        antenna_position=antenna_pos,
        initial_tag_positions=tags.positions(),
        belt_direction=(-1.0, 0.0, 0.0),
        belt_speed_mps=belt_speed_mps,
        duration_s=duration,
    )
    reader_config = standard_reader_config(
        tags, seed=seed, noise=noise, reflector_count=reflector_count
    )
    return Scene(
        tags=tags,
        scenario=scenario,
        reader_config=reader_config,
        protocol=FrameSlottedAloha(),
        seed=None if seed is None else seed + 1,
        description="standard tag-moving sweep",
    )
