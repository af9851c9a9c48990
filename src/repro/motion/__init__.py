"""Mobility substrate: speed profiles, trajectories, and sweep scenarios."""

from .scenarios import (
    BeltTagPositions,
    ConstantVelocityTagPositions,
    StaticAntennaPosition,
    StaticTagPositions,
    SweepScenario,
    TrajectoryAntennaPosition,
    antenna_moving_scenario,
    tag_moving_scenario,
)
from .speed_profiles import (
    DEFAULT_BELT_SPEED_MPS,
    ConstantSpeedProfile,
    PiecewiseSpeedProfile,
    SpeedProfile,
    jittered_speed_profile,
)
from .trajectory import LinearTrajectory

__all__ = [
    "BeltTagPositions",
    "ConstantSpeedProfile",
    "DEFAULT_BELT_SPEED_MPS",
    "ConstantVelocityTagPositions",
    "LinearTrajectory",
    "PiecewiseSpeedProfile",
    "SpeedProfile",
    "StaticAntennaPosition",
    "StaticTagPositions",
    "SweepScenario",
    "TrajectoryAntennaPosition",
    "antenna_moving_scenario",
    "jittered_speed_profile",
    "tag_moving_scenario",
]
