"""Scene simulation glue: scenes, the sweep collector, and channel presets."""

from .collector import SweepResult, collect_sweep, profiles_from_read_log
from .presets import (
    DEFAULT_ANTENNA_SPEED_MPS,
    DEFAULT_NOISE,
    DEFAULT_STANDOFF_M,
    SweepGeometry,
    indoor_channel,
    standard_antenna_moving_scene,
    standard_reader_config,
    standard_tag_moving_scene,
)
from .scene import Scene
from .streaming import StreamingCollector

__all__ = [
    "DEFAULT_ANTENNA_SPEED_MPS",
    "DEFAULT_NOISE",
    "DEFAULT_STANDOFF_M",
    "Scene",
    "SweepGeometry",
    "StreamingCollector",
    "SweepResult",
    "collect_sweep",
    "indoor_channel",
    "profiles_from_read_log",
    "standard_antenna_moving_scene",
    "standard_reader_config",
    "standard_tag_moving_scene",
]
