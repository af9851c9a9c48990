"""RF physics substrate: phase model, link budget, multipath, noise, antenna.

This subpackage replaces the physical ImpinJ reader/antenna/tag hardware used
in the paper with a simulated backscatter channel that exposes the same
observables a COTS reader exposes: per-read phase (Eq. 1), RSSI, and read
success/failure.
"""

from .antenna import DirectionalAntenna, ReadingZone
from .channel import BackscatterChannel, BatchObservation
from .constants import (
    DEFAULT_CHANNEL_INDEX,
    SPEED_OF_LIGHT,
    TWO_PI,
    channel_frequency_hz,
    channel_wavelength_m,
    wavelength_m,
)
from .geometry import (
    Point3D,
    euclidean_distances,
)
from .multipath import MultipathChannel, Reflector, typical_indoor_reflectors
from .noise import NOISELESS, NoiseModel
from .phase_model import (
    DeviceOffsets,
    quantise_phase,
    round_trip_phase,
    wrap_phase,
)
from .propagation import (
    LinkBudget,
    free_space_path_loss_db,
)

__all__ = [
    "BackscatterChannel",
    "BatchObservation",
    "DEFAULT_CHANNEL_INDEX",
    "DeviceOffsets",
    "DirectionalAntenna",
    "LinkBudget",
    "MultipathChannel",
    "NOISELESS",
    "NoiseModel",
    "Point3D",
    "ReadingZone",
    "Reflector",
    "SPEED_OF_LIGHT",
    "TWO_PI",
    "channel_frequency_hz",
    "channel_wavelength_m",
    "euclidean_distances",
    "free_space_path_loss_db",
    "quantise_phase",
    "round_trip_phase",
    "typical_indoor_reflectors",
    "wavelength_m",
    "wrap_phase",
]
