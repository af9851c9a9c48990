"""Reference phase profile generation (paper §2.2, Figures 3 and 4).

A *reference* phase profile is the phase sequence a tag **would** produce under
nominal conditions — known geometry, constant sweep speed, no noise, no
multipath.  STPP uses reference profiles in two ways:

* to illustrate and validate the V-zone observations (Figures 3 and 4);
* as the template that segmented DTW matches against each measured profile to
  locate the V-zone (§3.1.1).  The paper finds that measured profiles contain
  about 4 partial or complete periods and therefore uses a 4-period reference
  (§4.2); :func:`canonical_reference` reproduces that default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..rf.constants import TWO_PI, channel_wavelength_m
from ..rf.phase_model import round_trip_phase
from .phase_profile import PhaseProfile

DEFAULT_REFERENCE_SAMPLE_RATE_HZ = 120.0
"""Sample rate of generated reference profiles (close to a COTS per-tag read rate)."""

DEFAULT_REFERENCE_PERIODS = 4
"""Number of phase periods in the canonical reference profile (paper §4.2)."""


@dataclass(frozen=True)
class ReferenceProfile:
    """A reference phase profile with its known V-zone annotations."""

    profile: PhaseProfile
    perpendicular_time_s: float
    """Time at which the antenna is perpendicular to the tag (V-zone bottom)."""

    vzone_start_index: int
    """Index of the first sample inside the V-zone."""

    vzone_end_index: int
    """Index one past the last sample inside the V-zone."""

    perpendicular_distance_m: float
    """Distance between the tag and the trajectory line, metres."""

    @property
    def vzone_profile(self) -> PhaseProfile:
        """Just the V-zone part of the reference profile."""
        return self.profile.slice_index(self.vzone_start_index, self.vzone_end_index)


def _vzone_bounds_around(phases: np.ndarray, centre_index: int) -> tuple[int, int]:
    """Find the wrap-free region of ``phases`` containing ``centre_index``.

    Returns ``(start, end)`` with ``end`` exclusive: the indices between the
    0/2π jumps that bracket the centre sample.
    """
    if phases.size == 0:
        return 0, 0
    jump_threshold = 0.75 * TWO_PI
    diffs = np.abs(np.diff(phases))
    jumps = np.nonzero(diffs > jump_threshold)[0] + 1
    start = 0
    end = phases.size
    for jump in jumps:
        if jump <= centre_index:
            start = jump
        elif jump > centre_index:
            end = jump
            break
    return int(start), int(end)


def reference_profile(
    tag_x_m: float,
    perpendicular_distance_m: float,
    sweep_start_x_m: float,
    sweep_end_x_m: float,
    speed_mps: float = 0.1,
    sample_rate_hz: float = DEFAULT_REFERENCE_SAMPLE_RATE_HZ,
    wavelength_m: float | None = None,
    phase_offset_rad: float = 0.0,
    tag_id: str = "reference",
) -> ReferenceProfile:
    """Reference profile of a tag during a full constant-speed sweep.

    The antenna moves along the X axis from ``sweep_start_x_m`` to
    ``sweep_end_x_m`` at ``speed_mps``; the tag sits at ``tag_x_m`` along the
    sweep and ``perpendicular_distance_m`` away from the trajectory line (this
    distance already combines the antenna height and the lateral offset, i.e.
    it is the closest the antenna ever gets to the tag).

    Parameters mirror Figure 3's setup: span 3 m, speed 0.1 m/s, height 1 m.
    """
    if perpendicular_distance_m <= 0:
        raise ValueError("perpendicular distance must be positive")
    if speed_mps <= 0:
        raise ValueError("speed must be positive")
    if sample_rate_hz <= 0:
        raise ValueError("sample rate must be positive")
    if sweep_end_x_m <= sweep_start_x_m:
        raise ValueError("sweep end must be beyond sweep start")
    wavelength = wavelength_m if wavelength_m is not None else channel_wavelength_m(6)

    duration_s = (sweep_end_x_m - sweep_start_x_m) / speed_mps
    sample_count = max(2, int(round(duration_s * sample_rate_hz)) + 1)
    times = np.linspace(0.0, duration_s, sample_count)
    antenna_x = sweep_start_x_m + speed_mps * times
    distances = np.sqrt((antenna_x - tag_x_m) ** 2 + perpendicular_distance_m**2)
    phases = np.mod(
        round_trip_phase(distances, wavelength) + phase_offset_rad, TWO_PI
    )

    profile = PhaseProfile(
        tag_id=tag_id,
        timestamps_s=times,
        phases_rad=phases,
        metadata={
            "reference": True,
            "speed_mps": speed_mps,
            "perpendicular_distance_m": perpendicular_distance_m,
        },
    )
    perpendicular_time = (tag_x_m - sweep_start_x_m) / speed_mps
    perpendicular_time = min(max(perpendicular_time, 0.0), duration_s)
    centre_index = int(np.argmin(np.abs(times - perpendicular_time)))
    vzone_start, vzone_end = _vzone_bounds_around(phases, centre_index)
    return ReferenceProfile(
        profile=profile,
        perpendicular_time_s=perpendicular_time,
        vzone_start_index=vzone_start,
        vzone_end_index=vzone_end,
        perpendicular_distance_m=perpendicular_distance_m,
    )


def canonical_reference(
    perpendicular_distance_m: float = 0.35,
    speed_mps: float = 0.3,
    periods: int = DEFAULT_REFERENCE_PERIODS,
    sample_rate_hz: float = DEFAULT_REFERENCE_SAMPLE_RATE_HZ,
    wavelength_m: float | None = None,
    bottom_phase_rad: float = 0.5,
) -> ReferenceProfile:
    """The matching template: ``periods`` phase periods centred on the V-zone.

    The template spans the region around the perpendicular point within which
    the unwrapped phase stays within ``periods/2`` full periods of its minimum
    (so the whole template contains roughly ``periods`` partial or complete
    periods, the paper's default of 4).  ``bottom_phase_rad`` pins the wrapped
    phase value at the bottom of the V so the template's V-zone is deep and
    unambiguous, which is what makes it a good DTW anchor.
    """
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    if perpendicular_distance_m <= 0:
        raise ValueError("perpendicular distance must be positive")
    if speed_mps <= 0:
        raise ValueError("speed must be positive")
    wavelength = wavelength_m if wavelength_m is not None else channel_wavelength_m(6)

    # Half-extent of the template along the sweep: the antenna offset at which
    # the unwrapped phase has risen (periods/2) * 2*pi above the bottom.
    excess_distance = periods * wavelength / 4.0
    half_extent_m = math.sqrt(
        (perpendicular_distance_m + excess_distance) ** 2 - perpendicular_distance_m**2
    )

    # Choose a constant offset so that the wrapped phase at the bottom equals
    # bottom_phase_rad, making the template's V-zone span nearly a full period.
    bottom_unwrapped = float(
        round_trip_phase(perpendicular_distance_m, wavelength)
    )
    phase_offset = bottom_phase_rad - bottom_unwrapped

    reference = reference_profile(
        tag_x_m=half_extent_m,
        perpendicular_distance_m=perpendicular_distance_m,
        sweep_start_x_m=0.0,
        sweep_end_x_m=2.0 * half_extent_m,
        speed_mps=speed_mps,
        sample_rate_hz=sample_rate_hz,
        wavelength_m=wavelength,
        phase_offset_rad=phase_offset,
        tag_id="canonical-reference",
    )
    return ReferenceProfile(
        profile=reference.profile.with_metadata(periods=periods),
        perpendicular_time_s=reference.perpendicular_time_s,
        vzone_start_index=reference.vzone_start_index,
        vzone_end_index=reference.vzone_end_index,
        perpendicular_distance_m=perpendicular_distance_m,
    )


@lru_cache(maxsize=64)
def _cached_canonical_reference(
    perpendicular_distance_m: float,
    speed_mps: float,
    periods: int,
    sample_rate_hz: float,
    wavelength_m: float | None,
    bottom_phase_rad: float,
) -> ReferenceProfile:
    return canonical_reference(
        perpendicular_distance_m=perpendicular_distance_m,
        speed_mps=speed_mps,
        periods=periods,
        sample_rate_hz=sample_rate_hz,
        wavelength_m=wavelength_m,
        bottom_phase_rad=bottom_phase_rad,
    )


def shared_canonical_reference(
    perpendicular_distance_m: float = 0.35,
    speed_mps: float = 0.3,
    periods: int = DEFAULT_REFERENCE_PERIODS,
    sample_rate_hz: float = DEFAULT_REFERENCE_SAMPLE_RATE_HZ,
    wavelength_m: float | None = None,
    bottom_phase_rad: float = 0.5,
) -> ReferenceProfile:
    """A process-wide cached :func:`canonical_reference`.

    Reference generation is deterministic, so localizers with the same
    configuration can share one immutable :class:`ReferenceProfile` instead of
    regenerating it (and re-deriving its segmentation) per instance.  This is
    what lets a fleet of :class:`~repro.core.localizer.BatchLocalizer` calls —
    e.g. one per conveyor batch — pay the reference construction cost once.
    """
    return _cached_canonical_reference(
        float(perpendicular_distance_m),
        float(speed_mps),
        int(periods),
        float(sample_rate_hz),
        None if wavelength_m is None else float(wavelength_m),
        float(bottom_phase_rad),
    )
