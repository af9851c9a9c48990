"""Speed profiles for the moving antenna (or the moving conveyor belt).

The paper stresses that the reader "is often moved manually", so the sweep
speed is not constant: the phase profile gets stretched when the movement
slows down and compressed when it speeds up, which is why STPP matches
profiles with Dynamic Time Warping rather than plain subsequence matching.

A speed profile maps elapsed time to distance travelled along the trajectory.
:class:`ConstantSpeedProfile` models the conveyor belt; the jittered and
piecewise profiles model a human pushing a cart.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

DEFAULT_BELT_SPEED_MPS = 0.3
"""The repository's canonical conveyor/sweep speed (m/s).

Matches the micro-benchmark sweep speed (paper §4.3) and is the default of
every scenario-spec motion kind (:data:`repro.scenarios.spec.MOTION_KINDS`).
"""


class SpeedProfile(Protocol):
    """Maps elapsed time to distance travelled along the path."""

    def distance_at(self, time_s: float) -> float:
        """Distance travelled (metres) after ``time_s`` seconds."""
        ...

    def time_to_cover(self, distance_m: float) -> float:
        """Time (seconds) needed to cover ``distance_m`` metres."""
        ...


@dataclass(frozen=True, slots=True)
class ConstantSpeedProfile:
    """Motion at a constant speed (e.g. a conveyor belt at 0.3 m/s)."""

    speed_mps: float

    def __post_init__(self) -> None:
        if self.speed_mps <= 0:
            raise ValueError(f"speed must be positive, got {self.speed_mps}")

    def distance_at(self, time_s: float) -> float:
        """Distance travelled after ``time_s`` seconds (clamped at zero)."""
        return self.speed_mps * max(time_s, 0.0)

    def distances_at(self, times_s: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`distance_at` — identical arithmetic, elementwise."""
        return self.speed_mps * np.maximum(np.asarray(times_s, dtype=float), 0.0)

    def time_to_cover(self, distance_m: float) -> float:
        """Time needed to cover ``distance_m`` metres."""
        if distance_m < 0:
            raise ValueError(f"distance must be non-negative, got {distance_m}")
        return distance_m / self.speed_mps


class PiecewiseSpeedProfile:
    """Motion whose speed changes at fixed time intervals.

    The profile is defined by a sequence of (duration, speed) segments; beyond
    the last segment the final speed continues indefinitely.  Distance is the
    integral of speed, so it is continuous and monotonically increasing.
    """

    def __init__(self, segments: Sequence[tuple[float, float]]) -> None:
        if not segments:
            raise ValueError("at least one (duration, speed) segment is required")
        for duration, speed in segments:
            if duration <= 0:
                raise ValueError(f"segment duration must be positive, got {duration}")
            if speed <= 0:
                raise ValueError(f"segment speed must be positive, got {speed}")
        self._segments = [(float(d), float(s)) for d, s in segments]
        self._cum_times = np.cumsum([d for d, _ in self._segments])
        distances = [d * s for d, s in self._segments]
        self._cum_distances = np.cumsum(distances)
        # Padded per-segment arrays for the vectorized query, built once:
        # distances_at runs once per inventory round (the belt providers call
        # it from the sweep schedulers), and profiles carry hundreds of
        # segments, so rebuilding these per call dominated moving-scene
        # scheduling.
        self._start_times = np.concatenate([[0.0], self._cum_times])
        self._start_distances = np.concatenate([[0.0], self._cum_distances])
        self._speeds = np.array(
            [s for _, s in self._segments] + [self._segments[-1][1]]
        )

    @property
    def segments(self) -> list[tuple[float, float]]:
        """The (duration, speed) segments defining the profile."""
        return list(self._segments)

    def distance_at(self, time_s: float) -> float:
        """Distance travelled after ``time_s`` seconds."""
        if time_s <= 0:
            return 0.0
        index = bisect.bisect_left(self._cum_times, time_s)
        if index >= len(self._segments):
            # Past the last segment: continue at the final speed.
            extra_time = time_s - float(self._cum_times[-1])
            return float(self._cum_distances[-1]) + extra_time * self._segments[-1][1]
        seg_start_time = 0.0 if index == 0 else float(self._cum_times[index - 1])
        seg_start_dist = 0.0 if index == 0 else float(self._cum_distances[index - 1])
        return seg_start_dist + (time_s - seg_start_time) * self._segments[index][1]

    def distances_at(self, times_s: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`distance_at` over an array of times.

        Uses padded segment-start arrays so every branch of the scalar method
        (inside a segment, past the last segment, ``t <= 0``) reduces to the
        same ``start_dist + (t - start_time) * speed`` expression, evaluated
        elementwise — bit-identical to the scalar result.
        """
        times = np.asarray(times_s, dtype=float)
        index = np.searchsorted(self._cum_times, times, side="left")
        distances = (
            self._start_distances[index]
            + (times - self._start_times[index]) * self._speeds[index]
        )
        return np.where(times <= 0.0, 0.0, distances)

    def time_to_cover(self, distance_m: float) -> float:
        """Time needed to cover ``distance_m`` metres."""
        if distance_m < 0:
            raise ValueError(f"distance must be non-negative, got {distance_m}")
        if distance_m == 0:
            return 0.0
        index = bisect.bisect_left(self._cum_distances, distance_m)
        if index >= len(self._segments):
            extra_dist = distance_m - float(self._cum_distances[-1])
            return float(self._cum_times[-1]) + extra_dist / self._segments[-1][1]
        seg_start_time = 0.0 if index == 0 else float(self._cum_times[index - 1])
        seg_start_dist = 0.0 if index == 0 else float(self._cum_distances[index - 1])
        return seg_start_time + (distance_m - seg_start_dist) / self._segments[index][1]


def jittered_speed_profile(
    nominal_speed_mps: float,
    duration_s: float,
    jitter_fraction: float = 0.12,
    segment_duration_s: float = 0.8,
    rng: np.random.Generator | None = None,
) -> PiecewiseSpeedProfile:
    """A manual-push profile: speed drifts around ``nominal_speed_mps``.

    Every ``segment_duration_s`` the speed is redrawn from a log-normal-ish
    multiplicative perturbation of the nominal speed, bounded to
    [0.3x, 2.0x] so the motion never stops or teleports.  The result is the
    stretching/compression of profiles that motivates DTW in the paper.
    """
    if nominal_speed_mps <= 0:
        raise ValueError(f"nominal speed must be positive, got {nominal_speed_mps}")
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    if not 0.0 <= jitter_fraction < 1.0:
        raise ValueError(f"jitter fraction must be in [0, 1), got {jitter_fraction}")
    if segment_duration_s <= 0:
        raise ValueError(f"segment duration must be positive, got {segment_duration_s}")
    rng = rng if rng is not None else np.random.default_rng()
    segment_count = max(1, int(np.ceil(duration_s / segment_duration_s)))
    segments: list[tuple[float, float]] = []
    for _ in range(segment_count):
        multiplier = float(np.exp(rng.normal(0.0, jitter_fraction)))
        multiplier = min(2.0, max(0.3, multiplier))
        segments.append((segment_duration_s, nominal_speed_mps * multiplier))
    return PiecewiseSpeedProfile(segments)
