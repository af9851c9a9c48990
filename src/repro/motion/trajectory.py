"""Antenna (or belt) trajectories: where the moving element is at time t.

A trajectory combines a geometric path with a :class:`~repro.motion.speed_profiles.SpeedProfile`.
The paper's sweeps are straight lines parallel to the tag arrangement (the X
axis of our frame), so :class:`LinearTrajectory` is the workhorse;
:class:`WaypointTrajectory` supports the "irregular reader motion" discussed
in the paper's future-work section and is used by robustness tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..rf.geometry import Point3D
from .speed_profiles import ConstantSpeedProfile, SpeedProfile


@lru_cache(maxsize=256)
def _endpoint_arrays(start: Point3D, end: Point3D) -> tuple[np.ndarray, np.ndarray, float]:
    """``(start row, end row, path length)`` cached per endpoint pair.

    Trajectories are frozen, but the sweep loop samples them once per
    inventory round; caching the endpoint arrays (read-only) and the length
    keeps that per-round cost to the interpolation arithmetic alone.  The
    cache is bounded: long-lived processes build a fresh trajectory per
    randomized scene, and only the currently sweeping one needs to be hot.
    """
    start_row = start.as_array()
    end_row = end.as_array()
    start_row.setflags(write=False)
    end_row.setflags(write=False)
    return start_row, end_row, start.distance_to(end)


@dataclass(frozen=True, slots=True)
class LinearTrajectory:
    """Straight-line motion from ``start`` to ``end`` following a speed profile."""

    start: Point3D
    end: Point3D
    speed_profile: SpeedProfile = field(default_factory=lambda: ConstantSpeedProfile(0.1))

    def __post_init__(self) -> None:
        if self.start.distance_to(self.end) == 0.0:
            raise ValueError("trajectory start and end must differ")

    @property
    def path_length_m(self) -> float:
        """Total length of the path in metres."""
        return self.start.distance_to(self.end)

    @property
    def duration_s(self) -> float:
        """Time needed to traverse the whole path."""
        return self.speed_profile.time_to_cover(self.path_length_m)

    def position(self, time_s: float) -> Point3D:
        """Position at ``time_s``; clamped to the endpoints outside [0, duration]."""
        return Point3D(*self.position_row(time_s))

    def position_row(self, time_s: float) -> np.ndarray:
        """:meth:`position` as a raw ``(3,)`` row — the sweep loop's form.

        Identical arithmetic to :meth:`position` (which unpacks this row into
        a :class:`Point3D`); exposed so per-round consumers skip the wrapper
        object.
        """
        start, end, path_length = _endpoint_arrays(self.start, self.end)
        distance = self.speed_profile.distance_at(time_s)
        fraction = min(1.0, max(0.0, distance / path_length))
        return start + fraction * (end - start)

    def progress(self, time_s: float) -> float:
        """Fraction of the path covered at ``time_s``, clamped to [0, 1]."""
        distance = self.speed_profile.distance_at(time_s)
        return min(1.0, max(0.0, distance / self.path_length_m))

    def time_at_progress(self, fraction: float) -> float:
        """Time at which the given fraction of the path has been covered."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        return self.speed_profile.time_to_cover(fraction * self.path_length_m)

    def positions_at(self, times_s: "Sequence[float] | np.ndarray") -> np.ndarray:
        """Positions at each time as a ``(T, 3)`` array — vectorized sampling.

        Evaluates the same ``start + fraction * (end - start)`` arithmetic as
        :meth:`position`, elementwise, so the sampled coordinates are
        bit-identical to repeated scalar calls (the contract the batched
        reader's equivalence tests rely on).
        """
        times = np.asarray(times_s, dtype=float)
        profile = self.speed_profile
        if hasattr(profile, "distances_at"):
            distances = profile.distances_at(times)
        else:
            distances = np.array([profile.distance_at(float(t)) for t in times])
        start, end, path_length = _endpoint_arrays(self.start, self.end)
        fraction = np.minimum(1.0, np.maximum(0.0, distances / path_length))
        return start[None, :] + fraction[:, None] * (end[None, :] - start[None, :])

    def sample_positions(self, times_s: Sequence[float]) -> list[Point3D]:
        """Positions at each time in ``times_s``."""
        return [self.position(t) for t in times_s]


class WaypointTrajectory:
    """Piecewise-linear motion through a sequence of waypoints.

    Used to model imperfect sweeps (the cart drifting towards/away from the
    shelf) when studying robustness to irregular reader motion.
    """

    def __init__(
        self,
        waypoints: Sequence[Point3D],
        speed_profile: SpeedProfile | None = None,
    ) -> None:
        if len(waypoints) < 2:
            raise ValueError("a waypoint trajectory needs at least two waypoints")
        self._waypoints = list(waypoints)
        self.speed_profile = (
            speed_profile if speed_profile is not None else ConstantSpeedProfile(0.1)
        )
        lengths = [
            self._waypoints[i].distance_to(self._waypoints[i + 1])
            for i in range(len(self._waypoints) - 1)
        ]
        if any(length == 0.0 for length in lengths):
            raise ValueError("consecutive waypoints must be distinct")
        self._segment_lengths = np.array(lengths, dtype=float)
        self._cumulative = np.concatenate([[0.0], np.cumsum(self._segment_lengths)])

    @property
    def waypoints(self) -> list[Point3D]:
        """The waypoints defining the path."""
        return list(self._waypoints)

    @property
    def path_length_m(self) -> float:
        """Total length of the path in metres."""
        return float(self._cumulative[-1])

    @property
    def duration_s(self) -> float:
        """Time needed to traverse the whole path."""
        return self.speed_profile.time_to_cover(self.path_length_m)

    def position(self, time_s: float) -> Point3D:
        """Position at ``time_s``; clamped to the endpoints outside [0, duration]."""
        distance = self.speed_profile.distance_at(time_s)
        distance = min(self.path_length_m, max(0.0, distance))
        segment = int(np.searchsorted(self._cumulative, distance, side="right")) - 1
        segment = min(segment, len(self._segment_lengths) - 1)
        segment = max(segment, 0)
        seg_start = self._waypoints[segment].as_array()
        seg_end = self._waypoints[segment + 1].as_array()
        seg_length = float(self._segment_lengths[segment])
        local = distance - float(self._cumulative[segment])
        fraction = 0.0 if seg_length == 0 else local / seg_length
        return Point3D(*(seg_start + fraction * (seg_end - seg_start)))

    def positions_at(self, times_s: "Sequence[float] | np.ndarray") -> np.ndarray:
        """Positions at each time as a ``(T, 3)`` array — vectorized sampling.

        Elementwise-identical arithmetic to :meth:`position` (same segment
        lookup via ``searchsorted``, same interpolation expression).
        """
        times = np.asarray(times_s, dtype=float)
        profile = self.speed_profile
        if hasattr(profile, "distances_at"):
            distances = profile.distances_at(times)
        else:
            distances = np.array([profile.distance_at(float(t)) for t in times])
        distances = np.minimum(self.path_length_m, np.maximum(0.0, distances))
        segment = np.searchsorted(self._cumulative, distances, side="right") - 1
        segment = np.minimum(segment, len(self._segment_lengths) - 1)
        segment = np.maximum(segment, 0)
        waypoint_array = np.array([w.as_array() for w in self._waypoints])
        seg_start = waypoint_array[segment]
        seg_end = waypoint_array[segment + 1]
        seg_length = self._segment_lengths[segment]
        local = distances - self._cumulative[segment]
        fraction = np.where(seg_length == 0, 0.0, local / seg_length)
        return seg_start + fraction[:, None] * (seg_end - seg_start)

    def sample_positions(self, times_s: Sequence[float]) -> list[Point3D]:
        """Positions at each time in ``times_s``."""
        return [self.position(t) for t in times_s]
