"""Antenna-moving vs tag-moving sweep scenarios.

The paper observes (Section 1.3) that moving the reader over stationary tags
is equivalent to keeping the reader stationary while the tags move together —
the airport conveyor-belt case.  This module expresses both cases through the
same pair of callables the reader simulator consumes:

* ``antenna_position(t) -> Point3D``
* ``tag_position(tag_id, t) -> Point3D``

so all downstream code (reader, STPP, baselines) is agnostic to which side
actually moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Mapping, Sequence

import numpy as np

from ..rf.geometry import Point3D
from .trajectory import LinearTrajectory

AntennaPositionFn = Callable[[float], Point3D]
TagPositionFn = Callable[[str, float], Point3D]

_COORDINATES = (attrgetter("x"), attrgetter("y"), attrgetter("z"))


# ---------------------------------------------------------------------------
# Array-native position providers
#
# The reader simulator accepts plain callables, but its batched sweep path
# sniffs for the richer interface below (``positions_at`` / ``is_static``) to
# evaluate whole rounds of geometry in one NumPy pass instead of constructing
# a ``Point3D`` per (tag, time) query.  Every provider's ``__call__`` and
# ``positions_at`` evaluate the identical arithmetic elementwise, so the
# scalar and batched sweeps observe bit-identical positions.
# ---------------------------------------------------------------------------


class StaticAntennaPosition:
    """An antenna that never moves (the conveyor-belt case)."""

    def __init__(self, position: Point3D) -> None:
        self.position = position
        self._row = position.as_array()

    def __call__(self, _time_s: float) -> Point3D:
        return self.position

    def position_row(self, _time_s: float) -> np.ndarray:
        """The fixed position as a ``(3,)`` row (cached; treat as read-only)."""
        return self._row

    def positions_at(self, times_s: np.ndarray) -> np.ndarray:
        """The fixed position broadcast to ``(T, 3)``."""
        times = np.asarray(times_s, dtype=float)
        return np.broadcast_to(self._row, (times.size, 3))


class TrajectoryAntennaPosition:
    """Antenna motion along a trajectory, with vectorized sampling."""

    def __init__(self, trajectory) -> None:
        self.trajectory = trajectory

    def __call__(self, time_s: float) -> Point3D:
        return self.trajectory.position(time_s)

    def position_row(self, time_s: float) -> np.ndarray:
        """Position at ``time_s`` as a raw ``(3,)`` row (same arithmetic)."""
        row_fn = getattr(self.trajectory, "position_row", None)
        if row_fn is not None:
            return row_fn(time_s)
        return self.trajectory.position(time_s).as_array()

    def positions_at(self, times_s: np.ndarray) -> np.ndarray:
        """Positions at each time as ``(T, 3)`` (see trajectory.positions_at)."""
        return self.trajectory.positions_at(times_s)


class _TagPositionsBase:
    """Shared id-indexing for the tag-position providers."""

    def __init__(self, positions: Mapping[str, Point3D]) -> None:
        self._positions = dict(positions)
        # Single-slot cache: the hot callers (the reader's per-round queries)
        # repeat one id tuple — usually the full population — every round.
        # A dict keyed by id tuple would grow unboundedly when a sweep
        # queries varying per-round subsets (the coupling-off moving case).
        self._array_key: tuple[str, ...] | None = None
        self._array_value: np.ndarray | None = None

    def initial_array(self, tag_ids: Sequence[str]) -> np.ndarray:
        """Initial positions of ``tag_ids`` as an ``(N, 3)`` array (cached)."""
        key = tuple(tag_ids)
        if key != self._array_key:
            self._array_value = self._start_rows(key)
            self._array_key = key
        return self._array_value

    def _start_rows(self, tag_ids: Sequence[str]) -> np.ndarray:
        """Initial positions of ``tag_ids`` (repeats allowed) as a new ``(N, 3)``.

        Filled one coordinate column at a time, so a 10k-tag population
        builds no tuple per tag.  Paired queries call this directly rather
        than :meth:`initial_array`: their per-event id lists would evict the
        full-population entry the per-round zone checks rely on.
        """
        points = list(map(self._positions.__getitem__, tag_ids))
        rows = np.empty((len(points), 3))
        for axis, coordinate in enumerate(_COORDINATES):
            rows[:, axis] = np.fromiter(map(coordinate, points), dtype=float, count=len(points))
        return rows

    def positions_paired(
        self, tag_ids: Sequence[str], times_s: np.ndarray
    ) -> np.ndarray:
        """Position of ``tag_ids[i]`` at ``times_s[i]``, as ``(M, 3)``.

        The diagonal of the :meth:`positions_at` cross product; every cell of
        that query depends only on its own (tag, time) pair, so the paired
        result is bitwise the same rows the full-population query would give.
        The concrete providers override this with direct O(M) elementwise
        evaluations of the same arithmetic — the fused sweep engine issues
        one paired query over a whole sweep's events, where the O(M²) cross
        product would dominate.
        """
        times = np.asarray(times_s, dtype=float)
        count = len(tag_ids)
        rows = self.positions_at(tag_ids, times)
        return rows[np.arange(count), np.arange(count)]


class StaticTagPositions(_TagPositionsBase):
    """Tags that never move (the antenna-moving / librarian case)."""

    is_static = True

    def __call__(self, tag_id: str, _time_s: float) -> Point3D:
        return self._positions[tag_id]

    def positions_at(self, tag_ids: Sequence[str], times_s: np.ndarray) -> np.ndarray:
        """Positions as ``(T, N, 3)``: the static layout broadcast over time."""
        times = np.asarray(times_s, dtype=float)
        base = self.initial_array(tag_ids)
        return np.broadcast_to(base[None, :, :], (times.size, len(tag_ids), 3))

    def positions_paired(
        self, tag_ids: Sequence[str], times_s: np.ndarray
    ) -> np.ndarray:
        """Static layout: the paired positions are just the stored rows."""
        return self._start_rows(tag_ids)


class ConstantVelocityTagPositions(_TagPositionsBase):
    """Tags translating together at a constant velocity (plain belt)."""

    is_static = False

    def __init__(
        self, positions: Mapping[str, Point3D], velocity: tuple[float, float, float]
    ) -> None:
        super().__init__(positions)
        self.velocity = tuple(float(c) for c in velocity)

    def __call__(self, tag_id: str, time_s: float) -> Point3D:
        start = self._positions[tag_id]
        vx, vy, vz = self.velocity
        return Point3D(
            start.x + vx * time_s,
            start.y + vy * time_s,
            start.z + vz * time_s,
        )

    def positions_at(self, tag_ids: Sequence[str], times_s: np.ndarray) -> np.ndarray:
        """Positions as ``(T, N, 3)``: ``start + velocity * t`` elementwise."""
        times = np.asarray(times_s, dtype=float)
        base = self.initial_array(tag_ids)
        displacement = np.empty((times.size, 3))
        displacement[:, 0] = self.velocity[0] * times
        displacement[:, 1] = self.velocity[1] * times
        displacement[:, 2] = self.velocity[2] * times
        return base[None, :, :] + displacement[:, None, :]

    def positions_paired(
        self, tag_ids: Sequence[str], times_s: np.ndarray
    ) -> np.ndarray:
        """O(M) paired query: the same ``start + velocity * t`` per pair."""
        times = np.asarray(times_s, dtype=float)
        base = self._start_rows(tag_ids)
        displacement = np.empty((times.size, 3))
        displacement[:, 0] = self.velocity[0] * times
        displacement[:, 1] = self.velocity[1] * times
        displacement[:, 2] = self.velocity[2] * times
        return base + displacement


class BeltTagPositions(_TagPositionsBase):
    """Tags translating along −X following a (possibly variable) speed profile.

    The warehouse sortation belt: every tag shares one speed profile, so the
    relative geometry is preserved while the belt surges and crawls.
    """

    is_static = False

    def __init__(self, positions: Mapping[str, Point3D], speed_profile) -> None:
        super().__init__(positions)
        self.speed_profile = speed_profile

    def __call__(self, tag_id: str, time_s: float) -> Point3D:
        start = self._positions[tag_id]
        return Point3D(start.x - self.speed_profile.distance_at(time_s), start.y, start.z)

    def positions_at(self, tag_ids: Sequence[str], times_s: np.ndarray) -> np.ndarray:
        """Positions as ``(T, N, 3)``: ``start.x - distance_at(t)`` elementwise."""
        times = np.asarray(times_s, dtype=float)
        profile = self.speed_profile
        if hasattr(profile, "distances_at"):
            distances = profile.distances_at(times)
        else:
            distances = np.array([profile.distance_at(float(t)) for t in times])
        base = self.initial_array(tag_ids)
        out = np.repeat(base[None, :, :], times.size, axis=0)
        out[:, :, 0] = base[None, :, 0] - distances[:, None]
        return out

    def positions_paired(
        self, tag_ids: Sequence[str], times_s: np.ndarray
    ) -> np.ndarray:
        """O(M) paired query: ``start.x - distance_at(t)`` per pair."""
        times = np.asarray(times_s, dtype=float)
        profile = self.speed_profile
        if hasattr(profile, "distances_at"):
            distances = profile.distances_at(times)
        else:
            distances = np.array([profile.distance_at(float(t)) for t in times])
        out = self._start_rows(tag_ids)
        out[:, 0] = out[:, 0] - distances
        return out


@dataclass(frozen=True, slots=True)
class SweepScenario:
    """A fully specified sweep: who moves, where, for how long."""

    antenna_position: AntennaPositionFn
    tag_position: TagPositionFn
    duration_s: float
    description: str = ""

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_s}")


def antenna_moving_scenario(
    trajectory: LinearTrajectory,
    tag_positions: Mapping[str, Point3D],
    extra_dwell_s: float = 0.0,
) -> SweepScenario:
    """The librarian case: the antenna traverses ``trajectory``, tags are static.

    ``extra_dwell_s`` keeps the reader interrogating after the antenna reaches
    the end of the path, which pads the tail of the phase profiles.
    """
    if extra_dwell_s < 0:
        raise ValueError(f"extra dwell must be non-negative, got {extra_dwell_s}")
    return SweepScenario(
        antenna_position=TrajectoryAntennaPosition(trajectory),
        tag_position=StaticTagPositions(tag_positions),
        duration_s=trajectory.duration_s + extra_dwell_s,
        description="antenna moving",
    )


def tag_moving_scenario(
    antenna_position: Point3D,
    initial_tag_positions: Mapping[str, Point3D],
    belt_direction: tuple[float, float, float],
    belt_speed_mps: float,
    duration_s: float,
) -> SweepScenario:
    """The conveyor-belt case: the antenna is static, tags translate together.

    All tags share the same velocity vector (``belt_direction`` normalised,
    scaled by ``belt_speed_mps``) so their relative geometry is preserved —
    the precondition for the equivalence with the antenna-moving case.
    """
    if belt_speed_mps <= 0:
        raise ValueError(f"belt speed must be positive, got {belt_speed_mps}")
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    norm = sum(c * c for c in belt_direction) ** 0.5
    if norm == 0:
        raise ValueError("belt direction must be non-zero")
    velocity = tuple(c / norm * belt_speed_mps for c in belt_direction)
    return SweepScenario(
        antenna_position=StaticAntennaPosition(antenna_position),
        tag_position=ConstantVelocityTagPositions(initial_tag_positions, velocity),
        duration_s=duration_s,
        description="tag moving",
    )


def equivalent_antenna_motion(
    scenario: SweepScenario, reference_tag_id: str
) -> Callable[[float], Point3D]:
    """Express a tag-moving scenario as relative antenna motion.

    Returns a callable giving the antenna position *in the moving frame of the
    tags* (anchored at ``reference_tag_id``'s initial position).  Used by
    tests to verify the antenna-moving / tag-moving equivalence the paper
    asserts: the relative geometry — and therefore the phase profile — is the
    same in both descriptions.
    """
    initial_tag = scenario.tag_position(reference_tag_id, 0.0)

    def relative_antenna(time_s: float) -> Point3D:
        tag_now = scenario.tag_position(reference_tag_id, time_s)
        antenna_now = scenario.antenna_position(time_s)
        return Point3D(
            antenna_now.x - (tag_now.x - initial_tag.x),
            antenna_now.y - (tag_now.y - initial_tag.y),
            antenna_now.z - (tag_now.z - initial_tag.z),
        )

    return relative_antenna
