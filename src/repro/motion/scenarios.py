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
from typing import Callable, Sequence

import numpy as np

from ..rf.geometry import Point3D
from .trajectory import LinearTrajectory

AntennaPositionFn = Callable[[float], Point3D]
TagPositionFn = Callable[[str, float], Point3D]


# ---------------------------------------------------------------------------
# Array-native position providers
#
# The reader simulator accepts plain callables, but its batched sweep path
# takes the richer interface below to evaluate whole rounds of geometry in
# one NumPy pass instead of constructing a ``Point3D`` per (tag, time) query.
# A tag-position provider has ``is_static``, ``rows_for``, ``positions_at``
# (the population rows over a batch of times) and ``positions_paired`` (one
# row at one time per pair).  Every provider's ``__call__`` and batched
# queries evaluate the identical arithmetic elementwise, so the scalar and
# batched sweeps observe bit-identical positions.
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
    """Population storage shared by the tag-position providers.

    A provider holds its population as columns: the tag :attr:`ids` and their
    start positions :attr:`starts`, a read-only ``(N, 3)`` array whose row
    ``i`` belongs to ``ids[i]``.  Its batched queries take population rows,
    not id strings; the reader maps the swept collection onto those rows once
    per sweep through :meth:`rows_for`.
    """

    def __init__(self, ids: Sequence[str], starts: np.ndarray) -> None:
        self.ids = tuple(ids)
        rows = np.asarray(starts, dtype=float).reshape(len(self.ids), 3)
        if rows.flags.writeable:
            # A caller's writable array is copied; a read-only one (a tag
            # collection's position column) is shared.
            rows = rows.copy()
            rows.setflags(write=False)
        self.starts = rows
        self._row_of: dict[str, int] | None = None

    def _index(self) -> dict[str, int]:
        """The id -> row index, built on first use."""
        if self._row_of is None:
            self._row_of = dict(zip(self.ids, range(len(self.ids))))
        return self._row_of

    def _start(self, tag_id: str) -> list[float]:
        """The start position of ``tag_id`` as ``[x, y, z]``."""
        return self.starts[self._index()[tag_id]].tolist()

    def rows_for(self, tag_ids: Sequence[str]) -> np.ndarray | None:
        """The rows of ``tag_ids``, or ``None`` when they are :attr:`ids` in order.

        A provider built from the swept collection's own ``tag_ids`` is
        recognised by identity, so its rows cost nothing to resolve.
        """
        if tag_ids is self.ids or tuple(tag_ids) == self.ids:
            return None
        row_of = self._index()
        return np.fromiter(
            map(row_of.__getitem__, tag_ids), dtype=np.intp, count=len(tag_ids)
        )

    def _starts_of(self, rows: np.ndarray | None) -> np.ndarray:
        return self.starts if rows is None else self.starts[rows]


class StaticTagPositions(_TagPositionsBase):
    """Tags that never move (the antenna-moving / librarian case)."""

    is_static = True

    def __call__(self, tag_id: str, _time_s: float) -> Point3D:
        return Point3D(*self._start(tag_id))

    def positions_at(
        self, times_s: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Positions of ``rows`` (all tags by default) as ``(T, N, 3)``: the
        static layout broadcast over time."""
        times = np.asarray(times_s, dtype=float)
        base = self._starts_of(rows)
        return np.broadcast_to(base[None, :, :], (times.size, *base.shape))

    def positions_paired(self, rows: np.ndarray, times_s: np.ndarray) -> np.ndarray:
        """Position of row ``rows[i]`` at ``times_s[i]``, as ``(M, 3)``: the
        stored rows."""
        return self.starts[rows]


class BeltTagPositions(_TagPositionsBase):
    """Tags translating along −X following a (possibly variable) speed profile.

    The warehouse sortation belt: every tag shares one speed profile, so the
    relative geometry is preserved while the belt surges and crawls.
    """

    is_static = False

    def __init__(self, ids: Sequence[str], starts: np.ndarray, speed_profile) -> None:
        super().__init__(ids, starts)
        self.speed_profile = speed_profile

    def __call__(self, tag_id: str, time_s: float) -> Point3D:
        x, y, z = self._start(tag_id)
        return Point3D(x - self.speed_profile.distance_at(time_s), y, z)

    def _distances(self, times_s: np.ndarray) -> np.ndarray:
        times = np.asarray(times_s, dtype=float)
        profile = self.speed_profile
        if hasattr(profile, "distances_at"):
            return profile.distances_at(times)
        return np.array([profile.distance_at(float(t)) for t in times])

    def positions_at(
        self, times_s: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Positions of ``rows`` (all tags by default) as ``(T, N, 3)``:
        ``start.x - distance_at(t)`` elementwise."""
        distances = self._distances(times_s)
        base = self._starts_of(rows)
        out = np.repeat(base[None, :, :], distances.size, axis=0)
        out[:, :, 0] = base[None, :, 0] - distances[:, None]
        return out

    def positions_paired(self, rows: np.ndarray, times_s: np.ndarray) -> np.ndarray:
        """Position of row ``rows[i]`` at ``times_s[i]``, as ``(M, 3)``:
        ``start.x - distance_at(t)`` per pair."""
        out = self.starts[rows]
        out[:, 0] = out[:, 0] - self._distances(times_s)
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
    tag_ids: Sequence[str],
    tag_positions: np.ndarray,
    extra_dwell_s: float = 0.0,
) -> SweepScenario:
    """The librarian case: the antenna traverses ``trajectory``, tags are static.

    ``tag_positions`` is ``(N, 3)``, row ``i`` the position of ``tag_ids[i]``.
    ``extra_dwell_s`` keeps the reader interrogating after the antenna reaches
    the end of the path, which pads the tail of the phase profiles.
    """
    if extra_dwell_s < 0:
        raise ValueError(f"extra dwell must be non-negative, got {extra_dwell_s}")
    return SweepScenario(
        antenna_position=TrajectoryAntennaPosition(trajectory),
        tag_position=StaticTagPositions(tag_ids, tag_positions),
        duration_s=trajectory.duration_s + extra_dwell_s,
        description="antenna moving",
    )
