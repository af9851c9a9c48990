"""Tag-position test providers: the paired-query oracle and an oblique belt.

A tag-position provider answers ``positions_paired(rows, times)`` with one
O(M) elementwise evaluation per pair.  :func:`diagonal_positions` computes the
same pairs the slow way, as the diagonal of the ``(M, M, 3)`` cross product
``positions_at(times, rows)``.  Every cell of that product depends only on its
own (row, time) pair, so the two agree bit for bit;
``tests/test_fused_sweep.py`` compares them.

:class:`ConstantVelocityTagPositions` carries every tag along one constant
velocity vector.  The scenes in ``src/`` move tags only along −X
(:class:`~repro.motion.scenarios.BeltTagPositions`); the tests use the
oblique velocity to exercise moving geometry with y and z components.
With velocity ``(-s, 0, 0)`` it gives the same bits as a belt at the
constant speed ``s``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.motion.scenarios import _TagPositionsBase
from repro.rf.geometry import Point3D


def diagonal_positions(provider, rows: np.ndarray, times_s: np.ndarray) -> np.ndarray:
    """Position of row ``rows[i]`` at ``times_s[i]``, as ``(M, 3)``."""
    times = np.asarray(times_s, dtype=float)
    pairs = np.arange(len(rows))
    return provider.positions_at(times, rows)[pairs, pairs]


class ConstantVelocityTagPositions(_TagPositionsBase):
    """Tags translating together at a constant velocity (plain belt)."""

    is_static = False

    def __init__(
        self,
        ids: Sequence[str],
        starts: np.ndarray,
        velocity: tuple[float, float, float],
    ) -> None:
        super().__init__(ids, starts)
        self.velocity = tuple(float(c) for c in velocity)

    def __call__(self, tag_id: str, time_s: float) -> Point3D:
        x, y, z = self._start(tag_id)
        vx, vy, vz = self.velocity
        return Point3D(x + vx * time_s, y + vy * time_s, z + vz * time_s)

    def _displacement(self, times_s: np.ndarray) -> np.ndarray:
        times = np.asarray(times_s, dtype=float)
        displacement = np.empty((times.size, 3))
        displacement[:, 0] = self.velocity[0] * times
        displacement[:, 1] = self.velocity[1] * times
        displacement[:, 2] = self.velocity[2] * times
        return displacement

    def positions_at(
        self, times_s: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Positions of ``rows`` (all tags by default) as ``(T, N, 3)``:
        ``start + velocity * t`` elementwise."""
        base = self._starts_of(rows)
        return base[None, :, :] + self._displacement(times_s)[:, None, :]

    def positions_paired(self, rows: np.ndarray, times_s: np.ndarray) -> np.ndarray:
        """Position of row ``rows[i]`` at ``times_s[i]``, as ``(M, 3)``: the
        same ``start + velocity * t`` per pair."""
        return self.starts[rows] + self._displacement(times_s)
