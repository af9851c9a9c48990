"""Small 3-D geometry helpers shared by the RF and motion substrates.

The library uses a right-handed coordinate frame:

* **X** — the dimension along which the antenna (or the conveyor belt) moves.
* **Y** — the second dimension of the tag plane (e.g. shelf height).
* **Z** — the perpendicular offset between the tag plane and the antenna
  trajectory (e.g. the 30 cm between a librarian's cart and the bookshelf).

Positions are plain ``(x, y, z)`` tuples wrapped in :class:`Point3D` so that
call sites stay explicit about units (metres everywhere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class Point3D:
    """A point in 3-D space, coordinates in metres."""

    x: float
    y: float
    z: float = 0.0

    def as_array(self) -> np.ndarray:
        """Return the point as a ``float64`` numpy array of shape ``(3,)``."""
        return np.array([self.x, self.y, self.z], dtype=float)

    def distance_to(self, other: "Point3D") -> float:
        """Euclidean distance to ``other`` in metres.

        Computed as ``sqrt(dx*dx + dy*dy + dz*dz)`` — the same operation
        sequence as :func:`euclidean_distances` — so that scalar and
        vectorized code paths agree bit-for-bit (``math.dist`` uses a scaled
        algorithm that differs from the naive form by 1 ULP for ~20% of
        inputs, which would break the batched-vs-scalar sweep equivalence).
        Coordinates are metre-scale, so the naive form cannot overflow.
        """
        dx = self.x - other.x
        dy = self.y - other.y
        dz = self.z - other.z
        return math.sqrt(dx * dx + dy * dy + dz * dz)


def euclidean_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between broadcastable ``(..., 3)`` point arrays.

    Evaluates ``sqrt(dx*dx + dy*dy + dz*dz)`` elementwise — bit-identical to
    :meth:`Point3D.distance_to` on the corresponding scalar coordinates, which
    is what lets the batched RF kernels reproduce the scalar simulation
    exactly.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dx = a[..., 0] - b[..., 0]
    dy = a[..., 1] - b[..., 1]
    dz = a[..., 2] - b[..., 2]
    return np.sqrt(dx * dx + dy * dy + dz * dz)
