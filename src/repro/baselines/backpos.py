"""BackPos baseline (Liu et al., INFOCOM 2014), reimplemented.

BackPos performs anchor-free absolute positioning from RF phase: several
antennas at known positions measure the phase of the same tag; pairwise phase
differences constrain the tag to hyperbolas, and intersecting them yields the
tag's position (modulo the half-wavelength ambiguity inherent to phase).

With a single moving antenna, snapshots of the sweep at a few known instants
play the role of the antenna array (the deployment geometry — where the
antenna is at a given time — is assumed known, exactly as BackPos assumes its
antenna positions are known).  The position is recovered by scoring candidate
positions on a grid against all phase measurements and picking the best match,
which is how hyperbolic/holographic phase positioning is implemented in
practice.  Ordering accuracy lands around the paper's reported ~80%: good, but
below STPP for closely spaced tags.

The grid is scored in two passes (:func:`hologram_peak`): a float32 screen of
every cell, then the exact float64 scorer on only the cells whose screened
score is within a derived error bound of the screened maximum.  The pick is
bit-identical to scoring every cell exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..rf.constants import TWO_PI, channel_wavelength_m
from ..rf.geometry import Point3D
from ..rfid.reading import ReadLog
from .base import OrderingScheme, SchemeResult

Measurement = tuple[Point3D, float]
"""One virtual antenna: its position and the tag's phase measured there."""

SCREEN_ROUNDING_SLACK = 64.0
"""``C`` of :func:`hologram_screen`'s error bound, in float32 unit roundoffs."""

_FLOAT32_UNIT_ROUNDOFF = 2.0**-24

SCREEN_COUNTERS = ("flat_hologram_tags", "cells_screened", "cells_rescored", "screen_misses")
"""The counts :meth:`BackPosScheme.order` reports in its result's metadata."""


def hologram_exact(
    cell_x: np.ndarray,
    cell_y: np.ndarray,
    measurements: list[Measurement],
    wavelength: float,
) -> np.ndarray:
    """Hologram magnitude at the cells ``(cell_x, cell_y)``, in float64.

    The coordinates broadcast against each other: ``xs[:, None]`` and
    ``ys[None, :]`` score the whole grid, ``xs[ix]`` and ``ys[iy]`` a
    gathered subset.  Every step is elementwise and the snapshots are summed
    in order, so a cell gets the same bits either way.  The wrapped predicted
    phase of a cell depends only on the antenna position, so it is computed
    once per distinct position, not once per snapshot.
    """
    four_pi = TWO_PI * 2.0
    shape = np.broadcast_shapes(np.shape(cell_x), np.shape(cell_y))
    residual = np.empty(shape)
    term = np.empty(shape, dtype=complex)
    score = np.zeros(shape, dtype=complex)
    predicted_at: dict[Point3D, np.ndarray] = {}
    # Coherent sum of per-snapshot residuals: its magnitude is maximal when
    # one constant offset (the unknown device offset mu) explains every
    # residual, i.e. when only phase *differences* are matched — exactly the
    # hyperbolic constraint BackPos uses.
    for antenna_pos, phase in measurements:
        predicted = predicted_at.get(antenna_pos)
        if predicted is None:
            dx = cell_x - antenna_pos.x
            dx *= dx
            dy = cell_y - antenna_pos.y
            dy *= dy
            dz = -antenna_pos.z
            predicted = np.add(dx, dy)
            predicted += dz * dz
            np.sqrt(predicted, out=predicted)
            # predicted = (4 pi d / wavelength) mod 2 pi.
            predicted *= four_pi
            predicted /= wavelength
            np.mod(predicted, TWO_PI, out=predicted)
            predicted_at[antenna_pos] = predicted
        np.subtract(predicted, phase, out=residual)
        np.multiply(1j, residual, out=term)
        score += np.exp(term, out=term)
    return np.abs(score)


def hologram_screen(
    xs: np.ndarray,
    ys: np.ndarray,
    measurements: list[Measurement],
    wavelength: float,
) -> tuple[np.ndarray, float]:
    """Float32 hologram magnitudes over the grid ``xs x ys``, and their error bound.

    Each cell scores ``|sum_j exp(i (k d_j - phi_j))|`` with ``k = 4 pi /
    wavelength`` using float32 ``cos`` and ``sin``; no ``np.mod`` (the
    functions are periodic) and no complex ``exp``.  The returned ``epsilon``
    bounds ``|screen - hologram_exact|`` on every cell.  With ``u = 2**-24``
    (float32 unit roundoff) and ``C`` = :data:`SCREEN_ROUNDING_SLACK`:

    * ``(k d)^2`` is formed in float64 per axis and rounded once to float32;
      the float32 add and ``sqrt`` leave ``k d`` within ``3 u k d``.
    * Rounding ``phi_j`` and the subtraction add ``2 u (k d + |phi_j|)``, so
      the screened angle is within ``5 u (k d + |phi_j|)`` of ``k d - phi_j``.
    * float32 ``cos``/``sin`` are within a few ULP (``<= 4 u`` for values of
      magnitude ``<= 1``) of the functions of that angle.
    * The exact scorer's own float64 roundings, and its ``np.mod`` by the
      float64 ``TWO_PI`` (``fmod`` is exact; it shifts the angle by at most
      ``k d / 2 pi`` times ``|2 pi - TWO_PI| < 2.5e-16``), are below
      ``u k d`` for every ``k d`` a float32 ``cos`` accepts.

    So each snapshot's unit phasor is off by at most ``C u (k d_max,j +
    |phi_j| + 1)``, with ``d_max,j`` the largest distance from its antenna
    to the grid.  Summing ``n`` phasors in float32 adds at most ``u n (n +
    1) / 2`` per component, and the magnitude's squares and ``sqrt`` a
    relative ``3 u`` of at most ``n``; ``C u n^2`` covers both.  Hence::

        epsilon = C u (sum_j (k d_max,j + |phi_j| + 1) + n^2)

    ``C = 64`` leaves more than a tenfold margin over the terms above.
    """
    k = TWO_PI * 2.0 / wavelength
    k_squared = k * k
    shape = (xs.size, ys.size)
    angle = np.empty(shape, dtype=np.float32)
    trig = np.empty(shape, dtype=np.float32)
    real = np.zeros(shape, dtype=np.float32)
    imag = np.zeros(shape, dtype=np.float32)
    bound = float(len(measurements)) ** 2
    for antenna_pos, phase in measurements:
        dx = xs - antenna_pos.x
        dy = ys - antenna_pos.y
        x_part = (dx * dx + antenna_pos.z * antenna_pos.z) * k_squared
        y_part = dy * dy * k_squared
        bound += float(np.sqrt(x_part.max() + y_part.max())) + abs(phase) + 1.0
        np.add(
            x_part.astype(np.float32)[:, None],
            y_part.astype(np.float32)[None, :],
            out=angle,
        )
        np.sqrt(angle, out=angle)
        angle -= np.float32(phase)
        real += np.cos(angle, out=trig)
        imag += np.sin(angle, out=trig)
    real *= real
    imag *= imag
    real += imag
    np.sqrt(real, out=real)
    return real, SCREEN_ROUNDING_SLACK * _FLOAT32_UNIT_ROUNDOFF * bound


def screen_survivors(screened: np.ndarray, epsilon: float) -> np.ndarray:
    """Flat indices, ascending, of the cells within ``2 epsilon`` of the screened peak.

    If every screened value is within ``epsilon`` of the exact one, a cell
    holding the exact maximum ``M`` screens at least ``M - epsilon``, and
    the screened peak is at most ``M + epsilon``: it survives.  Every cell
    left out scores exactly below ``M``.
    """
    threshold = np.float64(screened.max()) - 2.0 * epsilon
    return np.flatnonzero(screened >= threshold)


def hologram_peak(
    xs: np.ndarray,
    ys: np.ndarray,
    measurements: list[Measurement],
    wavelength: float,
    counts: dict[str, int],
) -> int:
    """Flat index into ``(xs.size, ys.size)`` of the hologram's exact maximum.

    Bit-identical to ``argmax`` over :func:`hologram_exact` on the whole
    grid, first index on ties.  Snapshots all taken at one antenna position
    give a flat hologram (every cell ties mathematically; rounding picks the
    peak), so those tags skip the screen and every cell is scored exactly.
    Otherwise only :func:`screen_survivors` are, and if any of them breaks
    the screen's bound the whole grid is re-scored and counted as a
    ``screen_miss``.  ``counts`` accumulates :data:`SCREEN_COUNTERS`.
    """
    if len({antenna_pos for antenna_pos, _ in measurements}) > 1:
        screened, epsilon = hologram_screen(xs, ys, measurements, wavelength)
        counts["cells_screened"] += screened.size
        survivors = screen_survivors(screened, epsilon)
        ix, iy = np.divmod(survivors, ys.size)
        exact = hologram_exact(xs[ix], ys[iy], measurements, wavelength)
        counts["cells_rescored"] += survivors.size
        if np.all(np.abs(exact - screened.ravel()[survivors]) <= epsilon):
            return int(survivors[np.argmax(exact)])
        counts["screen_misses"] += 1
    else:
        counts["flat_hologram_tags"] += 1
    magnitude = hologram_exact(xs[:, None], ys[None, :], measurements, wavelength)
    counts["cells_rescored"] += magnitude.size
    return int(np.argmax(magnitude))


@dataclass
class BackPosScheme(OrderingScheme):
    """Phase-difference (hyperbolic) positioning, then ordering by coordinates."""

    antenna_position_at: Callable[[float], Point3D] | None = None
    """Known deployment geometry: antenna position as a function of time."""

    region_min: Point3D = Point3D(-0.5, -0.5, 0.0)
    region_max: Point3D = Point3D(1.5, 0.5, 0.0)
    """Bounding box of candidate tag positions (the deployment region)."""

    virtual_antenna_count: int = 4
    """How many sweep snapshots act as the antenna array."""

    grid_resolution_m: float = 0.01
    snapshot_window_s: float = 0.25
    """Reads within this window of a snapshot time contribute to its phase."""

    name: str = "BackPos"

    def order(self, read_log: ReadLog, expected_tag_ids: list[str]) -> SchemeResult:
        if self.antenna_position_at is None:
            raise ValueError("BackPos requires the antenna deployment geometry")
        wavelength = channel_wavelength_m(6)
        xs = np.arange(self.region_min.x, self.region_max.x, self.grid_resolution_m)
        ys = np.arange(self.region_min.y, self.region_max.y + 1e-9, self.grid_resolution_m)
        if xs.size == 0 or ys.size == 0:
            raise ValueError("empty candidate region")

        counts = dict.fromkeys(SCREEN_COUNTERS, 0)
        estimated_x: dict[str, float] = {}
        estimated_y: dict[str, float] = {}
        for tag_id in expected_tag_ids:
            measurements = self._snapshots(read_log, tag_id)
            if len(measurements) < 3:
                continue
            ix, iy = divmod(hologram_peak(xs, ys, measurements, wavelength, counts), ys.size)
            estimated_x[tag_id] = float(xs[ix])
            estimated_y[tag_id] = float(ys[iy])

        ordered_x = sorted(estimated_x, key=lambda tid: estimated_x[tid])
        ordered_y = sorted(estimated_y, key=lambda tid: estimated_y[tid])
        return SchemeResult(
            scheme=self.name,
            x_ordering=self._axis("x", ordered_x, estimated_x, expected_tag_ids),
            y_ordering=self._axis("y", ordered_y, estimated_y, expected_tag_ids),
            metadata={"virtual_antennas": self.virtual_antenna_count, **counts},
        )

    def _snapshots(self, read_log: ReadLog, tag_id: str) -> list[Measurement]:
        """(antenna position, measured phase) pairs at the snapshot instants.

        The device-dependent constant offset ``mu`` is unknown to BackPos; the
        grid scoring above is insensitive to it because it only rewards
        consistency of phase *differences* across snapshots.
        """
        times = read_log.timestamps(tag_id)
        if times.size < self.virtual_antenna_count:
            return []
        phases = read_log.phases(tag_id)
        quantiles = np.linspace(0.15, 0.85, self.virtual_antenna_count)
        snapshot_times = np.quantile(times, quantiles)
        # The times are sorted and fl(t - s) is monotone in t, so each
        # snapshot's window selects one contiguous run of reads.
        inside = np.abs(times - snapshot_times[:, None]) <= self.snapshot_window_s
        counts = np.count_nonzero(inside, axis=1).tolist()
        measurements: list[Measurement] = []
        for first, count in zip(inside.argmax(axis=1).tolist(), counts):
            if count == 0:
                continue
            window = slice(first, first + count)
            # Circular mean of the phases near the snapshot; a sum over the
            # count is np.mean's own arithmetic.
            rotor = np.add.reduce(np.exp(1j * phases[window])) / count
            mean_phase = float(np.mod(np.angle(rotor), TWO_PI))
            centre_time = float(np.add.reduce(times[window]) / count)
            measurements.append((self.antenna_position_at(centre_time), mean_phase))
        return measurements
