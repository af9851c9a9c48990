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
score is within a derived error bound of the screened maximum.  A static
antenna's flat hologram skips the screen; each distinct wrapped phase of the
grid is scored once instead of every cell.  The pick is bit-identical to
scoring every cell exactly.
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

FlatGrid = tuple[np.ndarray, np.ndarray, np.ndarray]
"""A grid's distinct wrapped phases from one antenna position: see :func:`distinct_phases`."""

SCREEN_ROUNDING_SLACK = 64.0
"""``C`` of :func:`hologram_screen`'s error bound, in float32 unit roundoffs."""

_FLOAT32_UNIT_ROUNDOFF = 2.0**-24

SCREEN_COUNTERS = ("flat_hologram_tags", "cells_screened", "cells_rescored", "screen_misses")
"""The counts :meth:`BackPosScheme.order` reports in its result's metadata."""


def wrapped_phase(
    cell_x: np.ndarray,
    cell_y: np.ndarray,
    antenna_pos: Point3D,
    wavelength: float,
) -> np.ndarray:
    """Predicted phase ``(4 pi d / wavelength) mod 2 pi`` at the cells ``(cell_x, cell_y)``.

    ``d`` is the distance from ``antenna_pos`` to the cell, which lies on
    the ``z = 0`` plane.  The coordinates broadcast against each other as in
    :func:`hologram_exact`, and every step is elementwise.
    """
    dx = cell_x - antenna_pos.x
    dx *= dx
    dy = cell_y - antenna_pos.y
    dy *= dy
    dz = -antenna_pos.z
    predicted = np.add(dx, dy)
    predicted += dz * dz
    np.sqrt(predicted, out=predicted)
    predicted *= TWO_PI * 2.0
    predicted /= wavelength
    return np.mod(predicted, TWO_PI, out=predicted)


def hologram_magnitude(terms: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """``|sum_j exp(i (predicted_j - phi_j))|`` elementwise, in float64: the one exact scorer.

    ``terms`` pairs each snapshot's predicted phases (arrays of one shape)
    with its measured phase ``phi_j``; the snapshots are summed in order.
    The coherent sum is maximal where one constant offset (the unknown
    device offset mu) explains every residual, i.e. where only phase
    *differences* are matched: exactly the hyperbolic constraint BackPos
    uses.  Every step is elementwise, so equal predicted phases score equal
    bits wherever they sit in the arrays.
    """
    shape = terms[0][0].shape
    residual = np.empty(shape)
    term = np.empty(shape, dtype=complex)
    score = np.zeros(shape, dtype=complex)
    for predicted, phase in terms:
        np.subtract(predicted, phase, out=residual)
        np.multiply(1j, residual, out=term)
        score += np.exp(term, out=term)
    return np.abs(score)


def hologram_exact(
    cell_x: np.ndarray,
    cell_y: np.ndarray,
    measurements: list[Measurement],
    wavelength: float,
) -> np.ndarray:
    """Hologram magnitude at the cells ``(cell_x, cell_y)``, in float64.

    The coordinates broadcast against each other: ``xs[:, None]`` and
    ``ys[None, :]`` score the whole grid, ``xs[ix]`` and ``ys[iy]`` a
    gathered subset; a cell gets the same bits either way.  The wrapped
    predicted phase of a cell depends only on the antenna position, so it is
    computed once per distinct position, not once per snapshot.
    """
    predicted_at: dict[Point3D, np.ndarray] = {}
    for antenna_pos, _ in measurements:
        if antenna_pos not in predicted_at:
            predicted_at[antenna_pos] = wrapped_phase(cell_x, cell_y, antenna_pos, wavelength)
    return hologram_magnitude([(predicted_at[pos], phase) for pos, phase in measurements])


def distinct_phases(
    xs: np.ndarray, ys: np.ndarray, antenna_pos: Point3D, wavelength: float
) -> FlatGrid:
    """The grid's distinct wrapped phases seen from ``antenna_pos``, and where each first occurs.

    Returns the distinct values in ascending order, their first flat indices
    into ``(xs.size, ys.size)`` in ascending order, and the permutation
    ``by_index`` that takes the values' scores to the order of those indices.
    ``argmax`` over the permuted scores then finds the same cell as ``argmax``
    over the whole grid's: the smallest first index among the values that
    reach the maximum, or the first NaN.  (NaN never equals itself, so each
    NaN cell is its own value; the first of them still comes first.)
    """
    predicted = wrapped_phase(xs[:, None], ys[None, :], antenna_pos, wavelength).ravel()
    by_value = np.argsort(predicted)
    ascending = predicted[by_value]
    starts = np.flatnonzero(np.r_[True, ascending[1:] != ascending[:-1]])
    first = np.minimum.reduceat(by_value, starts)
    by_index = np.argsort(first)
    return ascending[starts], first[by_index], by_index


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
    flat_grids: dict[Point3D, FlatGrid] | None = None,
) -> int:
    """Flat index into ``(xs.size, ys.size)`` of the hologram's exact maximum.

    Bit-identical to ``argmax`` over :func:`hologram_exact` on the whole
    grid, first index on ties.  Snapshots all taken at one antenna position
    give a flat hologram (every cell ties mathematically; rounding picks the
    peak).  Such a tag skips the screen: each of the grid's
    :func:`distinct_phases` from that position is scored exactly once, and
    ``flat_grids`` keeps them by position for the next tag on the same grid.
    Otherwise only :func:`screen_survivors` are scored, and if any of them
    breaks the screen's bound the whole grid is re-scored and counted as a
    ``screen_miss``.  ``counts`` accumulates :data:`SCREEN_COUNTERS`;
    ``cells_rescored`` counts the cells (or distinct phases) scored exactly.
    """
    positions = {antenna_pos for antenna_pos, _ in measurements}
    if len(positions) == 1:
        counts["flat_hologram_tags"] += 1
        (antenna_pos,) = positions
        grids = {} if flat_grids is None else flat_grids
        if antenna_pos not in grids:
            grids[antenna_pos] = distinct_phases(xs, ys, antenna_pos, wavelength)
        values, first, by_index = grids[antenna_pos]
        magnitude = hologram_magnitude([(values, phase) for _, phase in measurements])
        counts["cells_rescored"] += values.size
        return int(first[np.argmax(magnitude[by_index])])
    screened, epsilon = hologram_screen(xs, ys, measurements, wavelength)
    counts["cells_screened"] += screened.size
    survivors = screen_survivors(screened, epsilon)
    ix, iy = np.divmod(survivors, ys.size)
    exact = hologram_exact(xs[ix], ys[iy], measurements, wavelength)
    counts["cells_rescored"] += survivors.size
    if np.all(np.abs(exact - screened.ravel()[survivors]) <= epsilon):
        return int(survivors[np.argmax(exact)])
    counts["screen_misses"] += 1
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
        flat_grids: dict[Point3D, FlatGrid] = {}
        estimated_x: dict[str, float] = {}
        estimated_y: dict[str, float] = {}
        for tag_id in expected_tag_ids:
            measurements = self._snapshots(read_log, tag_id)
            if len(measurements) < 3:
                continue
            peak = hologram_peak(xs, ys, measurements, wavelength, counts, flat_grids)
            ix, iy = divmod(peak, ys.size)
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
