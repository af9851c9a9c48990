"""The meshgrid BackPos scoring loop: the oracle for ``BackPosScheme.order``.

:func:`backpos_estimates` scores every candidate grid position on a full
``meshgrid`` with fresh arrays for each snapshot, and takes each snapshot's
reads with a boolean mask per snapshot (:func:`oracle_snapshots`), the way
``order`` did before it screened the grid in float32 and re-scored only the
cells near the screened peak.  The pins in ``tests/test_backpos_oracle.py``
assert that the two give the same snapshots and the same estimated
coordinates, float for float.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.backpos import BackPosScheme
from repro.rf.constants import TWO_PI, channel_wavelength_m
from repro.rf.geometry import Point3D
from repro.rfid.reading import ReadLog


def oracle_snapshots(
    scheme: BackPosScheme, read_log: ReadLog, tag_id: str
) -> list[tuple[Point3D, float]]:
    """``(antenna position, circular-mean phase)`` per snapshot window, one mask each."""
    times = read_log.timestamps(tag_id)
    phases = read_log.phases(tag_id)
    if times.size < scheme.virtual_antenna_count:
        return []
    quantiles = np.linspace(0.15, 0.85, scheme.virtual_antenna_count)
    measurements = []
    for snapshot in np.quantile(times, quantiles):
        mask = np.abs(times - snapshot) <= scheme.snapshot_window_s
        if not np.any(mask):
            continue
        mean_phase = float(np.mod(np.angle(np.mean(np.exp(1j * phases[mask]))), TWO_PI))
        centre_time = float(np.mean(times[mask]))
        measurements.append((scheme.antenna_position_at(centre_time), mean_phase))
    return measurements


def meshgrid_magnitude(
    xs: np.ndarray,
    ys: np.ndarray,
    measurements: list[tuple[Point3D, float]],
    wavelength: float,
) -> np.ndarray:
    """Hologram magnitude on the full ``(xs.size, ys.size)`` meshgrid, snapshot by snapshot."""
    grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
    score = np.zeros_like(grid_x, dtype=complex)
    for antenna_pos, phase in measurements:
        dx = grid_x - antenna_pos.x
        dy = grid_y - antenna_pos.y
        dz = -antenna_pos.z
        distance = np.sqrt(dx * dx + dy * dy + dz * dz)
        predicted = np.mod(TWO_PI * 2.0 * distance / wavelength, TWO_PI)
        score += np.exp(1j * (predicted - phase))
    return np.abs(score)


def backpos_estimates(
    scheme: BackPosScheme, read_log: ReadLog, expected_tag_ids: list[str]
) -> tuple[dict[str, float], dict[str, float]]:
    """``(estimated x, estimated y)`` by tag id, as ``scheme.order`` reports them."""
    wavelength = channel_wavelength_m(6)
    xs = np.arange(scheme.region_min.x, scheme.region_max.x, scheme.grid_resolution_m)
    ys = np.arange(
        scheme.region_min.y, scheme.region_max.y + 1e-9, scheme.grid_resolution_m
    )
    estimated_x: dict[str, float] = {}
    estimated_y: dict[str, float] = {}
    for tag_id in expected_tag_ids:
        measurements = oracle_snapshots(scheme, read_log, tag_id)
        if len(measurements) < 3:
            continue
        magnitude = meshgrid_magnitude(xs, ys, measurements, wavelength)
        ix, iy = np.unravel_index(int(np.argmax(magnitude)), magnitude.shape)
        estimated_x[tag_id] = float(xs[ix])
        estimated_y[tag_id] = float(ys[iy])
    return estimated_x, estimated_y
