"""The meshgrid BackPos scoring loop: the oracle for ``BackPosScheme.order``.

:func:`backpos_estimates` scores every candidate grid position on a full
``meshgrid`` with fresh arrays for each snapshot, the way ``order`` did before
it built the squared distances from the 1-D grid axes into reused buffers.
The pin in ``tests/test_backpos_oracle.py`` asserts that the two give the
same estimated coordinates, float for float.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.backpos import BackPosScheme
from repro.rf.constants import TWO_PI, channel_wavelength_m
from repro.rfid.reading import ReadLog


def backpos_estimates(
    scheme: BackPosScheme, read_log: ReadLog, expected_tag_ids: list[str]
) -> tuple[dict[str, float], dict[str, float]]:
    """``(estimated x, estimated y)`` by tag id, as ``scheme.order`` reports them."""
    wavelength = channel_wavelength_m(6)
    xs = np.arange(scheme.region_min.x, scheme.region_max.x, scheme.grid_resolution_m)
    ys = np.arange(
        scheme.region_min.y, scheme.region_max.y + 1e-9, scheme.grid_resolution_m
    )
    grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")

    estimated_x: dict[str, float] = {}
    estimated_y: dict[str, float] = {}
    for tag_id in expected_tag_ids:
        measurements = scheme._snapshots(read_log, tag_id)
        if len(measurements) < 3:
            continue
        score = np.zeros_like(grid_x, dtype=complex)
        for antenna_pos, phase in measurements:
            dx = grid_x - antenna_pos.x
            dy = grid_y - antenna_pos.y
            dz = -antenna_pos.z
            distance = np.sqrt(dx * dx + dy * dy + dz * dz)
            predicted = np.mod(TWO_PI * 2.0 * distance / wavelength, TWO_PI)
            score += np.exp(1j * (predicted - phase))
        best = np.unravel_index(int(np.argmax(np.abs(score))), score.shape)
        estimated_x[tag_id] = float(grid_x[best])
        estimated_y[tag_id] = float(grid_y[best])
    return estimated_x, estimated_y
