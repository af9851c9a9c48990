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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..rf.constants import TWO_PI, channel_wavelength_m
from ..rf.geometry import Point3D
from ..rfid.reading import ReadLog
from .base import OrderingScheme, SchemeResult


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
        # Every candidate's score is built in these buffers, in place.  The
        # squared distances come from the 1-D axes: (x - ax)^2 + (y - ay)^2
        # + dz^2 is the same adds, in the same order, as on a meshgrid.
        shape = (xs.size, ys.size)
        distance = np.empty(shape)
        term = np.empty(shape, dtype=complex)
        score = np.empty(shape, dtype=complex)
        magnitude = np.empty(shape)
        four_pi = TWO_PI * 2.0

        estimated_x: dict[str, float] = {}
        estimated_y: dict[str, float] = {}
        for tag_id in expected_tag_ids:
            measurements = self._snapshots(read_log, tag_id)
            if len(measurements) < 3:
                continue
            # Coherent sum of per-snapshot residuals: its magnitude is maximal
            # when one constant offset (the unknown device offset mu) explains
            # every residual, i.e. when only phase *differences* are matched —
            # exactly the hyperbolic constraint BackPos uses.
            score.fill(0.0)
            for antenna_pos, phase in measurements:
                dx = xs - antenna_pos.x
                dx *= dx
                dy = ys - antenna_pos.y
                dy *= dy
                dz = -antenna_pos.z
                np.add(dx[:, None], dy[None, :], out=distance)
                distance += dz * dz
                np.sqrt(distance, out=distance)
                # predicted = (4 pi d / wavelength) mod 2 pi, minus the phase.
                distance *= four_pi
                distance /= wavelength
                np.mod(distance, TWO_PI, out=distance)
                distance -= phase
                np.multiply(1j, distance, out=term)
                score += np.exp(term, out=term)
            best = np.unravel_index(
                int(np.argmax(np.abs(score, out=magnitude))), shape
            )
            estimated_x[tag_id] = float(xs[best[0]])
            estimated_y[tag_id] = float(ys[best[1]])

        ordered_x = sorted(estimated_x, key=lambda tid: estimated_x[tid])
        ordered_y = sorted(estimated_y, key=lambda tid: estimated_y[tid])
        return SchemeResult(
            scheme=self.name,
            x_ordering=self._axis("x", ordered_x, estimated_x, expected_tag_ids),
            y_ordering=self._axis("y", ordered_y, estimated_y, expected_tag_ids),
            metadata={"virtual_antennas": self.virtual_antenna_count},
        )

    def _snapshots(
        self, read_log: ReadLog, tag_id: str
    ) -> list[tuple[Point3D, float]]:
        """(antenna position, measured phase) pairs at the snapshot instants.

        The device-dependent constant offset ``mu`` is unknown to BackPos; the
        grid scoring above is insensitive to it because it only rewards
        consistency of phase *differences* across snapshots.
        """
        times = read_log.timestamps(tag_id)
        phases = read_log.phases(tag_id)
        if times.size < self.virtual_antenna_count:
            return []
        quantiles = np.linspace(0.15, 0.85, self.virtual_antenna_count)
        snapshot_times = np.quantile(times, quantiles)
        measurements: list[tuple[Point3D, float]] = []
        for snapshot in snapshot_times:
            mask = np.abs(times - snapshot) <= self.snapshot_window_s
            if not np.any(mask):
                continue
            # Circular mean of the phases near the snapshot.
            mean_phase = float(
                np.mod(np.angle(np.mean(np.exp(1j * phases[mask]))), TWO_PI)
            )
            centre_time = float(np.mean(times[mask]))
            measurements.append(
                (self.antenna_position_at(centre_time), mean_phase)
            )
        return measurements
