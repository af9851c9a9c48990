"""Directional reader antenna model: gain pattern and reading zone.

The paper uses directional panel antennas (ImpinJ Threshold IPJ-A0311, Alien
ALR-8696-C).  Two properties of the antenna matter for STPP:

* the **gain pattern** shapes the received power (RSSI) and, together with tag
  sensitivity, bounds the *reading zone* — the region within which a passive
  tag can be energised and decoded;
* the **reading zone** bounds how many tags compete in each inventory round,
  which drives the undersampling effect studied in Table 1 of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Point3D, euclidean_distances


@lru_cache(maxsize=None)
def _unit_boresight_components(
    boresight: tuple[float, float, float],
) -> tuple[float, float, float]:
    """Normalised boresight components, cached per distinct boresight tuple.

    The antenna dataclass is frozen (and slotted), so the normalisation is a
    pure function of the field value; caching it keeps the per-round RF
    kernel from re-normalising the same vector for every batch.
    """
    v = np.asarray(boresight, dtype=float)
    v = v / np.linalg.norm(v)
    return (float(v[0]), float(v[1]), float(v[2]))


@lru_cache(maxsize=None)
def _cosine_exponent_for(beamwidth_deg: float) -> float:
    """Pattern exponent ``n`` with −3 dB at half the beamwidth (cached)."""
    half = math.radians(beamwidth_deg / 2.0)
    cos_half = math.cos(half)
    if cos_half <= 0.0:
        return 1.0
    # 10*log10(cos^n) = -3  =>  n = -3 / (10*log10(cos))
    return -3.0 / (10.0 * math.log10(cos_half))


@lru_cache(maxsize=None)
def _beam_constants(
    boresight: tuple[float, float, float], beamwidth_deg: float
) -> tuple[np.ndarray, float]:
    """A zone's beam-test constants: the unit boresight as a read-only
    ``(3,)`` row and the beam limit in radians (cached per antenna)."""
    row = np.array(_unit_boresight_components(boresight))
    row.setflags(write=False)
    return row, math.radians(beamwidth_deg)


@dataclass(frozen=True, slots=True)
class DirectionalAntenna:
    """A panel antenna with a cosine-power gain pattern.

    The gain model is ``G(theta) = gain_dbi + 10*log10(max(cos(theta), eps)**n)``
    where ``theta`` is the angle off boresight and ``n`` controls the beamwidth.
    A cosine-power pattern is the standard first-order model for patch/panel
    antennas and is sufficient to reproduce the reading-zone behaviour the
    paper relies on.
    """

    gain_dbi: float = 6.0
    """Boresight gain in dBi (typical for the antennas used in the paper)."""

    beamwidth_deg: float = 70.0
    """Half-power (−3 dB) beamwidth in degrees."""

    boresight: tuple[float, float, float] = (0.0, 0.0, 1.0)
    """Unit-ish vector giving the boresight direction in world coordinates."""

    def __post_init__(self) -> None:
        if self.beamwidth_deg <= 0 or self.beamwidth_deg >= 180:
            raise ValueError(
                f"beamwidth must be in (0, 180) degrees, got {self.beamwidth_deg}"
            )
        norm = math.sqrt(sum(c * c for c in self.boresight))
        if norm == 0:
            raise ValueError("boresight vector must be non-zero")

    @property
    def _cosine_exponent(self) -> float:
        """Exponent ``n`` such that the pattern is −3 dB at half the beamwidth."""
        return _cosine_exponent_for(self.beamwidth_deg)

    def _unit_boresight(self) -> np.ndarray:
        return np.array(_unit_boresight_components(self.boresight), dtype=float)

    def off_boresight_angles(
        self, antenna_pos: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Angles between the boresight and each target direction.

        ``antenna_pos`` and ``targets`` are broadcastable ``(..., 3)`` arrays.
        This is the vectorized kernel behind :meth:`off_boresight_angle_rad`;
        both evaluate the identical operation sequence (normalise the
        direction component-wise, then an explicit 3-term dot product), so the
        scalar and batched simulation paths agree bit-for-bit.
        """
        antenna_pos = np.asarray(antenna_pos, dtype=float)
        targets = np.asarray(targets, dtype=float)
        dx = targets[..., 0] - antenna_pos[..., 0]
        dy = targets[..., 1] - antenna_pos[..., 1]
        dz = targets[..., 2] - antenna_pos[..., 2]
        norm = np.sqrt(dx * dx + dy * dy + dz * dz)
        safe_norm = np.where(norm == 0.0, 1.0, norm)
        bx, by, bz = _unit_boresight_components(self.boresight)
        cos_angle = (dx / safe_norm) * bx + (dy / safe_norm) * by + (dz / safe_norm) * bz
        cos_angle = np.minimum(1.0, np.maximum(-1.0, cos_angle))
        return np.where(norm == 0.0, 0.0, np.arccos(cos_angle))

    def off_boresight_angle_rad(self, antenna_pos: Point3D, target: Point3D) -> float:
        """Angle between the boresight and the direction to ``target``."""
        return float(self.off_boresight_angles(antenna_pos.as_array(), target.as_array()))

    def gains_dbi_towards(self, antenna_pos: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Antenna gains (dBi) towards each target — vectorized pattern lookup.

        Directions behind the panel (more than 90° off boresight) get a flat
        −20 dB front-to-back rejection relative to boresight.
        """
        angle = self.off_boresight_angles(antenna_pos, targets)
        pattern_db = 10.0 * self._cosine_exponent * np.log10(
            np.maximum(np.cos(angle), 1e-9)
        )
        in_front = self.gain_dbi + np.maximum(pattern_db, -20.0)
        return np.where(angle >= math.pi / 2.0, self.gain_dbi - 20.0, in_front)

    def gain_dbi_towards(self, antenna_pos: Point3D, target: Point3D) -> float:
        """Antenna gain (dBi) in the direction of ``target``."""
        return float(self.gains_dbi_towards(antenna_pos.as_array(), target.as_array()))


@dataclass(frozen=True, slots=True)
class ReadingZone:
    """The region within which tags can be inventoried.

    The zone is modelled as the intersection of a maximum range (power-limited)
    and the antenna's forward hemisphere, optionally narrowed to the antenna
    beam.  ``contains`` is used by the reader simulator to decide which tags
    participate in an inventory round at a given antenna position.
    """

    max_range_m: float = 3.0
    """Maximum read range of the reader/tag pair, in metres."""

    antenna: DirectionalAntenna = DirectionalAntenna()
    """Antenna whose beam bounds the zone."""

    beam_limited: bool = True
    """If True, tags outside the half-power beam are considered unreadable."""

    def __post_init__(self) -> None:
        if self.max_range_m <= 0:
            raise ValueError(f"max_range_m must be positive, got {self.max_range_m}")

    def contains_many(self, antenna_pos: np.ndarray, tag_positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`contains`: a boolean mask over ``(..., 3)`` positions.

        ``antenna_pos`` broadcasts against ``tag_positions``, so one call can
        evaluate a whole population at many clocks (``(T, 1, 3)`` against
        ``(T, N, 3)``); every cell depends only on its own pair, so the mask
        equals per-clock calls bit for bit.  The range and beam tests share
        one displacement/norm computation, and every step after the
        subtraction runs in place.  ``sqrt((t−a)²) == sqrt((a−t)²)`` exactly
        (IEEE negation), so the shared norm equals both
        :func:`euclidean_distances`' distance and
        :meth:`DirectionalAntenna.off_boresight_angles`' normalisation
        bit-for-bit, and the mask matches the scalar method's decisions.
        """
        antenna_pos = np.asarray(antenna_pos, dtype=float)
        tag_positions = np.asarray(tag_positions, dtype=float)
        if tag_positions.ndim == 1 and antenna_pos.ndim == 1:
            # One pair: the steps below run in place, which needs arrays.
            return self.contains_many(antenna_pos, tag_positions[None])[0]
        # Columns 0, 1, 2 of ``delta`` are dx, dy, dz; each whole-array step
        # below applies one scalar operation per element, so the columns
        # carry exactly the per-axis expressions spelled out in comments.
        delta = tag_positions - antenna_pos
        squares = delta * delta
        # norm = sqrt(dx*dx + dy*dy + dz*dz), added left to right.
        norm = squares[..., 0] + squares[..., 1]
        norm += squares[..., 2]
        np.sqrt(norm, out=norm)
        mask = norm <= self.max_range_m
        if self.beam_limited:
            boresight, beam_rad = _beam_constants(
                self.antenna.boresight, self.antenna.beamwidth_deg
            )
            degenerate = norm == 0.0
            # norm + 1 where the tag sits on the antenna, norm + 0 (== norm)
            # elsewhere: np.where(degenerate, 1.0, norm) without the select.
            norm += degenerate
            # cos = (dx/n)*bx + (dy/n)*by + (dz/n)*bz, added left to right.
            delta /= norm[..., None]
            delta *= boresight
            cos_angle = delta[..., 0] + delta[..., 1]
            cos_angle += delta[..., 2]
            # min(max(cos, -1), 1): the clamp off_boresight_angles spells out.
            np.maximum(cos_angle, -1.0, out=cos_angle)
            np.minimum(cos_angle, 1.0, out=cos_angle)
            in_beam = np.arccos(cos_angle, out=cos_angle) <= beam_rad
            # A tag on the antenna has angle 0, inside any beam.
            in_beam |= degenerate
            mask &= in_beam
        return mask

    def contains(self, antenna_pos: Point3D, tag_pos: Point3D) -> bool:
        """Return True if a tag at ``tag_pos`` is readable from ``antenna_pos``."""
        return bool(self.contains_many(antenna_pos.as_array(), tag_pos.as_array()))

    def tags_in_zone(
        self, antenna_pos: Point3D, tag_positions: dict[str, Point3D]
    ) -> list[str]:
        """Return the identifiers of all tags readable from ``antenna_pos``."""
        return [
            tag_id
            for tag_id, pos in tag_positions.items()
            if self.contains(antenna_pos, pos)
        ]
