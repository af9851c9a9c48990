"""Static-reflector multipath model.

Multipath self-interference is the dominant error source the paper has to deal
with: it fragments phase profiles (missing samples inside the V-zone) and makes
RSSI fluctuate so much that the peak-RSSI heuristic fails (Figure 2).  We model
the environment as a small set of static specular reflectors.  Each reflector
contributes an extra propagation path whose length is the antenna → reflector →
tag → reflector → antenna detour (first-order image model); the direct path and
the reflected paths are summed coherently as complex amplitudes, which produces
exactly the constructive/destructive fading pattern a moving antenna observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import TWO_PI
from .geometry import Point3D, euclidean_distances


def _stacked_reflectors(
    reflectors: "tuple[Reflector, ...]",
) -> tuple[np.ndarray, np.ndarray]:
    """``(positions (K, 3), coefficients (K,))`` for a reflector set.

    Built per call, not cached: every scene draws a reflector set of its own,
    so a cache keyed by the set would grow by one entry per scene, and the
    fused sweep asks once per sweep.
    """
    positions = np.array(
        [[r.position.x, r.position.y, r.position.z] for r in reflectors]
    )
    coefficients = np.array([r.reflection_coefficient for r in reflectors])
    return positions, coefficients


def _gathered_distances(
    points: np.ndarray, rows: np.ndarray, index: np.ndarray
) -> np.ndarray:
    """Distance from ``points[p]`` to ``rows[index[p]]``, for ``(P, 3)`` points."""
    dx = points[:, 0] - rows[:, 0].take(index)
    dy = points[:, 1] - rows[:, 1].take(index)
    dz = points[:, 2] - rows[:, 2].take(index)
    return np.sqrt(dx * dx + dy * dy + dz * dz)


@dataclass(frozen=True, slots=True)
class Reflector:
    """A static specular reflector (wall, metal shelf, shelf frame)."""

    position: Point3D
    """Location of the reflecting surface element, in metres."""

    reflection_coefficient: float = 0.4
    """Amplitude ratio of the reflected ray relative to the direct ray (0..1)."""

    def __post_init__(self) -> None:
        if not 0.0 <= self.reflection_coefficient <= 1.0:
            raise ValueError(
                "reflection coefficient must be in [0, 1], "
                f"got {self.reflection_coefficient}"
            )


@dataclass(frozen=True, slots=True)
class MultipathChannel:
    """Coherent sum of the direct path and a set of reflected paths.

    The channel is expressed as a complex gain relative to the direct path:
    ``h = 1 + sum_k rho_k * (d_direct / d_k) * exp(-j * 2*pi * (d_k - d_direct) / lambda)``
    where ``d`` are *round-trip* lengths: antenna → reflector → tag on the
    forward link and back on the reverse link.  ``|h|`` perturbs the RSSI
    (in dB, ``20*log10|h|``) and ``angle(h)`` perturbs the reported phase.
    With no reflectors the channel is the identity (``h = 1``).
    """

    reflectors: tuple[Reflector, ...] = field(default_factory=tuple)

    def complex_gains(
        self,
        antenna_positions: np.ndarray,
        tag_positions: np.ndarray,
        wavelength_m: float,
        extra_positions: np.ndarray | None = None,
        extra_event_index: np.ndarray | None = None,
        tag_coupling_coefficient: float | None = None,
        tag_coupling_decay_m: float | None = None,
    ) -> np.ndarray:
        """Vectorized complex channel gains over ``(M, 3)`` geometry arrays.

        ``antenna_positions`` broadcasts against ``tag_positions``.  The
        static reflectors are accumulated one at a time in declaration order.

        ``extra_positions`` (``(P, 3)``) are transient per-event scatterers:
        the neighbouring tags that couple into an event's reply.
        ``extra_event_index[p]`` names the event scatterer ``p`` applies to;
        within one event the scatterers are accumulated in array order.  Each
        acts as a reflector with coefficient ``tag_coupling_coefficient``
        whose contribution is further attenuated by
        ``(tag_coupling_decay_m / distance to the tag) ** 2`` once the tag is
        farther than the decay scale (no extra attenuation inside it).  The
        squared near-field roll-off is strong for tags a couple of
        centimetres apart and negligible beyond ~10 cm — the effect behind
        the paper's accuracy drop at small tag spacings (Figures 13/14).
        """
        if wavelength_m <= 0:
            raise ValueError(f"wavelength must be positive, got {wavelength_m}")
        antenna_positions = np.asarray(antenna_positions, dtype=float)
        tag_positions = np.asarray(tag_positions, dtype=float)
        direct_round_trip = 2.0 * euclidean_distances(antenna_positions, tag_positions)
        gain = np.ones(np.shape(direct_round_trip), dtype=complex)
        if self.reflectors:
            # All K static reflectors in one (K, M) pass; the final
            # accumulation adds one reflector row at a time in declaration
            # order.
            positions, coefficients = _stacked_reflectors(self.reflectors)
            positions = positions[:, None, :]
            coefficients = coefficients[:, None]
            reflected = 2.0 * (
                euclidean_distances(antenna_positions, positions)
                + euclidean_distances(positions, tag_positions)
            )
            excess = reflected - direct_round_trip
            # Amplitude falls off with the extra distance travelled; guard the
            # degenerate case of a reflector sitting on top of the tag.
            amplitude_ratio = coefficients * (
                np.maximum(direct_round_trip, 1e-3) / np.maximum(reflected, 1e-3)
            )
            arg = -TWO_PI * excess / wavelength_m
            contributions = np.empty(np.shape(arg), dtype=complex)
            contributions.real = amplitude_ratio * np.cos(arg)
            contributions.imag = amplitude_ratio * np.sin(arg)
            for contribution in contributions:
                gain += contribution
        if extra_positions is not None and len(extra_positions):
            event_index = np.asarray(extra_event_index, dtype=np.intp)
            direct = direct_round_trip.take(event_index)
            # Each event's antenna and tag rows are gathered one axis at a
            # time: the same ``sqrt(dx*dx + dy*dy + dz*dz)`` as
            # euclidean_distances over gathered (P, 3) rows, without holding
            # two more (P, 3) arrays.
            to_tag = _gathered_distances(extra_positions, tag_positions, event_index)
            reflected = 2.0 * (
                _gathered_distances(extra_positions, antenna_positions, event_index)
                + to_tag
            )
            excess = reflected - direct
            amplitude_ratio = tag_coupling_coefficient * (
                np.maximum(direct, 1e-3) / np.maximum(reflected, 1e-3)
            )
            # Clamping the distance at the decay scale gives exactly 1.0
            # inside it, and never divides by a near-zero distance (a
            # scatterer almost on top of its tag would overflow the square).
            decay = tag_coupling_decay_m
            attenuation = (decay / np.maximum(to_tag, decay)) ** 2
            amplitude_ratio = amplitude_ratio * attenuation
            arg = -TWO_PI * excess / wavelength_m
            contribution = np.empty(np.shape(arg), dtype=complex)
            contribution.real = amplitude_ratio * np.cos(arg)
            contribution.imag = amplitude_ratio * np.sin(arg)
            # ``np.add.at`` applies the additions in array order, which keeps
            # each event's scatterer accumulation sequential and in order.
            np.add.at(gain, event_index, contribution)
        return gain

    @staticmethod
    def fades_and_perturbations(gains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split complex gains into (RSSI fade dB, phase perturbation rad).

        Deep destructive fades are floored at −40 dB to keep the simulation
        numerically sane; reads in such fades are dropped by the collector's
        fade-dropout rule anyway.
        """
        gains = np.atleast_1d(gains)
        magnitude = np.abs(gains)
        fade_db = np.full(gains.shape, -40.0)
        audible = magnitude > 1e-4
        fade_db[audible] = 20.0 * np.log10(magnitude[audible])
        return fade_db, np.angle(gains)


def typical_indoor_reflectors(
    region_min: Point3D,
    region_max: Point3D,
    count: int = 3,
    rng: np.random.Generator | None = None,
    reflection_coefficient: float = 0.35,
) -> tuple[Reflector, ...]:
    """Scatter ``count`` reflectors around a bounding box of the deployment.

    The reflectors are placed just outside the tag region (walls, shelf frames)
    at randomised positions so that different seeds give different multipath
    realisations — matching the paper's observation that profiles outside the
    V-zone are fragmentary and environment-dependent.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = rng if rng is not None else np.random.default_rng()
    span = region_max.as_array() - region_min.as_array()
    centre = (region_max.as_array() + region_min.as_array()) / 2.0
    reflectors = []
    for _ in range(count):
        direction = rng.normal(size=3)
        direction /= max(np.linalg.norm(direction), 1e-9)
        # Place the reflector 0.5–1.5 region-half-spans away from the centre.
        offset = (0.5 + rng.random()) * (np.linalg.norm(span) / 2.0 + 0.5)
        position = centre + direction * offset
        reflectors.append(
            Reflector(
                position=Point3D(*position),
                reflection_coefficient=reflection_coefficient * (0.7 + 0.6 * rng.random()),
            )
        )
    return tuple(reflectors)
