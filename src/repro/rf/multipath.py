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

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .constants import TWO_PI
from .geometry import Point3D, euclidean_distances


@lru_cache(maxsize=None)
def _stacked_reflectors(
    reflectors: "tuple[Reflector, ...]",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(positions (K, 3), coefficients (K,), decays (K,))`` for a reflector set.

    ``decays`` holds ``nan`` for plain surface reflectors.  Reflectors are
    frozen dataclasses, so the stacking is a pure function of the tuple and is
    cached — the per-round RF kernel would otherwise rebuild these arrays for
    every inventory round.  Callers must treat the arrays as read-only.
    """
    positions = np.array(
        [[r.position.x, r.position.y, r.position.z] for r in reflectors]
    )
    coefficients = np.array([r.reflection_coefficient for r in reflectors])
    decays = np.array(
        [np.nan if r.scattering_decay_m is None else r.scattering_decay_m for r in reflectors]
    )
    return positions, coefficients, decays


@dataclass(frozen=True, slots=True)
class Reflector:
    """A static reflector or scatterer (wall, metal shelf, a *neighbouring tag*)."""

    position: Point3D
    """Location of the reflecting surface element, in metres."""

    reflection_coefficient: float = 0.4
    """Amplitude ratio of the reflected ray relative to the direct ray (0..1)."""

    scattering_decay_m: float | None = None
    """When set, the object is a small scatterer rather than a large surface:
    its contribution is additionally attenuated by
    ``(scattering_decay_m / distance to the tag) ** 2`` once the tag is
    farther than the decay scale (no extra attenuation inside it).  The
    squared near-field roll-off models tag-to-tag coupling, which is strong
    for tags a couple of centimetres apart and negligible beyond ~10 cm — the
    effect behind the paper's accuracy drop at small tag spacings
    (Figures 13/14)."""

    def __post_init__(self) -> None:
        if not 0.0 <= self.reflection_coefficient <= 1.0:
            raise ValueError(
                "reflection coefficient must be in [0, 1], "
                f"got {self.reflection_coefficient}"
            )
        if self.scattering_decay_m is not None and self.scattering_decay_m <= 0:
            raise ValueError("scattering decay must be positive when set")

    def path_length(self, antenna_pos: Point3D, tag_pos: Point3D) -> float:
        """Round-trip length of the reflected path, in metres.

        The reflected round trip is antenna → reflector → tag on the forward
        link and tag → reflector → antenna on the reverse link.
        """
        forward = antenna_pos.distance_to(self.position) + self.position.distance_to(tag_pos)
        return 2.0 * forward

    def scattering_attenuation(self, tag_pos: Point3D) -> float:
        """Extra amplitude attenuation for small scatterers (1.0 for surfaces).

        Small scatterers couple through their near field, so the attenuation
        falls off with the square of the distance beyond the decay scale:
        strong at ~2 cm, marginal at 5 cm, negligible at 10 cm.
        """
        if self.scattering_decay_m is None:
            return 1.0
        distance = self.position.distance_to(tag_pos)
        if distance <= self.scattering_decay_m:
            return 1.0
        return (self.scattering_decay_m / distance) ** 2


@dataclass(frozen=True, slots=True)
class MultipathChannel:
    """Coherent sum of the direct path and a set of reflected paths.

    The channel is expressed as a complex gain relative to the direct path:
    ``h = 1 + sum_k rho_k * (d_direct / d_k) * exp(-j * 2*pi * (d_k - d_direct) / lambda)``
    where ``d`` are *round-trip* lengths.  ``|h|`` perturbs the RSSI (in dB,
    ``20*log10|h|``) and ``angle(h)`` perturbs the reported phase.  With no
    reflectors the channel is the identity (``h = 1``).
    """

    reflectors: tuple[Reflector, ...] = field(default_factory=tuple)

    def complex_gains(
        self,
        antenna_pos: np.ndarray,
        tag_positions: np.ndarray,
        wavelength_m: float,
        extra_positions: np.ndarray | None = None,
        extra_coefficients: np.ndarray | None = None,
        extra_decays: np.ndarray | None = None,
        extra_event_index: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized complex channel gains over ``(M, 3)`` geometry arrays.

        ``antenna_pos`` broadcasts against ``tag_positions`` (shape ``(M, 3)``
        or ``(3,)``).  The static reflectors are accumulated one at a time in
        declaration order, so the per-event floating-point accumulation order
        matches the scalar reflector loop exactly.

        The ``extra_*`` arrays describe transient per-event scatterers
        (tag-to-tag coupling): a flattened list of ``P`` scatterers where
        ``extra_event_index[p]`` names the event each one applies to, ordered
        so that within one event the scatterers appear in the same order the
        scalar path appends them.  ``extra_decays`` uses ``nan`` for plain
        surface reflectors (no scattering roll-off).
        """
        if wavelength_m <= 0:
            raise ValueError(f"wavelength must be positive, got {wavelength_m}")
        antenna_pos = np.asarray(antenna_pos, dtype=float)
        tag_positions = np.asarray(tag_positions, dtype=float)
        direct_round_trip = 2.0 * euclidean_distances(antenna_pos, tag_positions)
        gain = np.ones(np.shape(direct_round_trip), dtype=complex)
        if self.reflectors:
            # All K static reflectors in one (K, M) pass.  Every per-element
            # expression matches the one-reflector-at-a-time loop, and the
            # final accumulation adds one reflector row at a time in
            # declaration order, so the result is bit-identical to it.
            positions, coefficients, decays = _stacked_reflectors(self.reflectors)
            if tag_positions.ndim != 1:
                positions = positions[:, None, :]
                coefficients = coefficients[:, None]
                decays = decays[:, None]
            to_tag = euclidean_distances(positions, tag_positions)
            reflected = 2.0 * (
                euclidean_distances(antenna_pos, positions) + to_tag
            )
            excess = reflected - direct_round_trip
            # Amplitude falls off with the extra distance travelled; guard the
            # degenerate case of a reflector sitting on top of the tag.
            amplitude_ratio = coefficients * (
                np.maximum(direct_round_trip, 1e-3) / np.maximum(reflected, 1e-3)
            )
            with np.errstate(invalid="ignore", divide="ignore"):
                # nan decay == plain surface: multiplying by the 1.0 branch of
                # the where is an exact no-op, matching the scalar loop's skip.
                attenuation = np.where(
                    np.isnan(decays),
                    1.0,
                    np.where(to_tag <= decays, 1.0, (decays / to_tag) ** 2),
                )
            amplitude_ratio = amplitude_ratio * attenuation
            arg = -TWO_PI * excess / wavelength_m
            contributions = np.empty(np.shape(arg), dtype=complex)
            contributions.real = amplitude_ratio * np.cos(arg)
            contributions.imag = amplitude_ratio * np.sin(arg)
            for contribution in contributions:
                gain += contribution
        if extra_positions is not None and len(extra_positions):
            event_index = np.asarray(extra_event_index, dtype=np.intp)
            ant = (
                antenna_pos
                if antenna_pos.ndim == 1
                else antenna_pos.take(event_index, axis=0)
            )
            tags = (
                tag_positions
                if tag_positions.ndim == 1
                else tag_positions.take(event_index, axis=0)
            )
            direct = (
                direct_round_trip
                if np.ndim(direct_round_trip) == 0
                else direct_round_trip.take(event_index)
            )
            to_tag = euclidean_distances(extra_positions, tags)
            reflected = 2.0 * (euclidean_distances(ant, extra_positions) + to_tag)
            excess = reflected - direct
            amplitude_ratio = np.asarray(extra_coefficients, dtype=float) * (
                np.maximum(direct, 1e-3) / np.maximum(reflected, 1e-3)
            )
            decays = np.asarray(extra_decays, dtype=float)
            with np.errstate(invalid="ignore", divide="ignore"):
                attenuation = np.where(
                    np.isnan(decays),
                    1.0,
                    np.where(to_tag <= decays, 1.0, (decays / to_tag) ** 2),
                )
            amplitude_ratio = amplitude_ratio * attenuation
            arg = -TWO_PI * excess / wavelength_m
            contribution = np.empty(np.shape(arg), dtype=complex)
            contribution.real = amplitude_ratio * np.cos(arg)
            contribution.imag = amplitude_ratio * np.sin(arg)
            # ``np.add.at`` applies the additions in array order, which keeps
            # each event's scatterer accumulation sequential and in order.
            np.add.at(gain, event_index, contribution)
        return gain

    def complex_gain(
        self, antenna_pos: Point3D, tag_pos: Point3D, wavelength_m: float
    ) -> complex:
        """Complex channel gain relative to the direct path."""
        return complex(
            self.complex_gains(
                antenna_pos.as_array(), tag_pos.as_array()[None, :], wavelength_m
            )[0]
        )

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

    def phase_perturbation_rad(
        self, antenna_pos: Point3D, tag_pos: Point3D, wavelength_m: float
    ) -> float:
        """Phase error (radians) added by multipath at this geometry."""
        return float(np.angle(self.complex_gain(antenna_pos, tag_pos, wavelength_m)))

    def amplitude_gain_db(
        self, antenna_pos: Point3D, tag_pos: Point3D, wavelength_m: float
    ) -> float:
        """RSSI perturbation (dB) caused by multipath fading at this geometry.

        Deep destructive fades are floored at −40 dB (see
        :meth:`fades_and_perturbations`).
        """
        gains = self.complex_gains(
            antenna_pos.as_array(), tag_pos.as_array()[None, :], wavelength_m
        )
        fade_db, _ = self.fades_and_perturbations(gains)
        return float(fade_db[0])


def tag_coupling_scatterers(
    tag_positions: "list[Point3D]",
    coupling_coefficient: float = 0.45,
    decay_scale_m: float = 0.02,
) -> tuple[Reflector, ...]:
    """Model mutual coupling between closely spaced tags as weak scatterers.

    Every tag re-radiates part of the field it receives; for a neighbouring
    tag a couple of centimetres away this parasitic path meaningfully distorts
    the measured phase, while beyond ~10 cm it is negligible.  Representing
    each tag as a scatterer with a short ``scattering_decay_m`` reproduces the
    paper's observation that ordering accuracy collapses when tags are ~2 cm
    apart and recovers by 8–10 cm (Figures 13/14).

    The scatterer co-located with the observed tag itself contributes a
    zero-excess-path term (a constant amplitude offset, no phase error), so no
    special-casing is needed.
    """
    if not 0.0 <= coupling_coefficient <= 1.0:
        raise ValueError("coupling coefficient must be in [0, 1]")
    if decay_scale_m <= 0:
        raise ValueError("decay scale must be positive")
    return tuple(
        Reflector(
            position=pos,
            reflection_coefficient=coupling_coefficient,
            scattering_decay_m=decay_scale_m,
        )
        for pos in tag_positions
    )


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
