"""The composite RF channel: geometry in, (phase, RSSI, readable) out.

:class:`BackscatterChannel` glues together the pieces of the RF substrate —
carrier/wavelength (:mod:`repro.rf.constants`), the Eq. (1) phase model
(:mod:`repro.rf.phase_model`), the link budget (:mod:`repro.rf.propagation`),
multipath (:mod:`repro.rf.multipath`) and measurement noise
(:mod:`repro.rf.noise`) — into the single interface the simulator uses: given
an antenna position and a tag position, what does the reader observe?

Everything happens in two vectorized steps over a structure-of-arrays batch
of reply attempts (a whole sweep's event table at once):
:meth:`BackscatterChannel.sweep_physics` evaluates the rng-free physics
(geometry, link budget, multipath complex gain, clean Eq. (1) phase), and
:meth:`BackscatterChannel.observe_scheduled` combines it with noise columns
the scheduler drew earlier (perturbation, noise, quantisation, RSSI,
readability).  The read-at-a-time oracle in ``tests/oracles/scalar_sweep.py``
composes the same two steps one reply at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .antenna import DirectionalAntenna
from .constants import (
    DEFAULT_CHANNEL_INDEX,
    TWO_PI,
    channel_frequency_hz,
    channel_wavelength_m,
)
from .geometry import euclidean_distances
from .multipath import MultipathChannel
from .noise import NoiseModel
from .phase_model import DeviceOffsets, quantise_phase, wrap_phase
from .propagation import LinkBudget


@dataclass(frozen=True, slots=True)
class BatchObservation:
    """Structure-of-arrays observations for a batch of reply attempts."""

    phase_rad: np.ndarray
    """Reported phases in [0, 2*pi), shape ``(M,)``."""

    rssi_dbm: np.ndarray
    """Reported RSSI values in dBm, shape ``(M,)``."""

    true_distance_m: np.ndarray
    """Ground-truth one-way distances in metres, shape ``(M,)``."""

    readable: np.ndarray
    """Boolean mask of successfully decoded (non-dropped) replies."""

    def __len__(self) -> int:
        return int(self.phase_rad.size)


@dataclass(frozen=True, slots=True)
class SweepPhysics:
    """The rng-free physics of a batch of reply attempts.

    Everything an observation needs *except* the noise draws: geometry, link
    budget, multipath fades, and the clean Eq. (1) phase.  The fused
    two-phase sweep engine evaluates this once over a whole sweep's event
    table, then combines it with noise columns that were drawn earlier,
    during scheduling (:meth:`BackscatterChannel.observe_scheduled`); the
    scheduler's verified blocks evaluate it on a few rounds' events, to
    check the ``deep_fade`` booleans their draws depended on.
    """

    true_distance_m: np.ndarray
    """Antenna-to-tag one-way distances, shape ``(M,)``."""

    rssi_base_dbm: np.ndarray
    """Reverse-link power before fading and noise, shape ``(M,)``."""

    decodable: np.ndarray
    """Link-budget decodability mask (forward and reverse limits)."""

    fade_db: np.ndarray
    """Multipath fade relative to the direct path, dB."""

    deep_fade: np.ndarray
    """``fade_db <= noise.fade_dropout_threshold_db`` — the booleans that gate
    the dropout uniform draw (the only physics the rng order depends on)."""

    perturbation_rad: np.ndarray
    """Multipath phase perturbation, radians."""

    wrapped_phase_rad: np.ndarray
    """Clean Eq. (1) phase wrapped to [0, 2*pi), before perturbation/noise."""

    def __len__(self) -> int:
        return int(self.true_distance_m.size)


@dataclass(frozen=True, slots=True)
class BackscatterChannel:
    """A complete monostatic backscatter channel for one reader antenna."""

    channel_index: int = DEFAULT_CHANNEL_INDEX
    antenna: DirectionalAntenna = DirectionalAntenna()
    link_budget: LinkBudget = field(default_factory=LinkBudget)
    multipath: MultipathChannel = field(default_factory=MultipathChannel)
    noise: NoiseModel = field(default_factory=NoiseModel)
    device_offsets: DeviceOffsets = field(default_factory=DeviceOffsets)
    quantise: bool = True
    """Quantise phases to the 12-bit word COTS readers report."""

    @property
    def frequency_hz(self) -> float:
        """Carrier frequency of the configured channel."""
        return channel_frequency_hz(self.channel_index)

    @property
    def wavelength_m(self) -> float:
        """Carrier wavelength of the configured channel."""
        return channel_wavelength_m(self.channel_index)

    def sweep_physics(
        self,
        antenna_positions: np.ndarray,
        tag_positions: np.ndarray,
        device_offsets_total: "float | np.ndarray | None" = None,
        extra_positions: np.ndarray | None = None,
        extra_event_index: np.ndarray | None = None,
        tag_coupling_coefficient: float | None = None,
        tag_coupling_decay_m: float | None = None,
    ) -> SweepPhysics:
        """Evaluate the rng-free physics of a batch of reply attempts.

        One vectorized pass over geometry, link budget
        (:meth:`~repro.rf.propagation.LinkBudget.link_observables`), multipath
        complex gains, and the clean Eq. (1) phase.  Every value depends only
        on its own event, so evaluating a whole sweep's events at once
        produces bitwise the same values as evaluating them round by round
        or read by read.

        Parameters
        ----------
        antenna_positions, tag_positions:
            ``(M, 3)`` arrays of the antenna and tag position per attempt.
        device_offsets_total:
            Per-event device offset ``mu`` (radians).  Defaults to this
            channel's own :attr:`device_offsets`.  The reader passes a
            per-event array because ``theta_TAG`` differs per tag model.
        extra_positions, extra_event_index, tag_coupling_coefficient, tag_coupling_decay_m:
            Flattened per-event transient scatterers (tag coupling); see
            :meth:`repro.rf.multipath.MultipathChannel.complex_gains`.
        """
        antenna_positions = np.asarray(antenna_positions, dtype=float)
        tag_positions = np.asarray(tag_positions, dtype=float)
        if tag_positions.ndim != 2 or tag_positions.shape[-1] != 3:
            raise ValueError(
                f"tag positions must have shape (M, 3), got {tag_positions.shape}"
            )
        frequency = self.frequency_hz
        wavelength = self.wavelength_m
        if device_offsets_total is None:
            device_offsets_total = self.device_offsets.total

        distance = euclidean_distances(antenna_positions, tag_positions)
        # One pass over the link geometry yields both the base RSSI and the
        # decodability mask.
        rssi_base, decodable = self.link_budget.link_observables(
            antenna_positions, tag_positions, frequency, distances=distance
        )

        gains = self.multipath.complex_gains(
            antenna_positions,
            tag_positions,
            wavelength,
            extra_positions=extra_positions,
            extra_event_index=extra_event_index,
            tag_coupling_coefficient=tag_coupling_coefficient,
            tag_coupling_decay_m=tag_coupling_decay_m,
        )
        fade_db, perturbation = MultipathChannel.fades_and_perturbations(gains)

        # Clean Eq. (1) phase, wrapped — the first step of the phase
        # pipeline (perturbation/noise/quantisation come later, once the
        # noise columns are known).
        theta = TWO_PI * (2.0 * distance) / wavelength + device_offsets_total
        wrapped = np.mod(theta, TWO_PI)

        return SweepPhysics(
            true_distance_m=distance,
            rssi_base_dbm=rssi_base,
            decodable=decodable,
            fade_db=fade_db,
            deep_fade=fade_db <= self.noise.fade_dropout_threshold_db,
            perturbation_rad=perturbation,
            wrapped_phase_rad=wrapped,
        )

    def observe_scheduled(
        self,
        physics: SweepPhysics,
        dropped: np.ndarray,
        phase_noise: np.ndarray,
        rssi_noise: np.ndarray,
    ) -> BatchObservation:
        """Combine precomputed physics with pre-drawn noise columns.

        ``dropped`` holds the dropout decisions the scheduler drew; events in
        a deep fade are dropped regardless (they drew no dropout uniform),
        so the final dropout mask is ``dropped | deep_fade``.  The phase
        pipeline is: wrapped round-trip phase, + multipath perturbation,
        wrap, + noise, wrap, quantise.
        """
        final_dropped = np.asarray(dropped, dtype=bool) | physics.deep_fade
        readable = physics.decodable & ~final_dropped

        phase = wrap_phase(physics.wrapped_phase_rad + physics.perturbation_rad)
        phase = wrap_phase(phase + phase_noise)
        if self.quantise:
            phase = quantise_phase(phase)

        rssi = physics.rssi_base_dbm + physics.fade_db + rssi_noise

        return BatchObservation(
            phase_rad=phase,
            rssi_dbm=rssi,
            true_distance_m=physics.true_distance_m,
            readable=readable,
        )
