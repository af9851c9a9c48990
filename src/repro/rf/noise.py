"""Measurement-noise models for phase, RSSI, and missed reads.

Three noise processes matter for reproducing the paper's measured profiles
(Figures 5 and 6) as opposed to the clean reference profiles (Figures 3 and 4):

* additive Gaussian **phase noise** on each reported phase sample;
* additive Gaussian **RSSI noise** on each reported RSSI sample;
* **dropouts** — reads that are lost either at random (decode errors) or
  because the channel is in a deep multipath fade, which is what fragments
  the profiles outside (and sometimes inside) the V-zone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class NoiseModel:
    """Per-sample measurement noise applied by the collector."""

    phase_noise_std_rad: float = 0.1
    """Standard deviation of Gaussian phase noise, radians (≈0.1 rad on COTS readers)."""

    rssi_noise_std_db: float = 1.5
    """Standard deviation of Gaussian RSSI noise, dB."""

    random_dropout_probability: float = 0.05
    """Probability that an otherwise-successful read is lost at random."""

    fade_dropout_threshold_db: float = -12.0
    """Multipath fades deeper than this (relative to the direct path) lose the read."""

    def __post_init__(self) -> None:
        if self.phase_noise_std_rad < 0:
            raise ValueError("phase noise std must be non-negative")
        if self.rssi_noise_std_db < 0:
            raise ValueError("RSSI noise std must be non-negative")
        if not 0.0 <= self.random_dropout_probability < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")

    def draw_event_noise_scheduled(
        self, deep_fade: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-event noise draws given precomputed deep-fade booleans.

        This is the single production implementation of the per-event
        draw-order contract: each event consumes the generator in the
        sequence dropout → phase → RSSI — a dropout uniform only when the
        fade is above the threshold (``deep_fade`` false) and the dropout
        probability is non-zero, then one normal per enabled noise term.
        The read-at-a-time oracle (``tests/oracles/scalar_sweep.py``) draws
        the same sequence through its own scalar draws, so the fused ==
        oracle tests check this order independently.

        Splitting the booleans from the fade values is what enables the
        fused two-phase sweep: the scheduling phase draws noise under
        *assumed* booleans before any physics has run, and the physics phase
        verifies the assumption afterwards (rolling the generator back on the
        rare mis-guess).
        """
        count = int(deep_fade.shape[0])
        dropout_p = self.random_dropout_probability
        phase_std = self.phase_noise_std_rad
        rssi_std = self.rssi_noise_std_db
        dropped = np.zeros(count, dtype=bool)
        phase_noise = np.zeros(count)
        rssi_noise = np.zeros(count)
        # One bulk conversion instead of a NumPy scalar read per event: this
        # loop runs once per inventory round on the sweep's critical path.
        deep_list = np.asarray(deep_fade).tolist()
        for i, deep in enumerate(deep_list):
            if deep:
                dropped[i] = True
            elif dropout_p != 0.0:
                dropped[i] = rng.random() < dropout_p
            if phase_std != 0.0:
                phase_noise[i] = rng.normal(0.0, phase_std)
            if rssi_std != 0.0:
                rssi_noise[i] = rng.normal(0.0, rssi_std)
        return dropped, phase_noise, rssi_noise


NOISELESS = NoiseModel(
    phase_noise_std_rad=0.0,
    rssi_noise_std_db=0.0,
    random_dropout_probability=0.0,
    fade_dropout_threshold_db=-1e9,
)
"""A noise model that changes nothing — used to generate reference-like profiles."""
