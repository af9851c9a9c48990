"""Backscatter link budget: forward power, reverse power, and RSSI.

The RSSI that a COTS reader reports for a tag reply is the reverse-link
received power.  For a monostatic backscatter link (same antenna transmits and
receives) the received power follows the radar-like relation

    P_rx = P_tx + 2*G_reader + 2*G_tag - 2*FSPL(d) - L_backscatter

in dB, where ``FSPL`` is the one-way free-space path loss.  The forward-link
power at the tag determines whether the passive tag can energise at all
(tag sensitivity), which bounds the reading zone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import DirectionalAntenna
from .constants import (
    DEFAULT_READER_SENSITIVITY_DBM,
    DEFAULT_TAG_BACKSCATTER_LOSS_DB,
    DEFAULT_TAG_SENSITIVITY_DBM,
    DEFAULT_TX_POWER_DBM,
    SPEED_OF_LIGHT,
)


def free_space_path_loss_db(distance_m: "float | np.ndarray", frequency_hz: float) -> "float | np.ndarray":
    """One-way free-space path loss in dB.

    Distances below 1 cm are clamped to 1 cm to keep the model finite when a
    trajectory passes arbitrarily close to a tag.
    """
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    dist = np.maximum(np.asarray(distance_m, dtype=float), 0.01)
    loss = 20.0 * np.log10(4.0 * math.pi * dist * frequency_hz / SPEED_OF_LIGHT)
    if np.isscalar(distance_m):
        return float(loss)
    return loss


@dataclass(frozen=True, slots=True)
class LinkBudget:
    """Backscatter link budget for a reader/antenna/tag combination."""

    tx_power_dbm: float = DEFAULT_TX_POWER_DBM
    antenna: DirectionalAntenna = DirectionalAntenna()
    tag_gain_dbi: float = 2.0
    """Gain of the tag's dipole antenna (≈2 dBi for a half-wave dipole)."""

    backscatter_loss_db: float = DEFAULT_TAG_BACKSCATTER_LOSS_DB
    tag_sensitivity_dbm: float = DEFAULT_TAG_SENSITIVITY_DBM
    reader_sensitivity_dbm: float = DEFAULT_READER_SENSITIVITY_DBM

    cable_loss_db: float = 1.0
    """Loss of the coaxial cable between reader and antenna, applied twice."""

    def link_observables(
        self,
        antenna_pos: np.ndarray,
        tag_positions: np.ndarray,
        frequency_hz: float,
        distances: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(reverse-link power dBm, decodable mask) with geometry evaluated once.

        The reverse-link power is the RSSI before fading and noise.  A reply
        is decodable when the forward-link power reaches the tag's
        sensitivity (the passive tag energises) and the reverse-link power
        reaches the reader's.  ``distances`` are the antenna-to-tag
        distances, ``euclidean_distances(antenna_pos, tag_positions)``.
        """
        gain = self.antenna.gains_dbi_towards(antenna_pos, tag_positions)
        path_loss = free_space_path_loss_db(distances, frequency_hz)
        forward = (
            self.tx_power_dbm
            - self.cable_loss_db
            + gain
            + self.tag_gain_dbi
            - path_loss
        )
        reverse = (
            self.tx_power_dbm
            - 2.0 * self.cable_loss_db
            + 2.0 * gain
            + 2.0 * self.tag_gain_dbi
            - 2.0 * path_loss
            - self.backscatter_loss_db
        )
        decodable = (forward >= self.tag_sensitivity_dbm) & (
            reverse >= self.reader_sensitivity_dbm
        )
        return reverse, decodable
