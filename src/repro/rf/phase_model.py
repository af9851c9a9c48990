"""Backscatter phase model — Equation (1) of the paper.

The reader reports, for every decoded tag reply, the phase offset between the
transmitted carrier and the received backscattered signal::

    theta = (2*pi * 2*l / lambda + mu) mod 2*pi
    mu    = theta_Tx + theta_Rx + theta_TAG

where ``l`` is the one-way reader-antenna-to-tag distance, ``lambda`` the
carrier wavelength, and ``mu`` a device-dependent constant offset contributed
by the reader transmit chain, the reader receive chain, and the tag's
reflection characteristic.  COTS readers report the phase as a quantised word
(12 bits on the ImpinJ R420).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import PHASE_REPORT_BITS, TWO_PI


@dataclass(frozen=True, slots=True)
class DeviceOffsets:
    """Constant phase offsets contributed by the hardware (``mu`` in Eq. 1).

    All values are in radians.  They are constant for a given
    (reader, antenna, tag, channel) combination, which is why relative methods
    such as STPP can ignore their absolute value: they shift every sample of a
    phase profile by the same amount.
    """

    theta_tx: float = 0.0
    """Phase rotation of the reader transmit circuit."""

    theta_rx: float = 0.0
    """Phase rotation of the reader receive circuit."""

    theta_tag: float = 0.0
    """Phase rotation of the tag's reflection characteristic."""

    @property
    def total(self) -> float:
        """The combined offset ``mu``, wrapped to [0, 2*pi)."""
        return float(np.mod(self.theta_tx + self.theta_rx + self.theta_tag, TWO_PI))


def _is_scalar_like(value) -> bool:
    """True for inputs that should map to a Python ``float`` result.

    ``np.isscalar`` returns False for 0-d ndarrays and numpy scalar types, so
    functions keyed on it leaked 0-d arrays back to callers that passed
    scalar-like values.  ``np.ndim(x) == 0`` covers Python numbers, numpy
    scalars, and 0-d arrays uniformly.
    """
    return np.ndim(value) == 0


def wrap_phase(theta: "float | np.ndarray") -> "float | np.ndarray":
    """Wrap a phase (scalar or array) into [0, 2*pi).

    ``np.mod`` can return exactly ``2*pi`` for tiny negative inputs because of
    floating-point rounding; those values are folded back to 0 so the result
    is always strictly inside the interval.  Scalar-like inputs (Python
    floats, numpy scalars, 0-d arrays) yield a Python ``float``.
    """
    wrapped = np.mod(theta, TWO_PI)
    wrapped = np.where(wrapped >= TWO_PI, 0.0, wrapped)
    if _is_scalar_like(theta):
        return float(wrapped)
    return wrapped


def round_trip_phase(
    distance_m: "float | np.ndarray",
    wavelength_m: float,
    offsets: DeviceOffsets | None = None,
) -> "float | np.ndarray":
    """Evaluate Eq. (1): the wrapped phase of a backscatter round trip.

    Parameters
    ----------
    distance_m:
        One-way antenna-to-tag distance(s) in metres; must be non-negative.
    wavelength_m:
        Carrier wavelength in metres.
    offsets:
        Optional device offsets (``mu``).  Defaults to zero offsets.

    Returns
    -------
    float or numpy.ndarray
        Phase in radians, wrapped to [0, 2*pi).
    """
    if wavelength_m <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength_m}")
    dist = np.asarray(distance_m, dtype=float)
    if np.any(dist < 0):
        raise ValueError("distances must be non-negative")
    mu = offsets.total if offsets is not None else 0.0
    theta = TWO_PI * (2.0 * dist) / wavelength_m + mu
    wrapped = np.mod(theta, TWO_PI)
    if _is_scalar_like(distance_m):
        return float(wrapped)
    return wrapped


def quantise_phase(
    theta: "float | np.ndarray", bits: int = PHASE_REPORT_BITS
) -> "float | np.ndarray":
    """Quantise phase values to the resolution a COTS reader reports.

    The ImpinJ R420 reports phase as an integer word of ``bits`` bits mapped
    onto [0, 2*pi).  Quantisation keeps the value inside [0, 2*pi).
    """
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    levels = float(1 << bits)
    step = TWO_PI / levels
    wrapped = np.mod(np.asarray(theta, dtype=float), TWO_PI)
    quantised = np.mod(np.round(wrapped / step) * step, TWO_PI)
    if _is_scalar_like(theta):
        return float(quantised)
    return quantised
