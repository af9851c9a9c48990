"""Quadratic fitting of V-zone profiles (paper §3.1.2, Figure 9).

Measured V-zones contain noise and missing samples, and the nadir may wrap
around 0/2π; fitting a quadratic to the (locally unwrapped) phase samples
recovers a robust estimate of

* the **bottom time** — when the antenna was perpendicular to the tag, which
  orders tags along the X axis;
* the **curvature** — the phase changing rate, which reflects the tag's
  distance from the trajectory and orders tags along the Y axis;
* the **bottom phase value** — the (unwrapped) minimum of the fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rf.constants import TWO_PI
from .phase_profile import PhaseProfile


@dataclass(frozen=True, slots=True)
class QuadraticFit:
    """Result of fitting ``phase ≈ a·(t − t0)² + c`` to a V-zone."""

    curvature: float
    """Coefficient ``a`` (rad/s²); positive for a genuine V shape."""

    bottom_time_s: float
    """Time ``t0`` of the fitted minimum."""

    bottom_phase_rad: float
    """Fitted (unwrapped) phase value at the minimum."""

    residual_rms_rad: float
    """Root-mean-square residual of the fit, radians."""

    sample_count: int
    """Number of samples used in the fit."""

    valid: bool
    """False when the data did not support a V-shaped fit (see ``evaluate``)."""

    def evaluate(self, times_s: np.ndarray) -> np.ndarray:
        """Evaluate the fitted parabola at ``times_s``."""
        times = np.asarray(times_s, dtype=float)
        return self.curvature * (times - self.bottom_time_s) ** 2 + self.bottom_phase_rad

    def depth_at(self, offset_s: float) -> float:
        """Fitted phase rise ``a·offset²`` at ``offset_s`` away from the bottom."""
        return self.curvature * offset_s * offset_s

    def vzone_halfwidth_s(self) -> float:
        """Half-width of the V-zone implied by the fit (phase rise of 2π).

        Returns ``inf`` for non-positive curvature.
        """
        if self.curvature <= 0:
            return float("inf")
        return float(np.sqrt(TWO_PI / self.curvature))


def _local_unwrap(phases: np.ndarray) -> np.ndarray:
    """Unwrap a V-zone phase sequence and normalise it to start near its data."""
    unwrapped = np.unwrap(np.asarray(phases, dtype=float))
    # Keep values in a friendly range: shift by whole periods so the minimum
    # lies within [0, 2*pi).  The shift does not change the fit's time axis.
    minimum = float(np.min(unwrapped))
    shift = np.floor(minimum / TWO_PI) * TWO_PI
    return unwrapped - shift


def fit_vzone(
    times_s: np.ndarray,
    phases_rad: np.ndarray,
    min_samples: int = 5,
) -> QuadraticFit:
    """Fit a quadratic to V-zone samples.

    The phases are locally unwrapped before fitting so a nadir that dips below
    0 (and wraps to just under 2π) does not corrupt the parabola.  The fit is
    flagged invalid when there are fewer than ``min_samples`` samples, when
    they all share one timestamp (no time axis to fit along), or when the
    fitted curvature is not positive; callers should then fall back to the
    time of the minimum observed phase.
    """
    times = np.asarray(times_s, dtype=float)
    phases = np.asarray(phases_rad, dtype=float)
    if times.shape != phases.shape:
        raise ValueError("times and phases must have the same shape")
    if times.size == 0:
        return QuadraticFit(
            curvature=0.0,
            bottom_time_s=float("nan"),
            bottom_phase_rad=float("nan"),
            residual_rms_rad=float("inf"),
            sample_count=0,
            valid=False,
        )

    unwrapped = _local_unwrap(phases)
    fallback_time = float(times[int(np.argmin(unwrapped))])
    fallback_phase = float(np.min(unwrapped))

    if times.size < max(3, min_samples) or times.min() == times.max():
        return QuadraticFit(
            curvature=0.0,
            bottom_time_s=fallback_time,
            bottom_phase_rad=fallback_phase,
            residual_rms_rad=float("inf"),
            sample_count=int(times.size),
            valid=False,
        )

    # Centre the time axis for numerical conditioning.
    t_centre = float(np.mean(times))
    shifted = times - t_centre
    coeffs = np.polyfit(shifted, unwrapped, deg=2)
    a, b, c = (float(coeffs[0]), float(coeffs[1]), float(coeffs[2]))
    residuals = unwrapped - np.polyval(coeffs, shifted)
    rms = float(np.sqrt(np.mean(residuals**2)))

    if a <= 0.0:
        return QuadraticFit(
            curvature=a,
            bottom_time_s=fallback_time,
            bottom_phase_rad=fallback_phase,
            residual_rms_rad=rms,
            sample_count=int(times.size),
            valid=False,
        )

    bottom_shifted = -b / (2.0 * a)
    bottom_time = bottom_shifted + t_centre
    bottom_phase = c - (b * b) / (4.0 * a)

    # A bottom far outside the observed window means the data only covered one
    # flank of the V; the time estimate is then an extrapolation.  Clamp it to
    # the window but keep the fit marked valid only if it is inside.
    window_start, window_end = float(times[0]), float(times[-1])
    inside = window_start <= bottom_time <= window_end
    if not inside:
        bottom_time = min(max(bottom_time, window_start), window_end)

    return QuadraticFit(
        curvature=a,
        bottom_time_s=float(bottom_time),
        bottom_phase_rad=float(bottom_phase),
        residual_rms_rad=rms,
        sample_count=int(times.size),
        valid=bool(inside),
    )


def fit_vzone_profile(profile: PhaseProfile, min_samples: int = 5) -> QuadraticFit:
    """Convenience wrapper: fit the quadratic to an entire (V-zone) profile."""
    return fit_vzone(profile.timestamps_s, profile.phases_rad, min_samples=min_samples)
