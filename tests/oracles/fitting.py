"""The per-window ``np.polyfit`` V-zone fit: the oracle for ``fit_windows``.

:func:`polyfit_vzone` is ``fit_vzone`` as it was before the batched
closed-form kernel: ``np.unwrap``, a degree-2 ``np.polyfit`` on the centred
time axis, ``np.polyval`` residuals.  It applies the same checks in the same
order, with the rank check (fewer than three distinct timestamps) made before
``polyfit`` is called, so it never warns.  ``tests/test_fit_kernel.py``
compares the two on generated windows.
"""

from __future__ import annotations

import numpy as np

from repro.core.fitting import QuadraticFit
from repro.rf.constants import TWO_PI


def local_unwrap(phases: np.ndarray) -> np.ndarray:
    """``np.unwrap`` shifted by whole periods so the minimum lies in [0, 2π)."""
    unwrapped = np.unwrap(np.asarray(phases, dtype=float))
    return unwrapped - np.floor(float(np.min(unwrapped)) / TWO_PI) * TWO_PI


def polyfit_vzone(
    times_s: np.ndarray, phases_rad: np.ndarray, min_samples: int = 5
) -> QuadraticFit:
    """Fit ``phase ≈ a·(t − t0)² + c`` to one window with ``np.polyfit``."""
    times = np.asarray(times_s, dtype=float)
    phases = np.asarray(phases_rad, dtype=float)
    if times.size == 0:
        return QuadraticFit(0.0, float("nan"), float("nan"), float("inf"), 0, "too_few_samples")

    unwrapped = local_unwrap(phases)
    fallback_time = float(times[int(np.argmin(unwrapped))])
    fallback_phase = float(np.min(unwrapped))
    count = int(times.size)
    if count < max(3, min_samples):
        failure = "too_few_samples"
    elif np.unique(times).size < 3:
        failure = "rank_deficient"
    else:
        failure = None
    if failure is not None:
        return QuadraticFit(0.0, fallback_time, fallback_phase, float("inf"), count, failure)

    t_centre = float(np.mean(times))
    shifted = times - t_centre
    coeffs = np.polyfit(shifted, unwrapped, deg=2)
    a, b, c = (float(coeffs[0]), float(coeffs[1]), float(coeffs[2]))
    residuals = unwrapped - np.polyval(coeffs, shifted)
    rms = float(np.sqrt(np.mean(residuals**2)))
    if a <= 0.0:
        return QuadraticFit(a, fallback_time, fallback_phase, rms, count, "curvature_not_positive")

    bottom_time = -b / (2.0 * a) + t_centre
    bottom_phase = c - (b * b) / (4.0 * a)
    window_start, window_end = float(times[0]), float(times[-1])
    if window_start <= bottom_time <= window_end:
        return QuadraticFit(a, bottom_time, bottom_phase, rms, count, None)
    clamped = min(max(bottom_time, window_start), window_end)
    return QuadraticFit(a, clamped, bottom_phase, rms, count, "bottom_outside_window")
