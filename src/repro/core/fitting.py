"""Quadratic fitting of V-zone profiles (paper §3.1.2, Figure 9).

Measured V-zones contain noise and missing samples, and the nadir may wrap
around 0/2π; fitting a quadratic to the (locally unwrapped) phase samples
recovers a robust estimate of

* the **bottom time** — when the antenna was perpendicular to the tag, which
  orders tags along the X axis;
* the **curvature** — the phase changing rate, which reflects the tag's
  distance from the trajectory and orders tags along the Y axis;
* the **bottom phase value** — the (unwrapped) minimum of the fit.

:func:`fit_windows` fits many windows in one set of array passes; every
window's result depends only on that window's samples, so a window fitted
alone and the same window fitted inside any batch agree bit for bit.
:func:`fit_vzone` is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rf.constants import TWO_PI
from .phase_profile import PhaseProfile

FIT_FAILURES = (
    "too_few_samples",
    "rank_deficient",
    "curvature_not_positive",
    "bottom_outside_window",
)
"""Why a fit is invalid, in the order the checks apply (see :func:`fit_windows`)."""

_TOO_FEW, _RANK_DEFICIENT, _NOT_CONVEX, _OUTSIDE = 1, 2, 3, 4

MIN_FIT_SAMPLES = 5
"""A window with fewer samples than this gets no fit (``too_few_samples``)."""


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

    failure: str | None
    """``None`` for a valid fit, else the first of :data:`FIT_FAILURES` that
    applies; the bottom is then the lowest sample unless the only failure is
    ``"bottom_outside_window"`` (the fitted bottom, clamped to the window)."""

    @property
    def valid(self) -> bool:
        """True when the data supported a V-shaped fit."""
        return self.failure is None


@dataclass(frozen=True, slots=True)
class WindowFits:
    """:func:`fit_windows`'s results as columns, one entry per window."""

    curvature: np.ndarray
    bottom_time_s: np.ndarray
    bottom_phase_rad: np.ndarray
    residual_rms_rad: np.ndarray
    sample_count: np.ndarray
    failure_code: np.ndarray
    """0 for a valid fit, else 1 + the index of the reason in :data:`FIT_FAILURES`."""

    def __len__(self) -> int:
        return int(self.failure_code.size)

    @property
    def valid(self) -> np.ndarray:
        """Boolean validity per window."""
        return self.failure_code == 0

    def fit(self, k: int) -> QuadraticFit:
        """Window ``k``'s result as a :class:`QuadraticFit`."""
        code = int(self.failure_code[k])
        return QuadraticFit(
            curvature=float(self.curvature[k]),
            bottom_time_s=float(self.bottom_time_s[k]),
            bottom_phase_rad=float(self.bottom_phase_rad[k]),
            residual_rms_rad=float(self.residual_rms_rad[k]),
            sample_count=int(self.sample_count[k]),
            failure=FIT_FAILURES[code - 1] if code else None,
        )


def fit_windows(
    times_s: np.ndarray,
    phases_rad: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
) -> WindowFits:
    """Fit a quadratic to each window ``[starts[k], stops[k])`` of the columns.

    Per window, as array operations over all windows at once: the phases are
    unwrapped (each step corrected by its nearest whole number of turns,
    which is ``np.unwrap``'s rule for phases wrapped to one period) and
    shifted by whole periods so their minimum lies in ``[0, 2π)``; the time axis is
    centred on its mean; the least-squares parabola is read off the
    orthogonal basis ``1, u, s² − α·u − β`` (``s`` the centred time, ``u = s −
    mean(s)``), which needs no matrix solve; the bottom is the vertex.

    Checks, first failing one wins (see :data:`FIT_FAILURES`): fewer than
    :data:`MIN_FIT_SAMPLES` samples; fewer than three distinct timestamps (no
    unique parabola); curvature ``a <= 0``; a vertex outside the window's
    time span, where the bottom time is clamped to the span.  The first two
    report curvature 0 and an infinite residual; every invalid fit except the
    last falls back to the lowest unwrapped sample as the bottom.

    Every per-window sum is one ``np.add.reduceat`` segment over samples
    gathered back to back, so a window's result never depends on the other
    windows of the call.  Times must be non-decreasing inside each window.
    """
    times = np.asarray(times_s, dtype=float)
    phases = np.asarray(phases_rad, dtype=float)
    if times.ndim != 1 or times.shape != phases.shape:
        raise ValueError("times and phases must be one-dimensional and the same shape")
    starts = np.asarray(starts, dtype=np.intp)
    stops = np.asarray(stops, dtype=np.intp)
    if starts.shape != stops.shape or starts.ndim != 1:
        raise ValueError("starts and stops must be one-dimensional and the same shape")
    counts = stops - starts
    if (starts < 0).any() or (stops > times.size).any() or (counts < 0).any():
        raise ValueError("window bounds must satisfy 0 <= start <= stop <= len(times)")

    live = np.flatnonzero(counts)
    n = counts[live]
    ends = np.cumsum(n)
    total = int(ends[-1]) if n.size else 0
    if total == 0:
        return _empty_fits(counts)

    # Gather the non-empty windows back to back: window j owns samples
    # [first[j], ends[j]) of t and p, and owner maps a sample to its window.
    first = ends - n
    owner = np.repeat(np.arange(n.size), n)
    source = np.arange(total) + (starts[live] - first)[owner]
    t = times[source]
    p = phases[source]
    # Sample pair (i, i + 1) lies inside one window where inner[i].
    inner = np.ones(total - 1, dtype=bool)
    inner[first[1:] - 1] = False
    dt = t[1:] - t[:-1]
    if (inner & (dt < 0)).any():
        raise ValueError("times must be non-decreasing inside each window")
    steps = np.zeros(total)
    steps[1:] = inner & (dt != 0)

    # Local unwrap: each step is corrected by the nearest whole number of
    # turns (np.unwrap's rule for phases wrapped to one period), and the
    # in-window running total of those whole numbers is exact.
    turns = np.empty(total)
    np.rint((p[1:] - p[:-1]) / -TWO_PI, out=turns[1:])
    turns[first] = 0.0
    turns = np.cumsum(turns)
    y = p + (turns - turns[first][owner]) * TWO_PI
    low = np.minimum.reduceat(y, first)
    shift = np.floor(low / TWO_PI) * TWO_PI
    y = y - shift[owner]
    lowest = low - shift
    at_lowest = np.where(y == lowest[owner], np.arange(total), total)
    fallback_time = t[np.minimum.reduceat(at_lowest, first)]

    # Least squares in the orthogonal basis 1, u, s² − α·u − β.
    count = n.astype(float)
    t_sum = np.add.reduceat(t, first)
    step_sum = np.add.reduceat(steps, first)
    centre = t_sum / count
    s = t - centre[owner]
    mean_u = np.add.reduceat(s, first) / count
    u = s - mean_u[owner]
    s2 = s * s
    block = np.empty((5, total))
    np.multiply(u, u, out=block[0])
    block[1] = s2
    np.multiply(s2, u, out=block[2])
    np.multiply(y, u, out=block[3])
    block[4] = y
    uu, s2_sum, s2u, yu, y_sum = np.add.reduceat(block, first, axis=1)
    uu[uu <= 0] = 1.0
    alpha = s2u / uu
    beta = s2_sum / count
    q = s2 - alpha[owner] * u - beta[owner]
    np.multiply(q, q, out=block[0])
    np.multiply(y, q, out=block[1])
    qq, yq = np.add.reduceat(block[:2], first, axis=1)
    qq[qq <= 0] = 1.0
    c0 = y_sum / count
    c1 = yu / uu
    c2 = yq / qq
    residual = y - (c0[owner] + c1[owner] * u + c2[owner] * q)
    window_rms = np.sqrt(np.add.reduceat(residual * residual, first) / count)
    # Back to the power basis in s (u = s − mean_u): a·s² + b·s + c.
    a = c2
    b = c1 - c2 * alpha
    c = c0 - c1 * mean_u + c2 * (alpha * mean_u - beta)

    enough = n >= MIN_FIT_SAMPLES
    fitted = enough & (step_sum >= 2)
    convex = fitted & (a > 0)
    a_safe = np.where(convex, a, 1.0)
    vertex_time = -b / (2.0 * a_safe) + centre
    window_start, window_end = t[first], t[ends - 1]
    inside = (window_start <= vertex_time) & (vertex_time <= window_end)
    code = np.zeros(n.size, dtype=np.int8)
    code[~inside] = _OUTSIDE
    code[~convex] = _NOT_CONVEX
    code[~fitted] = _RANK_DEFICIENT
    code[~enough] = _TOO_FEW
    fits = WindowFits(
        curvature=np.where(fitted, a, 0.0),
        bottom_time_s=np.where(
            convex, np.minimum(np.maximum(vertex_time, window_start), window_end), fallback_time
        ),
        bottom_phase_rad=np.where(convex, c - (b * b) / (4.0 * a_safe), lowest),
        residual_rms_rad=np.where(fitted, window_rms, np.inf),
        sample_count=counts,
        failure_code=code,
    )
    if live.size == counts.size:
        return fits
    scattered = _empty_fits(counts)
    for name in ("curvature", "bottom_time_s", "bottom_phase_rad", "residual_rms_rad", "failure_code"):
        getattr(scattered, name)[live] = getattr(fits, name)
    return scattered


def _empty_fits(counts: np.ndarray) -> WindowFits:
    """Results for windows without samples: no bottom, too few samples."""
    size = counts.size
    return WindowFits(
        curvature=np.zeros(size),
        bottom_time_s=np.full(size, np.nan),
        bottom_phase_rad=np.full(size, np.nan),
        residual_rms_rad=np.full(size, np.inf),
        sample_count=counts,
        failure_code=np.full(size, _TOO_FEW, dtype=np.int8),
    )


def fit_vzone(times_s: np.ndarray, phases_rad: np.ndarray) -> QuadraticFit:
    """Fit a quadratic to V-zone samples: :func:`fit_windows` over one window.

    The phases are locally unwrapped before fitting so a nadir that dips below
    0 (and wraps to just under 2π) does not corrupt the parabola.  An invalid
    fit names its reason in ``failure``; callers should then fall back to the
    time of the minimum observed phase, which the fit reports as its bottom.
    """
    times = np.asarray(times_s, dtype=float)
    phases = np.asarray(phases_rad, dtype=float)
    if times.shape != phases.shape:
        raise ValueError("times and phases must have the same shape")
    return fit_windows(times, phases, [0], [times.size]).fit(0)


def fit_vzone_profile(profile: PhaseProfile) -> QuadraticFit:
    """Convenience wrapper: fit the quadratic to an entire (V-zone) profile."""
    return fit_vzone(profile.timestamps_s, profile.phases_rad)
