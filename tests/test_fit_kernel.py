"""The batched closed-form V-zone fit against the per-window ``polyfit`` oracle.

Hypothesis draws V-zone windows — noisy parabolas, nadirs that wrap through
0/2π, 3 to 200 samples, repeated timestamps — and checks three properties:

* ``fit_windows`` agrees with ``tests/oracles/fitting.py`` (``np.polyfit``
  per window) on curvature, bottom phase and residual within 1e-9 relative
  or absolute, on the bottom time within that or the window's own
  rounding bound (:func:`_bottom_time_tolerance`), whichever is larger, and
  on the failure reason except where the window sits on a threshold (a
  flat parabola, a vertex on a window edge);
* composition invariance: a window fitted alone and the same window inside
  a shuffled batch of longer and shorter windows agree bit for bit, which is
  what lets one detection call serve any set of tags;
* ``longest_run_candidates`` picks the same three runs in the same order as
  the per-profile ``sort(reverse=True)`` it replaced, equal durations
  keeping their order in time.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles.fitting import local_unwrap, polyfit_vzone
from repro.core.fitting import FIT_FAILURES, WindowFits, fit_windows
from repro.core.vzone import longest_run_candidates
from repro.rf.constants import TWO_PI

TOL = 1e-9
EPS = float(np.finfo(float).eps)
FIELDS = ("curvature", "bottom_time_s", "bottom_phase_rad", "residual_rms_rad")


@st.composite
def vzone_windows(draw, min_size: int = 3, max_size: int = 200):
    """``(times, phases)`` of a noisy, wrapped parabola on a jittery clock."""
    n = draw(st.integers(min_size, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from([0.004, 0.01, 0.03]))
    repeat = draw(st.sampled_from([0.0, 0.3, 0.8]))
    gaps = np.where(rng.random(n - 1) < repeat, 0.0, step * rng.integers(1, 4, n - 1))
    times = draw(st.floats(0.0, 30.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    curvature = draw(st.one_of(st.just(0.0), st.floats(-5.0, 40.0)))
    bottom = times[0] + draw(st.floats(-0.5, 1.5)) * (times[-1] - times[0])
    noise = draw(st.sampled_from([0.0, 0.01, 0.1, 0.3]))
    offset = draw(st.floats(0.0, TWO_PI))
    phases = curvature * (times - bottom) ** 2 + offset + rng.normal(0.0, noise, n)
    return times, np.mod(phases, TWO_PI)


def _close(x: float, y: float) -> bool:
    if np.isinf(x) or np.isinf(y):
        return x == y
    return abs(x - y) <= TOL * max(1.0, abs(y))


def _bottom_time_tolerance(times: np.ndarray, phases: np.ndarray, curvature: float) -> float:
    """How far two float64 least-squares fits may put one window's bottom apart.

    On the centred axis ``s`` the bottom is ``t0 = −b/(2a)``, where
    ``(a, b, c) = P·y`` with ``P`` the pseudo-inverse of the design
    ``[s², s, 1]`` and ``y`` the unwrapped phases.  Its gradient in ``y`` is
    ``∇ = (b·P[0]/a − P[1]) / (2a)``.  Each fit is backward stable: it is
    the exact fit of phases perturbed by at most ``n·ε·‖y‖`` in norm (the
    rounding bound of a sum of ``n`` terms).  So to first order the two fits
    differ by at most ``2·n·ε·‖y‖·‖∇‖``, doubled here for the terms first
    order drops.  ``‖∇‖`` grows like ``1/(a·span·√n)``: a parabola that
    is flat over its window has a bottom that rounding alone moves.  A
    constant window of phases ~1e-230 fits a curvature ~1e-242, whose
    gradient squares past the float64 range.
    """
    y = local_unwrap(phases)
    s = times - times.mean()
    pinv = np.linalg.pinv(np.column_stack((s * s, s, np.ones_like(s))))
    b = float(pinv[1] @ y)
    with np.errstate(over="ignore"):
        gradient = (b * pinv[0] / curvature - pinv[1]) / (2.0 * curvature)
        # hypot's norm neither underflows on tiny phases nor overflows.
        return 4.0 * times.size * EPS * float(np.hypot.reduce(y) * np.hypot.reduce(gradient))


def _near_flat_window() -> tuple[np.ndarray, np.ndarray]:
    """51 even samples over 0.332 s of a parabola with curvature 1e-5 rad/s².

    ``a·span²`` is 1.1e-6, and the kernel and ``np.polyfit`` put the bottom
    4.5e-9 s apart, so a flat 1e-9 tolerance fails on it.
    """
    times = 0.75 + 0.332 * np.arange(51) / 50
    return times, np.mod(1e-5 * (times - (times[0] + 0.05 * 0.332)) ** 2 + 6.0, TWO_PI)


def _on_threshold(kernel, oracle, times: np.ndarray) -> bool:
    """True when the two fits straddle the ``a = 0`` or a window-edge check."""
    failures = {kernel.failure, oracle.failure}
    if "curvature_not_positive" in failures:
        return abs(oracle.curvature) <= TOL * max(1.0, abs(oracle.curvature))
    if failures == {None, "bottom_outside_window"}:
        edges = (float(times[0]), float(times[-1]))
        return any(_close(fit.bottom_time_s, edge) for fit in (kernel, oracle) for edge in edges)
    return False


@settings(max_examples=300, deadline=None)
@given(vzone_windows())
@example(_near_flat_window())
@example((np.array([8.0, 8.008, 8.02, 8.028, 8.036, 8.048]), np.full(6, 1.27202435e-230)))
def test_kernel_matches_polyfit_oracle(window):
    times, phases = window
    kernel = fit_windows(times, phases, [0], [times.size]).fit(0)
    oracle = polyfit_vzone(times, phases)
    assert kernel.sample_count == oracle.sample_count
    if kernel.failure != oracle.failure:
        assert _on_threshold(kernel, oracle, times), (kernel, oracle)
        return
    for name in FIELDS:
        if name != "bottom_time_s":
            assert _close(getattr(kernel, name), getattr(oracle, name)), (name, kernel, oracle)
        elif oracle.failure not in FIT_FAILURES[:3]:
            tolerance = max(
                TOL * max(1.0, abs(oracle.bottom_time_s)),
                _bottom_time_tolerance(times, phases, oracle.curvature),
            )
            assert abs(kernel.bottom_time_s - oracle.bottom_time_s) <= tolerance, (kernel, oracle)
    if oracle.failure in FIT_FAILURES[:3]:
        # The fallback bottom is the lowest unwrapped sample; on exact ties
        # either sample is right.
        unwrapped = local_unwrap(phases)
        lowest = times[np.abs(unwrapped - unwrapped.min()) <= TOL * max(1.0, unwrapped.min())]
        assert kernel.bottom_time_s in lowest


def _bits(fits: WindowFits, k: int) -> list[bytes]:
    return [
        np.asarray(getattr(fits, name)[k]).tobytes()
        for name in FIELDS + ("sample_count", "failure_code")
    ]


@settings(max_examples=150, deadline=None)
@given(
    vzone_windows(),
    st.lists(vzone_windows(min_size=1, max_size=260), min_size=1, max_size=6),
    st.randoms(use_true_random=False),
)
def test_window_result_is_independent_of_its_batch(target, others, random):
    """A window alone == the same window at any position of any batch."""
    alone = fit_windows(target[0], target[1], [0], [target[0].size])
    windows = [target, *others]
    order = list(range(len(windows)))
    random.shuffle(order)
    times, phases, starts, stops = [], [], [], []
    cursor = 0
    for k in order:
        pad = random.randint(0, 3)  # samples between windows belong to none
        window_times, window_phases = windows[k]
        times += [np.zeros(pad), window_times]
        phases += [np.zeros(pad), window_phases]
        starts.append(cursor + pad)
        cursor += pad + window_times.size
        stops.append(cursor)
    batch = fit_windows(np.concatenate(times), np.concatenate(phases), starts, stops)
    position = order.index(0)
    assert _bits(batch, position) == _bits(alone, 0)


def _reference_candidates(times: np.ndarray, phases: np.ndarray) -> list[tuple[int, int]]:
    """The per-profile run search the vectorised one replaced."""
    jumps = np.nonzero(np.abs(np.diff(phases)) > 0.75 * TWO_PI)[0] + 1
    boundaries = [0, *jumps.tolist(), phases.size]
    runs = [
        (float(times[end - 1] - times[start]), start, end)
        for start, end in zip(boundaries[:-1], boundaries[1:])
        if end - start >= 3
    ]
    runs.sort(key=lambda item: item[0], reverse=True)
    return [(start, end) for _, start, end in runs[:3]]


@st.composite
def run_profiles(draw):
    """Phases that wrap often on a coarse clock, so equal-duration runs abound."""
    n = draw(st.integers(0, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = np.cumsum(rng.integers(0, 3, n) * 0.5)
    phases = np.where(rng.random(n) < draw(st.floats(0.0, 0.6)), 6.0, 0.5) + rng.random(n) * 0.1
    return times, phases


@settings(max_examples=200, deadline=None)
@given(st.lists(run_profiles(), min_size=1, max_size=5))
def test_longest_run_candidates_match_stable_sort(profiles):
    times = np.concatenate([t for t, _ in profiles])
    phases = np.concatenate([p for _, p in profiles])
    stops = np.cumsum([t.size for t, _ in profiles])
    starts = stops - [t.size for t, _ in profiles]
    owner, run_start, run_end = longest_run_candidates(times, phases, starts, stops)
    got = list(zip(owner.tolist(), (run_start - starts[owner]).tolist(), (run_end - starts[owner]).tolist()))
    expected = [
        (k, start, end)
        for k, (t, p) in enumerate(profiles)
        for start, end in _reference_candidates(t, p)
    ]
    assert got == expected


def test_equal_duration_runs_keep_first_occurrence_order():
    # Thirty wrap-free runs of four samples, each lasting 1.5 s, alternate
    # between phase levels 0.5 and 6.0 rad: the top three are the first
    # three in time, in time order.
    index = np.arange(120)
    times = index * 0.5
    phases = np.where(index // 4 % 2 == 0, 0.5, 6.0) + index % 4 * 0.05
    owner, run_start, run_end = longest_run_candidates(times, phases, [0], [120])
    assert owner.tolist() == [0, 0, 0]
    assert run_start.tolist() == [0, 4, 8]
    assert run_end.tolist() == [4, 8, 12]
