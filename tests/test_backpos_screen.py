"""BackPos's float32 screen and exact re-score against the meshgrid oracle.

Hypothesis draws candidate grids, antenna trajectories (moving, static, or
parked at a few positions), channels and snapshot phases (uniform, or
coherent with a true tag position plus noise), and checks:

* the float32 screen is within its derived ``epsilon`` of the float64
  oracle score on every cell;
* the screen's survivors always contain the oracle's argmax;
* the exact scorer gives the oracle's values bit for bit on the full grid,
  and a gathered subset of cells gets the same bits as in the full grid;
* ``hologram_peak`` picks the oracle's argmax, and a screen that breaks its
  bound is caught, counted and answered by a full-grid re-score;
* a flat hologram (every snapshot at one antenna position, here on a grid
  line or a grid midpoint, so many cells share a predicted phase) is scored
  once per distinct phase and still picks the oracle's argmax, the first
  of several tied cells included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.backpos import meshgrid_magnitude
from repro.baselines import backpos
from repro.baselines.backpos import (
    SCREEN_COUNTERS,
    hologram_exact,
    hologram_magnitude,
    hologram_peak,
    hologram_screen,
    screen_survivors,
    wrapped_phase,
)
from repro.rf.constants import TWO_PI, channel_wavelength_m
from repro.rf.geometry import Point3D

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def holograms(draw):
    """``(xs, ys, measurements, wavelength)`` of one tag's scoring problem."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    resolution = draw(st.sampled_from([0.01, 0.013, 0.02, 0.05]))
    x0, y0 = draw(st.floats(-1.5, 1.0)), draw(st.floats(-1.0, 1.0))
    xs = np.arange(x0, x0 + draw(st.floats(0.05, 1.6)), resolution)
    ys = np.arange(y0, y0 + draw(st.floats(0.05, 1.0)) + 1e-9, resolution)
    count = draw(st.integers(3, 8))
    height = draw(st.floats(0.0, 1.2))
    start = np.array([draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.0, 1.0)), height])
    motion = draw(st.sampled_from(["moving", "static", "parked"]))
    if motion == "moving":
        step = np.array([draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.2, 0.2)), 0.0])
        rows = start + np.arange(count)[:, None] * step
    elif motion == "static":
        rows = np.repeat(start[None, :], count, axis=0)
    else:
        stops = start + rng.uniform(-0.5, 0.5, (2, 3)) * [1.0, 1.0, 0.0]
        rows = stops[rng.integers(0, 2, count)]
    positions = [Point3D(*map(float, row)) for row in rows]
    wavelength = channel_wavelength_m(draw(st.integers(0, 15)))
    if draw(st.booleans()):
        phases = rng.uniform(0.0, TWO_PI, count)
    else:
        tag = np.array([rng.uniform(xs[0], xs[-1]), rng.uniform(ys[0], ys[-1]), 0.0])
        distances = np.linalg.norm(rows - tag, axis=1)
        noise = draw(st.sampled_from([0.0, 0.05, 0.5]))
        phases = 2.0 * TWO_PI * distances / wavelength + draw(st.floats(0.0, TWO_PI))
        phases = np.mod(phases + rng.normal(0.0, noise, count), TWO_PI)
    return xs, ys, list(zip(positions, map(float, phases))), wavelength


@SETTINGS
@given(holograms())
def test_screen_is_within_epsilon_of_the_oracle(problem):
    xs, ys, measurements, wavelength = problem
    screened, epsilon = hologram_screen(xs, ys, measurements, wavelength)
    oracle = meshgrid_magnitude(xs, ys, measurements, wavelength)
    assert screened.dtype == np.float32 and screened.shape == oracle.shape
    assert np.max(np.abs(screened - oracle)) <= epsilon


@SETTINGS
@given(holograms())
def test_survivors_contain_the_oracle_argmax(problem):
    xs, ys, measurements, wavelength = problem
    survivors = screen_survivors(*hologram_screen(xs, ys, measurements, wavelength))
    oracle = meshgrid_magnitude(xs, ys, measurements, wavelength)
    assert int(np.argmax(oracle)) in survivors
    assert np.all(np.diff(survivors) > 0)


@SETTINGS
@given(holograms(), st.integers(0, 2**32 - 1))
def test_gathered_rescore_matches_the_full_grid_bit_for_bit(problem, seed):
    xs, ys, measurements, wavelength = problem
    full = hologram_exact(xs[:, None], ys[None, :], measurements, wavelength)
    oracle = meshgrid_magnitude(xs, ys, measurements, wavelength)
    assert full.tobytes() == oracle.tobytes()
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, min(full.size, 40) + 1))
    cells = np.sort(rng.choice(full.size, size, replace=False))
    ix, iy = np.divmod(cells, ys.size)
    gathered = hologram_exact(xs[ix], ys[iy], measurements, wavelength)
    assert gathered.tobytes() == full.ravel()[cells].tobytes()


@SETTINGS
@given(holograms())
def test_peak_is_the_oracle_argmax(problem):
    xs, ys, measurements, wavelength = problem
    counts = dict.fromkeys(SCREEN_COUNTERS, 0)
    peak = hologram_peak(xs, ys, measurements, wavelength, counts)
    oracle = meshgrid_magnitude(xs, ys, measurements, wavelength)
    assert peak == int(np.argmax(oracle))
    assert counts["screen_misses"] == 0
    flat = len({position for position, _ in measurements}) == 1
    assert counts["flat_hologram_tags"] == int(flat)
    assert counts["cells_screened"] == (0 if flat else oracle.size)
    assert 1 <= counts["cells_rescored"] <= oracle.size


def test_a_screen_that_breaks_its_bound_is_counted_and_rescored(monkeypatch):
    xs = np.arange(-0.3, 0.5, 0.01)
    ys = np.arange(-0.2, 0.2 + 1e-9, 0.01)
    positions = [Point3D(x, 0.0, 0.4) for x in (-0.2, 0.0, 0.2, 0.4)]
    measurements = list(zip(positions, [0.3, 2.0, 4.1, 5.5]))
    wavelength = channel_wavelength_m(6)
    screen = hologram_screen

    def flattened(*args):
        screened, epsilon = screen(*args)
        return np.full_like(screened, screened.max()), epsilon

    monkeypatch.setattr(backpos, "hologram_screen", flattened)
    counts = dict.fromkeys(SCREEN_COUNTERS, 0)
    peak = hologram_peak(xs, ys, measurements, wavelength, counts)
    oracle = meshgrid_magnitude(xs, ys, measurements, wavelength)
    assert peak == int(np.argmax(oracle))
    assert counts["screen_misses"] == 1
    assert counts["cells_rescored"] == 2 * oracle.size


@st.composite
def flat_holograms(draw):
    """A static antenna on a grid line or at a grid midpoint of both axes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    resolution = draw(st.sampled_from([0.01, 0.013, 0.02, 0.05]))
    x0, y0 = draw(st.floats(-1.5, 1.0)), draw(st.floats(-1.0, 1.0))
    xs = np.arange(x0, x0 + draw(st.floats(0.1, 1.6)), resolution)
    ys = np.arange(y0, y0 + draw(st.floats(0.1, 1.0)) + 1e-9, resolution)
    ix = draw(st.integers(0, xs.size - 2))
    iy = draw(st.integers(0, ys.size - 2))
    midpoint = draw(st.booleans())
    x = (xs[ix] + xs[ix + 1]) / 2.0 if midpoint else xs[ix]
    y = (ys[iy] + ys[iy + 1]) / 2.0 if midpoint else ys[iy]
    antenna = Point3D(float(x), float(y), draw(st.sampled_from([0.0, 0.3, 0.45])))
    count = draw(st.integers(3, 8))
    phases = rng.uniform(0.0, TWO_PI, count)
    wavelength = channel_wavelength_m(draw(st.integers(0, 15)))
    return xs, ys, [(antenna, float(phase)) for phase in phases], wavelength


def assert_distinct_phases_cover_the_grid(xs, ys, antenna, wavelength, grid):
    """``grid`` holds each distinct phase once, ascending, with its first cell."""
    values, first, by_index = grid
    wrapped = wrapped_phase(xs[:, None], ys[None, :], antenna, wavelength).ravel()
    assert np.all(np.diff(values) > 0)
    assert np.all(np.diff(first) > 0)
    assert values[by_index].tobytes() == wrapped[first].tobytes()
    assert set(wrapped.tolist()) == set(values.tolist())
    seen = {}
    for index, value in enumerate(wrapped.tolist()):
        seen.setdefault(value, index)
    assert sorted(seen.values()) == first.tolist()


def assert_flat_peak_is_the_oracle_argmax(xs, ys, measurements, wavelength):
    counts = dict.fromkeys(SCREEN_COUNTERS, 0)
    grids = {}
    peak = hologram_peak(xs, ys, measurements, wavelength, counts, grids)
    oracle = meshgrid_magnitude(xs, ys, measurements, wavelength).ravel()
    assert peak == int(np.argmax(oracle))
    assert peak == int(np.flatnonzero(oracle == oracle.max())[0])
    ((antenna, grid),) = grids.items()
    assert antenna == measurements[0][0]
    assert_distinct_phases_cover_the_grid(xs, ys, antenna, wavelength, grid)
    # Equal phases score equal bits: each distinct phase's score is the
    # oracle's score of every cell holding it, the first one included.
    values, first, by_index = grid
    scored = hologram_magnitude([(values, phase) for _, phase in measurements])
    assert scored[by_index].tobytes() == oracle[first].tobytes()
    assert counts == {
        "flat_hologram_tags": 1,
        "cells_screened": 0,
        "cells_rescored": values.size,
        "screen_misses": 0,
    }
    return oracle, values


@SETTINGS
@given(flat_holograms())
def test_flat_peak_is_the_oracle_argmax_on_repeated_phases(problem):
    assert_flat_peak_is_the_oracle_argmax(*problem)


def test_flat_peak_takes_the_first_of_tied_cells():
    # A grid symmetric about the antenna: mirrored cells have bit-equal
    # distances, so the maximum is reached at several cells.
    xs = np.arange(-30, 31) * 0.01
    ys = np.arange(-12, 13) * 0.01
    antenna = Point3D(0.0, 0.0, 0.4)
    measurements = [(antenna, phase) for phase in (0.3, 2.0, 4.1, 5.5)]
    wavelength = channel_wavelength_m(6)
    oracle, values = assert_flat_peak_is_the_oracle_argmax(xs, ys, measurements, wavelength)
    assert np.count_nonzero(oracle == oracle.max()) > 1
    assert values.size < oracle.size // 3


@pytest.mark.parametrize(
    "antenna, phases",
    [
        # A NaN measured phase makes every magnitude NaN.
        (Point3D(0.05, 0.0, 0.3), (0.3, float("nan"), 4.1)),
        # A NaN antenna coordinate makes every predicted phase NaN, and NaN
        # equals no value, so each cell is a distinct phase of its own.
        (Point3D(float("nan"), 0.0, 0.3), (0.3, 2.0, 4.1)),
    ],
    ids=["nan-phase", "nan-antenna"],
)
def test_flat_nan_follows_argmax(antenna, phases):
    # argmax takes the first NaN, cell 0, and so must the distinct-phase pick.
    xs = np.arange(-0.2, 0.2, 0.01)
    ys = np.arange(-0.1, 0.1 + 1e-9, 0.01)
    measurements = [(antenna, phase) for phase in phases]
    counts = dict.fromkeys(SCREEN_COUNTERS, 0)
    peak = hologram_peak(xs, ys, measurements, channel_wavelength_m(6), counts)
    oracle = meshgrid_magnitude(xs, ys, measurements, channel_wavelength_m(6))
    assert np.all(np.isnan(oracle))
    assert peak == int(np.argmax(oracle)) == 0
