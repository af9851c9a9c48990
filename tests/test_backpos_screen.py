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
  bound is caught, counted and answered by a full-grid re-score.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.backpos import meshgrid_magnitude
from repro.baselines import backpos
from repro.baselines.backpos import (
    SCREEN_COUNTERS,
    hologram_exact,
    hologram_peak,
    hologram_screen,
    screen_survivors,
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
