"""Shared fixtures and hypothesis profiles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

# Tier-1 draws the same examples on every run: hypothesis seeds each test
# from a hash of the test itself and neither reads nor writes the example
# database, so a failure replays on the next run and a pass stays a pass.
settings.register_profile("tier1", derandomize=True)
# CI's exploration step (``--hypothesis-profile=explore``): fresh random
# examples, EXPLORE_FACTOR times each test's tier-1 count, and failures
# saved to ``.hypothesis/`` with a reproduction blob, so a find can be
# replayed and committed as an ``@example``.
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile("tier1")

EXPLORE_FACTOR = 5


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: full-scale stress/regression tests (CI smoke runs their "
        "reduced-scale twins; deselect with -m 'not slow')",
    )


def pytest_collection_modifyitems(items):
    """Under the explore profile, scale every property test's example count.

    Each test sets its own ``max_examples``, which outranks any profile, so
    the count is raised on the test itself, the way hypothesis's own pytest
    plugin overrides a test's settings.
    """
    if settings.get_current_profile_name() != "explore":
        return
    for item in items:
        test = getattr(item.obj, "__func__", item.obj)
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None:
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=EXPLORE_FACTOR * own.max_examples
            )

from repro.core.phase_profile import PhaseProfile
from repro.rf.geometry import Point3D
from repro.rfid.tag import make_tags
from repro.simulation.collector import collect_sweep
from repro.simulation.presets import (
    standard_antenna_moving_scene,
    standard_tag_moving_scene,
)


@pytest.fixture(scope="session")
def small_row_sweep():
    """One simulated antenna-moving sweep over a 4-tag row (session-cached)."""
    positions = [Point3D(i * 0.10, 0.0, 0.0) for i in range(4)]
    tags = make_tags(positions, seed=42)
    scene = standard_antenna_moving_scene(tags, seed=42)
    return tags, scene, collect_sweep(scene)


@pytest.fixture(scope="session")
def staircase_sweep():
    """One simulated tag-moving sweep over a 6-tag staircase (session-cached)."""
    positions = [Point3D(i * 0.10, (i % 3) * 0.10, 0.0) for i in range(6)]
    tags = make_tags(positions, seed=7)
    scene = standard_tag_moving_scene(tags, seed=7)
    return tags, scene, collect_sweep(scene)


@pytest.fixture()
def synthetic_vzone_profile():
    """A clean synthetic profile with a known V-zone bottom at t = 2.0 s."""
    times = np.linspace(0.0, 4.0, 400)
    wavelength = 0.3262
    distance = np.sqrt((0.3 * (times - 2.0)) ** 2 + 0.35**2)
    phases = np.mod(4.0 * np.pi * distance / wavelength, 2.0 * np.pi)
    return PhaseProfile(tag_id="synthetic", timestamps_s=times, phases_rad=phases)
