"""Every cell of a repeated figure's grid gets seeds of its own.

A figure's seed rule maps a grid cell and a repetition to a seed.  A rule
that truncates a float axis (``int(0.29 * 100)`` is 28) gives two distinct
cells the same seeds, so they are the same random scenes.  These tests
capture the sweep plans the figure runner builds, at spacings off the
defaults, without running a repetition.
"""

from __future__ import annotations

import pytest

from repro.evaluation import experiments


class _Captured(Exception):
    """Raised in place of running the plans, once they are captured."""


def _captured_plans(monkeypatch, generator, **kwargs):
    plans = []

    def capture(batch, service=None):
        plans.extend(batch)
        raise _Captured

    monkeypatch.setattr(experiments, "run_plans", capture)
    with pytest.raises(_Captured):
        generator(**kwargs)
    return plans


@pytest.mark.parametrize(
    "generator, spacings",
    [
        # A 1 cm grid: 0.29 * 100 and 0.57 * 100 fall just below a whole number.
        (experiments.fig18_spacing_boxplot, tuple(k / 100 for k in range(1, 100))),
        # A 1 mm grid for the two staircase figures.
        (experiments.fig13_spacing_tag_moving, tuple(k / 1000 for k in range(1, 201))),
        (experiments.fig14_spacing_antenna_moving, tuple(k / 1000 for k in range(1, 201))),
    ],
    ids=["fig18", "fig13", "fig14"],
)
def test_distinct_spacings_get_distinct_seeds(monkeypatch, generator, spacings):
    plans = _captured_plans(monkeypatch, generator, spacings_m=spacings)
    assert len(plans) == len(spacings)
    seeds = [seed for plan in plans for seed in plan.seeds]
    assert len(seeds) == len(set(seeds))
