"""The pre-registry library and airport scenario factories.

The leaderboard builds every scenario from its committed spec
(``src/repro/scenarios/specs/*.json``).  These two factories are the bespoke
code the ``library.json`` and ``airport.json`` specs replaced, kept verbatim
as the ground truth ``tests/test_scenario_equivalence.py`` pins the
spec-built experiments against, bit for bit.
"""

from __future__ import annotations

from repro.evaluation.runner import standard_experiment
from repro.rf.geometry import Point3D
from repro.workloads.airport import PAPER_PERIODS, baggage_batch
from repro.workloads.layouts import reference_tag_grid
from repro.workloads.library import generate_bookshelf


def _sparse_reference_grid(positions: list[Point3D]) -> list[Point3D]:
    """The legacy sparse Landmarc grid (see ``scenarios.builders``)."""
    xs = [p.x for p in positions]
    ys = [p.y for p in positions]
    span_x = max(xs) - min(xs) + 0.2
    span_y = max(ys) - min(ys) + 0.2
    return reference_tag_grid(
        span_x,
        span_y,
        spacing_m=max(0.25, span_x / 4.0),
        origin=Point3D(min(xs) - 0.1, min(ys) - 0.1, 0.0),
    )


def library_experiment(rep_index: int, seed: int, books_per_level: int = 12):
    """Reference implementation of the library workload (pre-registry)."""
    shelf = generate_bookshelf(levels=1, books_per_level=books_per_level, seed=seed)
    positions = [shelf.spine_positions()[book.call_number] for book in shelf.books]
    return standard_experiment(
        positions,
        seed=seed,
        tag_moving=False,
        reference_grid=_sparse_reference_grid(positions),
    )


def airport_experiment(rep_index: int, seed: int, bag_count: int = 10):
    """Reference implementation of the airport workload (pre-registry)."""
    period = PAPER_PERIODS[rep_index % len(PAPER_PERIODS)]
    batch = baggage_batch(period, bag_count, batch_index=rep_index, seed=seed)
    positions = [tag.position for tag in batch.tags]
    return standard_experiment(
        positions,
        seed=seed,
        tag_moving=True,
        reference_grid=_sparse_reference_grid(positions),
    )
