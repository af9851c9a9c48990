"""Bit-identity pins: spec-built legacy scenarios equal the bespoke factories.

The migration contract of the declarative scenario matrix is that moving the
library/airport/warehouse workloads into ``specs/*.json`` changes *nothing*
about what the leaderboard measures: the spec path must call the same
generators with the same arguments and seeds, producing the same simulated
:class:`ReadLog` read for read.  These tests build each legacy scenario both
ways — through :func:`repro.scenarios.scenario_experiment` and through the
retained reference factories — at the exact seeds the leaderboard derives
(``DEFAULT_SEED + 31 * index + rep``) and require full equality, not
statistical closeness.
"""

from __future__ import annotations

import pytest

from repro.scenarios import DEFAULT_SEED, default_registry, scenario_experiment
from repro.scenarios.registry import SEED_STRIDE
from repro.workloads.warehouse import ConveyorConfig, conveyor_experiment

from oracles.legacy_scenarios import airport_experiment, library_experiment

REPS = (0, 1)


def leaderboard_seed(scenario: str, rep: int) -> int:
    """The exact seed the leaderboard hands this scenario repetition."""
    index = default_registry().index_of(scenario)
    return DEFAULT_SEED + SEED_STRIDE * index + rep


def spec_built(scenario: str, rep: int):
    spec = default_registry().get(scenario)
    return scenario_experiment(rep, leaderboard_seed(scenario, rep), spec=spec)


def assert_experiments_identical(ours, reference):
    assert ours.target_ids == reference.target_ids
    assert ours.true_x == reference.true_x
    assert ours.true_y == reference.true_y
    assert ours.reference_positions == reference.reference_positions
    assert ours.read_log == reference.read_log


class TestLegacyTrioBitIdentity:
    def test_legacy_trio_keeps_its_seed_indices(self):
        assert [leaderboard_seed(name, 0) for name in ("library", "airport", "warehouse")] == [
            DEFAULT_SEED,
            DEFAULT_SEED + SEED_STRIDE,
            DEFAULT_SEED + 2 * SEED_STRIDE,
        ]

    @pytest.mark.parametrize("rep", REPS)
    def test_library_spec_matches_reference_factory(self, rep):
        seed = leaderboard_seed("library", rep)
        assert_experiments_identical(
            spec_built("library", rep), library_experiment(rep, seed)
        )

    @pytest.mark.parametrize("rep", REPS)
    def test_airport_spec_matches_reference_factory(self, rep):
        seed = leaderboard_seed("airport", rep)
        assert_experiments_identical(
            spec_built("airport", rep), airport_experiment(rep, seed)
        )

    @pytest.mark.parametrize("rep", REPS)
    def test_warehouse_spec_matches_reference_factory(self, rep):
        # The pre-registry leaderboard ran the conveyor at 2 lanes x 5
        # cartons (not the ConveyorConfig defaults) — pin that exact shape.
        seed = leaderboard_seed("warehouse", rep)
        assert_experiments_identical(
            spec_built("warehouse", rep),
            conveyor_experiment(
                rep, seed, config=ConveyorConfig(lanes=2, cartons_per_lane=5)
            ),
        )
