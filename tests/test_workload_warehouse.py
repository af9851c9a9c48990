"""Warehouse conveyor workload: generation, belt motion, end-to-end scoring.

The acceptance test for the workload lives here: one sweep-engine plan runs
conveyor batches through the full simulation and scores **all five** baseline
schemes on them, serially and sharded.
"""

import numpy as np
import pytest

from repro.evaluation.sweep import SweepService
from repro.workloads.warehouse import (
    ConveyorBatch,
    ConveyorConfig,
    conveyor_batch,
    conveyor_experiment,
    conveyor_scene,
    warehouse_sweep_plan,
)

FIVE_SCHEMES = ["G-RSSI", "OTrack", "Landmarc", "BackPos", "STPP"]


def lane_of(tag) -> int:
    """A carton's lane, read off its ``CART-<batch>-<lane>-<position>`` label."""
    return int(tag.label.split("-")[2])


class TestConveyorBatch:
    def test_carton_count_and_lanes(self):
        config = ConveyorConfig(lanes=3, cartons_per_lane=4)
        batch = conveyor_batch(config, seed=1)
        assert len(batch.tags.ids()) == 12
        lanes = {lane_of(tag) for tag in batch.tags}
        assert lanes == {0, 1, 2}

    def test_lane_geometry(self):
        config = ConveyorConfig(lanes=2, lane_pitch_m=0.2, lateral_jitter_m=0.05)
        batch = conveyor_batch(config, seed=2)
        for tag in batch.tags:
            lane = lane_of(tag)
            assert abs(tag.position.y - lane * 0.2) <= 0.05 + 1e-9

    def test_within_lane_gaps_in_range(self):
        config = ConveyorConfig(lanes=1, cartons_per_lane=6, min_gap_m=0.10, max_gap_m=0.20)
        batch = conveyor_batch(config, seed=3)
        xs = sorted(tag.position.x for tag in batch.tags)
        gaps = np.diff(xs)
        assert np.all(gaps >= 0.10 - 1e-9)
        assert np.all(gaps <= 0.20 + 1e-9)

    def test_deterministic_per_seed(self):
        a = conveyor_batch(seed=7)
        b = conveyor_batch(seed=7)
        assert [t.position for t in a.tags] == [t.position for t in b.tags]
        assert a.tags.ids() == b.tags.ids()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ConveyorConfig(lanes=0)
        with pytest.raises(ValueError):
            ConveyorConfig(min_gap_m=0.3, max_gap_m=0.2)
        with pytest.raises(ValueError):
            ConveyorConfig(speed_jitter_fraction=1.5)
        with pytest.raises(ValueError):
            ConveyorConfig(lane_pitch_m=0.1, lateral_jitter_m=0.06)


class TestConveyorScenario:
    """The belt motion of ``conveyor_scene``: the standard tag-moving preset."""

    def test_relative_geometry_preserved(self):
        # The precondition of the paper's tag-moving equivalence (§1.3): all
        # cartons share the belt motion, so pairwise distances never change.
        batch = conveyor_batch(seed=4)
        scenario = conveyor_scene(batch, seed=4).scenario
        ids = batch.tags.ids()
        for t in (0.0, 2.5, scenario.duration_s):
            d = scenario.tag_position(ids[0], t).distance_to(scenario.tag_position(ids[5], t))
            d0 = scenario.tag_position(ids[0], 0.0).distance_to(
                scenario.tag_position(ids[5], 0.0)
            )
            assert d == pytest.approx(d0, abs=1e-9)

    def test_variable_belt_speed_is_nonuniform(self):
        config = ConveyorConfig(speed_jitter_fraction=0.3)
        batch = conveyor_batch(config, seed=5)
        scenario = conveyor_scene(batch, seed=5).scenario
        tag = batch.tags.ids()[0]
        times = np.linspace(0.0, scenario.duration_s, 40)
        xs = np.array([scenario.tag_position(tag, t).x for t in times])
        speeds = -np.diff(xs) / np.diff(times)
        assert np.all(speeds > 0)  # the belt never stops or reverses
        assert speeds.max() / speeds.min() > 1.05  # ...but it is not constant

    def test_constant_belt_when_jitter_zero(self):
        config = ConveyorConfig(speed_jitter_fraction=0.0)
        batch = conveyor_batch(config, seed=5)
        scenario = conveyor_scene(batch).scenario
        tag = batch.tags.ids()[0]
        times = np.linspace(0.0, scenario.duration_s, 20)
        xs = np.array([scenario.tag_position(tag, t).x for t in times])
        speeds = -np.diff(xs) / np.diff(times)
        assert speeds == pytest.approx(config.nominal_speed_mps)

    def test_every_carton_passes_the_antenna(self):
        batch = conveyor_batch(seed=6)
        scenario = conveyor_scene(batch, seed=6).scenario
        antenna_x = scenario.antenna_position(0.0).x
        for tid in batch.tags.ids():
            assert scenario.tag_position(tid, 0.0).x > antenna_x
            assert scenario.tag_position(tid, scenario.duration_s).x < antenna_x


class TestWarehouseEndToEnd:
    """All five baselines score the conveyor workload through the engine."""

    @pytest.fixture(scope="class")
    def outcome(self):
        plan = warehouse_sweep_plan(
            repetitions=2,
            config=ConveyorConfig(lanes=2, cartons_per_lane=4),
            base_seed=2015,
        )
        return SweepService(max_workers=1).run(plan)

    def test_all_five_schemes_scored(self, outcome):
        assert outcome.schemes() == FIVE_SCHEMES
        for name in FIVE_SCHEMES:
            evaluations = outcome.evaluations(name)
            assert len(evaluations) == 2
            for evaluation in evaluations:
                assert 0.0 <= evaluation.accuracy_x <= 1.0
                assert 0.0 <= evaluation.accuracy_y <= 1.0
                assert evaluation.total_tags == 8

    def test_stpp_recovers_arrival_order(self, outcome):
        # STPP's headline ability on a conveyor: the per-lane arrival order.
        assert outcome.mean_accuracy("STPP")["x"] >= 0.6

    def test_stpp_beats_absolute_localization_schemes(self, outcome):
        stpp = outcome.mean_accuracy("STPP")["x"]
        assert stpp >= outcome.mean_accuracy("Landmarc")["x"]
        assert stpp >= outcome.mean_accuracy("BackPos")["x"]

    def test_sharded_run_matches_serial(self, outcome):
        plan = warehouse_sweep_plan(
            repetitions=2,
            config=ConveyorConfig(lanes=2, cartons_per_lane=4),
            base_seed=2015,
        )
        sharded = SweepService(max_workers=2).run(plan)
        for name in FIVE_SCHEMES:
            assert sharded.evaluations(name) == outcome.evaluations(name)

    def test_experiments_generator(self):
        from repro.evaluation.experiments import warehouse_conveyor_accuracy

        result = warehouse_conveyor_accuracy(
            repetitions=1, config=ConveyorConfig(lanes=2, cartons_per_lane=3)
        )
        assert set(result) == set(FIVE_SCHEMES)
        for accuracy in result.values():
            assert set(accuracy) == {"x", "y", "combined"}
