"""Integration tests: full pipeline from scene simulation to relative order."""

import numpy as np
import pytest

from repro.core.localizer import STPPConfig, STPPLocalizer
from repro.evaluation.metrics import evaluate_ordering, ordering_accuracy
from repro.evaluation.runner import run_stpp, standard_experiment
from repro.rf.geometry import Point3D
from repro.rf.noise import NOISELESS
from repro.rfid.tag import make_tags
from repro.simulation.collector import collect_sweep
from repro.simulation.presets import (
    standard_antenna_moving_scene,
    standard_tag_moving_scene,
)
from repro.workloads.layouts import staircase_layout
from repro.workloads.library import generate_bookshelf


class TestCleanChannelEndToEnd:
    """With no noise and no multipath, STPP must order tags perfectly."""

    @pytest.mark.parametrize("tag_moving", [False, True])
    def test_perfect_ordering_on_clean_channel(self, tag_moving):
        positions = staircase_layout(6, 0.10, 0.10, levels=3)
        tags = make_tags(positions, seed=3)
        builder = standard_tag_moving_scene if tag_moving else standard_antenna_moving_scene
        kwargs = dict(seed=3, noise=NOISELESS, reflector_count=0)
        if not tag_moving:
            kwargs["jitter_fraction"] = 0.0
        scene = builder(tags, **kwargs)
        # Disable tag coupling so the channel is perfectly clean.
        scene.reader_config = type(scene.reader_config)(
            channel=scene.reader_config.channel,
            reading_zone=scene.reader_config.reading_zone,
            tag_coupling_coefficient=0.0,
        )
        sweep = collect_sweep(scene)
        result = STPPLocalizer(STPPConfig()).localize(sweep.profiles, expected_tag_ids=tags.ids())
        true_x = {t.tag_id: t.position.x for t in tags}
        true_y = {t.tag_id: t.position.y for t in tags}
        assert ordering_accuracy(true_x, result.x_ordering.ordered_ids) == 1.0
        assert ordering_accuracy(true_y, result.y_ordering.ordered_ids) == 1.0


class TestDefaultChannelEndToEnd:
    def test_10cm_spacing_high_accuracy(self):
        evaluations = []
        for seed in range(3):
            experiment = standard_experiment(
                staircase_layout(8, 0.10, 0.10), seed=seed, tag_moving=True
            )
            evaluation, _ = run_stpp(experiment)
            evaluations.append(evaluation)
        assert np.mean([e.accuracy_x for e in evaluations]) >= 0.85
        assert np.mean([e.accuracy_y for e in evaluations]) >= 0.6

    def test_accuracy_improves_with_spacing(self):
        def mean_combined(spacing):
            values = []
            for seed in range(3):
                experiment = standard_experiment(
                    staircase_layout(8, spacing, spacing), seed=seed, tag_moving=True
                )
                evaluation, _ = run_stpp(experiment)
                values.append(evaluation.combined)
            return float(np.mean(values))

        assert mean_combined(0.10) >= mean_combined(0.02) - 0.05

    def test_library_shelf_sweep(self):
        shelf = generate_bookshelf(levels=2, books_per_level=8, seed=9)
        tags = shelf.to_tags(seed=9)
        scene = standard_antenna_moving_scene(tags, seed=9)
        sweep = collect_sweep(scene)
        result = STPPLocalizer().localize(sweep.profiles, expected_tag_ids=tags.ids())
        # Per-level X ordering should be mostly right for 3-8 cm thick books.
        label_by_id = {t.tag_id: t.label for t in tags}
        level_by_label = {b.call_number: b.level for b in shelf.books}
        x_by_id = {t.tag_id: t.position.x for t in tags}
        # Books are only 3-8 cm apart and 16 tags share the reading zone, so
        # per-level accuracy sits well below the isolated-row numbers; the
        # paper reports 0.84 on real hardware, our simulated shelf is harsher
        # (see docs/figures.md).  The pipeline must still do far better than a
        # random order (expected Eq.2 accuracy ~1/n ≈ 0.12).
        for level in shelf.levels:
            ids = [tid for tid in tags.ids() if level_by_label[label_by_id[tid]] == level]
            truth = {tid: x_by_id[tid] for tid in ids}
            detected = [tid for tid in result.x_ordering.ordered_ids if tid in truth]
            assert ordering_accuracy(truth, detected) >= 0.25

    def test_evaluation_round_trip(self):
        experiment = standard_experiment(staircase_layout(5, 0.1, 0.1), seed=2)
        evaluation, latency = run_stpp(experiment)
        assert 0.0 <= evaluation.accuracy_x <= 1.0
        assert latency > 0.0
        full = evaluate_ordering(
            experiment.true_x, experiment.true_y,
            list(experiment.true_x), list(experiment.true_y),
        )
        assert full.accuracy_x >= 0.0


class TestExperimentFunctions:
    """Smoke tests for the per-figure experiment functions (tiny scales)."""

    def test_fig02(self):
        from repro.evaluation import experiments as E

        result = E.fig02_rssi_limitation()
        assert set(result.times_ms) == set(result.physical_order)

    def test_fig03_fig04(self):
        from repro.evaluation import experiments as E

        fig3 = E.fig03_reference_profiles_x()
        assert fig3[0.10].bottom_gap_s > fig3[0.05].bottom_gap_s > 0
        fig4 = E.fig04_reference_profiles_y()
        assert fig4[0.10].bottom_gap_s < 0.05  # same X => same bottom time

    def test_fig12_structure(self):
        from repro.evaluation import experiments as E

        result = E.fig12_window_size(window_sizes=(3, 5), repetitions=1, tag_count=5)
        assert set(result) == {"tag_moving", "antenna_moving"}
        assert set(result["tag_moving"]) == {3, 5}

    def test_table1_structure(self):
        from repro.evaluation import experiments as E

        result = E.table1_population(populations=(5,), repetitions=1)
        assert "tag_moving" in result and 5 in result["tag_moving"]
        assert 0.0 <= result["tag_moving"][5]["x"] <= 1.0

    def test_ablation_functions(self):
        from repro.evaluation import experiments as E

        result = E.ablation_pivot_vs_all_pairs(repetitions=1, tag_count=5)
        assert set(result) == {"pivot", "all_pairs"}
        speedup = E.dtw_speedup_measurement()
        assert speedup["speedup"] > 1.0
