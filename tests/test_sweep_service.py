"""Equivalence and determinism tests for the sharded sweep engine.

The contract pinned here: a :class:`SweepPlan` executed through the
:class:`SweepService` produces **bit-identical** ``OrderingEvaluation``
results whether it runs serially in-process or sharded across a process
pool, for any shard size — seeds are fixed per repetition before any shard
runs, so results are a pure function of ``(rep_index, seed)``.
"""

from functools import partial

import pytest

from repro.evaluation.experiments import _staircase_experiment
from repro.evaluation.sweep import (
    SchemeScore,
    SweepPlan,
    SweepService,
    default_worker_count,
    scheme_sweep_plan,
    score_schemes,
    score_stpp,
)
from repro.evaluation.runner import standard_scheme_suite


def _small_plan(name="equivalence", repetitions=4, seeds=None, base_seed=123):
    """A cheap but real plan: 3-tag staircase sweeps scored by STPP."""
    return scheme_sweep_plan(
        name=name,
        scene_factory=partial(
            _staircase_experiment,
            tag_count=3,
            spacing_x_m=0.12,
            spacing_y_m=0.12,
            tag_moving=False,
        ),
        scorer=score_stpp,
        repetitions=repetitions,
        base_seed=base_seed,
        seeds=seeds,
    )


def _evaluations(outcome):
    """(scheme, rep_index, seed, evaluation) tuples — everything deterministic.

    Latencies are wall-clock measurements and legitimately differ between
    runs, so they are excluded from equivalence comparisons.
    """
    return [
        (score.scheme, result.rep_index, result.seed, score.evaluation)
        for result in outcome.results
        for score in result.scores
    ]


class TestSeedDerivation:
    def test_spawned_seeds_are_deterministic(self):
        plan = _small_plan()
        assert plan.resolved_seeds() == plan.resolved_seeds()
        assert len(plan.resolved_seeds()) == plan.repetitions

    def test_spawned_seeds_differ_per_repetition(self):
        seeds = _small_plan(repetitions=8).resolved_seeds()
        assert len(set(seeds)) == len(seeds)

    def test_different_base_seed_different_children(self):
        assert _small_plan(base_seed=1).resolved_seeds() != _small_plan(base_seed=2).resolved_seeds()

    def test_explicit_seeds_win(self):
        plan = _small_plan(repetitions=3, seeds=(7, 8, 9))
        assert plan.resolved_seeds() == (7, 8, 9)

    def test_seed_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            _small_plan(repetitions=3, seeds=(1, 2))

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError, match="repetitions"):
            SweepPlan(name="bad", repetitions=0, task=score_stpp)


class TestSerialShardedEquivalence:
    """The acceptance-criterion tests: sharded == serial, bit for bit."""

    def test_process_pool_matches_serial(self):
        plan = _small_plan()
        serial = SweepService(parallel=False).run(plan)
        sharded = SweepService(max_workers=2, parallel=True).run(plan)
        assert _evaluations(serial) == _evaluations(sharded)

    def test_shard_size_does_not_change_results(self):
        plan = _small_plan(repetitions=5)
        outcomes = [
            SweepService(parallel=False, shard_size=size).run(plan)
            for size in (1, 2, 5)
        ]
        reference = _evaluations(outcomes[0])
        for outcome in outcomes[1:]:
            assert _evaluations(outcome) == reference

    def test_five_scheme_scorer_survives_pickling(self):
        # The full five-scheme suite (closures over the scene's trajectory,
        # Landmarc reference tags) is built inside the worker; only the
        # scores cross the process boundary.
        from repro.evaluation.experiments import _fig18_experiment

        plan = scheme_sweep_plan(
            name="five-schemes",
            scene_factory=partial(_fig18_experiment, spacing_m=0.15, tag_count=4),
            scorer=partial(score_schemes, scheme_factory=standard_scheme_suite),
            repetitions=2,
            seeds=(5, 6),
        )
        serial = SweepService(parallel=False).run(plan)
        sharded = SweepService(max_workers=2, parallel=True).run(plan)
        assert serial.schemes() == ["G-RSSI", "OTrack", "Landmarc", "BackPos", "STPP"]
        assert _evaluations(serial) == _evaluations(sharded)

    def test_run_many_preserves_plan_order_and_results(self):
        plans = [_small_plan(name=f"p{i}", repetitions=2, base_seed=i) for i in range(3)]
        serial = SweepService(parallel=False).run_many(plans)
        sharded = SweepService(max_workers=2, parallel=True).run_many(plans)
        assert [o.plan for o in serial] == ["p0", "p1", "p2"]
        assert [o.plan for o in sharded] == ["p0", "p1", "p2"]
        for a, b in zip(serial, sharded):
            assert _evaluations(a) == _evaluations(b)


class TestOutcomeAccessors:
    def test_metric_samples_roundtrip(self):
        plan = SweepPlan(name="metrics", repetitions=3, task=_metric_task, seeds=(1, 2, 3))
        outcome = SweepService(parallel=False).run(plan)
        assert outcome.schemes() == ["probe"]
        assert outcome.metric_samples("probe", "value") == [1.0, 2.0, 3.0]

    def test_results_ordered_by_repetition(self):
        plan = _small_plan(repetitions=4)
        outcome = SweepService(max_workers=2, parallel=True, shard_size=1).run(plan)
        assert [r.rep_index for r in outcome.results] == [0, 1, 2, 3]


def _metric_task(rep_index, seed):
    """Module-level (picklable) task used by the accessor tests."""
    return (SchemeScore(scheme="probe", metrics={"value": float(seed)}),)


class TestServiceConfiguration:
    def test_invalid_shard_size(self):
        with pytest.raises(ValueError):
            SweepService(shard_size=0)

    def test_invalid_max_workers(self):
        with pytest.raises(ValueError):
            SweepService(max_workers=0)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert default_worker_count() == 3
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "junk")
        with pytest.raises(ValueError):
            default_worker_count()

    def test_ported_experiment_accepts_service(self):
        # The ported generators run identically on an explicit parallel service.
        from repro.evaluation.experiments import fig13_spacing_tag_moving

        serial = fig13_spacing_tag_moving(
            spacings_m=(0.08,), repetitions=2, service=SweepService(parallel=False)
        )
        sharded = fig13_spacing_tag_moving(
            spacings_m=(0.08,), repetitions=2,
            service=SweepService(max_workers=2, parallel=True),
        )
        assert serial == sharded
