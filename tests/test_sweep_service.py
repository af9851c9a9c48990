"""Equivalence and determinism tests for the parallel sweep engine.

The contract pinned here: a :class:`SweepPlan` executed through the
:class:`SweepService` produces **bit-identical** ``OrderingEvaluation``
results whether it runs serially in-process (one worker) or across a
process pool — seeds are fixed per repetition before any repetition runs,
so results are a pure function of ``(rep_index, seed)``.
"""

import os
from functools import partial

import pytest

from repro.evaluation import sweep as sweep_module
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


# The seeds SeedSequence(123), SeedSequence(0), (1) and (2) spawned for these
# plans when SweepPlan still derived seeds from a base seed.
_SEEDS = (1514383052, 2306788707, 2261827930, 3849729556)
_RUN_MANY_SEEDS = ((3757552657, 673228719), (1641411168, 1454127163), (2001025171, 2240297063))


def _small_plan(name="equivalence", repetitions=4, seeds=None):
    """A cheap but real plan: 3-tag staircase sweeps scored by STPP."""
    return scheme_sweep_plan(
        name=name,
        scene_factory=partial(
            _staircase_experiment, tag_count=3, spacing_m=0.12, tag_moving=False
        ),
        scorer=score_stpp,
        repetitions=repetitions,
        seeds=_SEEDS[:repetitions] if seeds is None else seeds,
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
    def test_seed_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            _small_plan(repetitions=3, seeds=(1, 2))

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError, match="repetitions"):
            SweepPlan(name="bad", repetitions=0, task=score_stpp, seeds=())


class TestSerialShardedEquivalence:
    """The acceptance-criterion tests: sharded == serial, bit for bit."""

    def test_process_pool_matches_serial(self):
        plan = _small_plan()
        serial = SweepService(max_workers=1).run(plan)
        sharded = SweepService(max_workers=2).run(plan)
        assert _evaluations(serial) == _evaluations(sharded)

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
        serial = SweepService(max_workers=1).run(plan)
        sharded = SweepService(max_workers=2).run(plan)
        assert serial.schemes() == ["G-RSSI", "OTrack", "Landmarc", "BackPos", "STPP"]
        assert _evaluations(serial) == _evaluations(sharded)

    def test_run_many_preserves_plan_order_and_results(self):
        plans = [
            _small_plan(name=f"p{i}", repetitions=2, seeds=seeds)
            for i, seeds in enumerate(_RUN_MANY_SEEDS)
        ]
        serial = SweepService(max_workers=1).run_many(plans)
        sharded = SweepService(max_workers=2).run_many(plans)
        assert [o.plan for o in serial] == ["p0", "p1", "p2"]
        assert [o.plan for o in sharded] == ["p0", "p1", "p2"]
        for a, b in zip(serial, sharded):
            assert _evaluations(a) == _evaluations(b)


class TestOutcomeAccessors:
    def test_metric_samples_roundtrip(self):
        plan = SweepPlan(name="metrics", repetitions=3, task=_metric_task, seeds=(1, 2, 3))
        outcome = SweepService(max_workers=1).run(plan)
        assert outcome.schemes() == ["probe"]
        assert outcome.metric_samples("probe", "value") == [1.0, 2.0, 3.0]

    def test_results_ordered_by_repetition(self):
        plan = _small_plan(repetitions=4)
        outcome = SweepService(max_workers=2).run(plan)
        assert [r.rep_index for r in outcome.results] == [0, 1, 2, 3]


class TestRunManyAcrossPlans:
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_each_plan_gets_exactly_its_repetitions(self, max_workers):
        seeds = {"a": (11,), "b": (21, 22, 23), "c": (31, 32)}
        plans = [
            SweepPlan(name=name, repetitions=len(s), task=_metric_task, seeds=s)
            for name, s in seeds.items()
        ]
        outcomes = SweepService(max_workers=max_workers).run_many(plans)
        assert [o.plan for o in outcomes] == list(seeds)
        for outcome, plan_seeds in zip(outcomes, seeds.values()):
            assert [r.rep_index for r in outcome.results] == list(range(len(plan_seeds)))
            assert [r.seed for r in outcome.results] == list(plan_seeds)
            assert outcome.metric_samples("probe", "value") == [float(s) for s in plan_seeds]


@pytest.fixture
def opened_pools(monkeypatch):
    """Replace the process pool with an in-process one; list each pool's size."""
    opened = []

    class RecordingPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", RecordingPool)
    return opened


class TestPoolSelection:
    """The pool runs exactly when more than one worker has work to share."""

    @pytest.mark.parametrize(
        "max_workers, repetitions, expected",
        [(1, 3, []), (2, 3, [2]), (2, 1, [])],
        ids=["one-worker", "two-workers", "one-repetition"],
    )
    def test_pool_use(self, opened_pools, max_workers, repetitions, expected):
        plan = SweepPlan(
            name="probe",
            repetitions=repetitions,
            task=_metric_task,
            seeds=tuple(range(repetitions)),
        )
        outcome = SweepService(max_workers=max_workers).run(plan)
        assert opened_pools == expected
        assert outcome.metric_samples("probe", "value") == [float(s) for s in range(repetitions)]

    def test_env_worker_count_opens_the_pool(self, opened_pools, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        plan = SweepPlan(name="probe", repetitions=2, task=_metric_task, seeds=(1, 2))
        SweepService().run(plan)
        assert opened_pools == [2]


def _metric_task(rep_index, seed):
    """Module-level (picklable) task used by the accessor tests."""
    return (SchemeScore(scheme="probe", metrics={"value": float(seed)}),)


class TestServiceConfiguration:
    def test_invalid_max_workers(self):
        with pytest.raises(ValueError):
            SweepService(max_workers=0)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert default_worker_count() == 3
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "junk")
        with pytest.raises(ValueError):
            default_worker_count()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_env_worker_count_is_at_least_one(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", value)
        assert default_worker_count() == 1

    def test_unset_env_uses_the_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert default_worker_count() == (os.cpu_count() or 1)

    def test_ported_experiment_accepts_service(self):
        # The ported generators run identically on an explicit parallel service.
        from repro.evaluation.experiments import fig13_spacing_tag_moving

        serial = fig13_spacing_tag_moving(
            spacings_m=(0.08,), repetitions=2, service=SweepService(max_workers=1)
        )
        sharded = fig13_spacing_tag_moving(
            spacings_m=(0.08,), repetitions=2,
            service=SweepService(max_workers=2),
        )
        assert serial == sharded
