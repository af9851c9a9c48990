"""Declarative sweep plans and a parallel execution service.

Before this module, every figure/table generator in
:mod:`repro.evaluation.experiments` carried its own ``for rep in
range(repetitions)`` loop, re-simulating sweeps one at a time.  Since the STPP
core itself is batched and fast, those serial loops dominate the cost of
regenerating the paper's results.  This module replaces them with one engine:

* :class:`SweepPlan` describes a sweep declaratively — how many repetitions,
  the seed of each, and what work one repetition performs (build a scene,
  score schemes on it).
* :class:`SweepService` executes plans.  Repetitions run across a
  :class:`concurrent.futures.ProcessPoolExecutor`; with one worker the very
  same repetition function runs in-process, so serial and pooled execution
  are **bit-identical** (pinned by ``tests/test_sweep_service.py``).

Determinism is anchored in the plan, not the executor: each repetition's seed
is fixed up front in the plan's explicit ``seeds`` tuple, so the result of
repetition *i* is a pure function of ``(i, seed_i)`` and cannot depend on
worker count or scheduling order.

Everything a plan carries must be picklable: tasks are module-level functions
(or :func:`functools.partial` of them), never closures or lambdas.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Mapping, Sequence

from .metrics import OrderingEvaluation
from .runner import SweepExperiment

_WORKERS_ENV = "REPRO_SWEEP_WORKERS"
"""Environment override for the default worker count (e.g. CI pins it to 1)."""


# --------------------------------------------------------------------------
# Results
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeScore:
    """One scheme's score on one repetition of a sweep.

    ``evaluation`` is the tie-aware ordering evaluation for scheme-style
    repetitions; ``metrics`` carries free-form scalars for repetitions that do
    not reduce to an :class:`OrderingEvaluation` (e.g. a detection success
    flag, a runtime).
    """

    scheme: str
    evaluation: OrderingEvaluation | None = None
    latency_s: float = float("nan")
    metrics: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class RepetitionResult:
    """Everything one repetition of a plan produced."""

    plan: str
    rep_index: int
    seed: int
    scores: tuple[SchemeScore, ...]


@dataclass(frozen=True)
class SweepOutcome:
    """All repetitions of one plan, in repetition order."""

    plan: str
    results: tuple[RepetitionResult, ...]

    def schemes(self) -> list[str]:
        """Scheme names present in the results, in first-seen order."""
        seen: dict[str, None] = {}
        for result in self.results:
            for score in result.scores:
                seen.setdefault(score.scheme, None)
        return list(seen)

    def scores_for(self, scheme: str) -> list[SchemeScore]:
        """Every repetition's score entry for ``scheme``."""
        return [
            score
            for result in self.results
            for score in result.scores
            if score.scheme == scheme
        ]

    def evaluations(self, scheme: str) -> list[OrderingEvaluation]:
        """Ordering evaluations of ``scheme`` across repetitions."""
        return [s.evaluation for s in self.scores_for(scheme) if s.evaluation is not None]

    def mean_accuracy(self, scheme: str) -> dict[str, float]:
        """Mean x/y/combined accuracy of ``scheme`` (see runner.mean_accuracy)."""
        from .runner import mean_accuracy

        return mean_accuracy(self.evaluations(scheme))

    def accuracy_samples(self, scheme: str, attribute: str = "combined") -> list[float]:
        """Per-repetition accuracy samples of ``scheme`` (for box plots)."""
        return [float(getattr(e, attribute)) for e in self.evaluations(scheme)]

    def latencies(self, scheme: str) -> list[float]:
        """Per-repetition latency of ``scheme``, seconds."""
        return [float(s.latency_s) for s in self.scores_for(scheme)]

    def metric_samples(self, scheme: str, key: str) -> list[float]:
        """Per-repetition free-form metric values of ``scheme``."""
        return [float(s.metrics[key]) for s in self.scores_for(scheme) if key in s.metrics]


# --------------------------------------------------------------------------
# Plans
# --------------------------------------------------------------------------

RepetitionTask = Callable[[int, int], "Sequence[SchemeScore]"]
"""``task(rep_index, seed)`` -> the scores of one repetition (picklable)."""

ExperimentFactory = Callable[[int, int], SweepExperiment]
"""``factory(rep_index, seed)`` -> one simulated sweep (picklable)."""

ExperimentScorer = Callable[[SweepExperiment], "Sequence[SchemeScore]"]
"""``scorer(experiment)`` -> scheme scores on that sweep (picklable)."""


@dataclass(frozen=True)
class SweepPlan:
    """A declarative description of one repeated sweep.

    Parameters
    ----------
    name:
        Identifies the plan in results and logs.
    repetitions:
        How many independent repetitions to run.
    task:
        The work of one repetition: ``task(rep_index, seed)`` returns the
        repetition's :class:`SchemeScore` entries.  Must be picklable (a
        module-level function or a partial of one).
    seeds:
        The seed of every repetition, in repetition order, fixed before any
        repetition runs.
    """

    name: str
    repetitions: int
    task: RepetitionTask
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if len(self.seeds) != self.repetitions:
            raise ValueError(
                f"plan {self.name!r}: got {len(self.seeds)} seeds "
                f"for {self.repetitions} repetitions"
            )


def scene_task(
    rep_index: int,
    seed: int,
    scene_factory: ExperimentFactory,
    scorer: ExperimentScorer,
) -> tuple[SchemeScore, ...]:
    """The canonical repetition task: build one sweep, score schemes on it."""
    return tuple(scorer(scene_factory(rep_index, seed)))


def scheme_sweep_plan(
    name: str,
    scene_factory: ExperimentFactory,
    scorer: ExperimentScorer,
    repetitions: int,
    seeds: Sequence[int],
) -> SweepPlan:
    """Build the common plan shape: scene factory + schemes to score."""
    return SweepPlan(
        name=name,
        repetitions=repetitions,
        task=partial(scene_task, scene_factory=scene_factory, scorer=scorer),
        seeds=tuple(int(s) for s in seeds),
    )


# --------------------------------------------------------------------------
# Scorers (module-level, picklable)
# --------------------------------------------------------------------------


def score_schemes(experiment: SweepExperiment, scheme_factory) -> tuple[SchemeScore, ...]:
    """Score every scheme ``scheme_factory(experiment)`` yields on the sweep."""
    scores = []
    for scheme in scheme_factory(experiment):
        run = experiment.run_scheme(scheme)
        scores.append(
            SchemeScore(scheme=run.scheme, evaluation=run.evaluation, latency_s=run.latency_s)
        )
    return tuple(scores)


def score_stpp(experiment: SweepExperiment, config=None) -> tuple[SchemeScore, ...]:
    """Score STPP directly through the batched localization engine."""
    from .runner import run_stpp

    evaluation, latency = run_stpp(experiment, config)
    return (SchemeScore(scheme="STPP", evaluation=evaluation, latency_s=latency),)


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------


def _run_repetition(plan: SweepPlan, rep_index: int, seed: int) -> RepetitionResult:
    """Execute one repetition (in-process or inside a pool worker)."""
    scores = tuple(plan.task(rep_index, seed))
    return RepetitionResult(plan=plan.name, rep_index=rep_index, seed=seed, scores=scores)


def default_worker_count() -> int:
    """Worker count: ``REPRO_SWEEP_WORKERS`` env var, else the CPU count."""
    env = os.environ.get(_WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValueError(f"{_WORKERS_ENV} must be an integer, got {env!r}") from exc
    return os.cpu_count() or 1


@dataclass
class SweepService:
    """Executes :class:`SweepPlan`\\ s, one repetition per pool task.

    Parameters
    ----------
    max_workers:
        Pool size.  ``None`` defers to :func:`default_worker_count`.  With
        one worker every repetition runs in-process, one after another.
    """

    max_workers: int | None = None

    def __post_init__(self) -> None:
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")

    def worker_count(self) -> int:
        """The effective pool size."""
        return self.max_workers if self.max_workers is not None else default_worker_count()

    def run(self, plan: SweepPlan) -> SweepOutcome:
        """Execute one plan."""
        return self.run_many([plan])[0]

    def run_many(self, plans: Sequence[SweepPlan]) -> list[SweepOutcome]:
        """Execute several plans, spreading across all of them at once.

        Pooling the repetitions of every plan (not plan by plan) keeps the
        pool saturated when individual plans have fewer repetitions than
        there are workers — the common case for the paper's sweeps.
        """
        plans = list(plans)
        tasks = [
            (plan, rep_index, seed)
            for plan in plans
            for rep_index, seed in enumerate(plan.seeds)
        ]
        if self.worker_count() > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=self.worker_count()) as pool:
                results = list(pool.map(_run_repetition, *zip(*tasks)))
        else:
            results = [_run_repetition(*task) for task in tasks]
        in_order = iter(results)
        return [
            SweepOutcome(plan=plan.name, results=tuple(islice(in_order, plan.repetitions)))
            for plan in plans
        ]


_default_service: SweepService | None = None


def default_sweep_service() -> SweepService:
    """The process-wide service the ported experiments use by default."""
    global _default_service
    if _default_service is None:
        _default_service = SweepService()
    return _default_service


def run_plans(
    plans: Iterable[SweepPlan], service: SweepService | None = None
) -> list[SweepOutcome]:
    """Run ``plans`` on ``service`` (or the default service)."""
    service = service if service is not None else default_sweep_service()
    return service.run_many(list(plans))
