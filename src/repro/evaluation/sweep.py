"""Declarative sweep plans and a sharded parallel execution service.

Before this module, every figure/table generator in
:mod:`repro.evaluation.experiments` carried its own ``for rep in
range(repetitions)`` loop, re-simulating sweeps one at a time.  Since the STPP
core itself is batched and fast, those serial loops dominate the cost of
regenerating the paper's results.  This module replaces them with one engine:

* :class:`SweepPlan` describes a sweep declaratively — how many repetitions,
  how each repetition derives its seed, and what work one repetition performs
  (build a scene, score schemes on it).
* :class:`SweepService` executes plans.  Repetitions are split into shards and
  run across a :class:`concurrent.futures.ProcessPoolExecutor`; the serial
  fallback runs the very same shard function in-process, so serial and
  sharded execution are **bit-identical** (pinned by
  ``tests/test_sweep_service.py``).

Determinism is anchored in the plan, not the executor: each repetition's seed
is fixed up front — either an explicit per-repetition ``seeds`` tuple, or
children spawned from ``np.random.SeedSequence(base_seed)`` — so the result of
repetition *i* is a pure function of ``(i, seed_i)`` and cannot depend on
shard size, worker count, or scheduling order.

Everything a plan carries must be picklable: tasks are module-level functions
(or :func:`functools.partial` of them), never closures or lambdas.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

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
    base_seed:
        Root of the deterministic seed derivation when ``seeds`` is not given:
        repetition *i* receives the first ``uint32`` drawn from the *i*-th
        child of ``np.random.SeedSequence(base_seed).spawn(repetitions)``.
    seeds:
        Explicit per-repetition seeds (overrides the derivation).  Used by the
        ported paper experiments to preserve their historical seed values.
    """

    name: str
    repetitions: int
    task: RepetitionTask
    base_seed: int = 0
    seeds: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.seeds is not None and len(self.seeds) != self.repetitions:
            raise ValueError(
                f"plan {self.name!r}: got {len(self.seeds)} seeds "
                f"for {self.repetitions} repetitions"
            )

    def resolved_seeds(self) -> tuple[int, ...]:
        """The seed of every repetition, fixed before any shard runs."""
        if self.seeds is not None:
            return tuple(int(s) for s in self.seeds)
        children = np.random.SeedSequence(self.base_seed).spawn(self.repetitions)
        return tuple(int(child.generate_state(1, dtype=np.uint32)[0]) for child in children)


def _scene_task(
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
    base_seed: int = 0,
    seeds: Sequence[int] | None = None,
) -> SweepPlan:
    """Build the common plan shape: scene factory + schemes to score."""
    return SweepPlan(
        name=name,
        repetitions=repetitions,
        task=partial(_scene_task, scene_factory=scene_factory, scorer=scorer),
        base_seed=base_seed,
        seeds=None if seeds is None else tuple(int(s) for s in seeds),
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


@dataclass(frozen=True)
class _Shard:
    """A contiguous slice of one plan's repetitions."""

    plan_index: int
    rep_indices: tuple[int, ...]
    seeds: tuple[int, ...]


def _run_shard(plan: SweepPlan, shard: _Shard) -> list[RepetitionResult]:
    """Execute one shard (in-process or inside a pool worker)."""
    results = []
    for rep_index, seed in zip(shard.rep_indices, shard.seeds):
        scores = tuple(plan.task(rep_index, seed))
        results.append(
            RepetitionResult(plan=plan.name, rep_index=rep_index, seed=seed, scores=scores)
        )
    return results


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
    """Executes :class:`SweepPlan`\\ s, sharded across worker processes.

    Parameters
    ----------
    max_workers:
        Pool size.  ``None`` defers to :func:`default_worker_count`.
    shard_size:
        Repetitions per shard.  The default of 1 maximises load balance
        (repetitions are heavyweight simulations, so per-task overhead is
        negligible); seeds are fixed per repetition, so shard size never
        affects results.
    parallel:
        ``True``/``False`` forces the pool / the serial path; ``None`` uses
        the pool only when more than one worker is available.
    """

    max_workers: int | None = None
    shard_size: int = 1
    parallel: bool | None = None

    def __post_init__(self) -> None:
        if self.shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {self.shard_size}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")

    def worker_count(self) -> int:
        """The effective pool size."""
        return self.max_workers if self.max_workers is not None else default_worker_count()

    def _use_pool(self) -> bool:
        if self.parallel is not None:
            return self.parallel and self.worker_count() >= 1
        return self.worker_count() > 1

    def run(self, plan: SweepPlan) -> SweepOutcome:
        """Execute one plan."""
        return self.run_many([plan])[0]

    def run_many(self, plans: Sequence[SweepPlan]) -> list[SweepOutcome]:
        """Execute several plans, sharding across all of them at once.

        Sharding across plans (not per plan) keeps the pool saturated when
        individual plans have fewer repetitions than there are workers — the
        common case for the paper's sweeps.
        """
        plans = list(plans)
        shards: list[_Shard] = []
        for plan_index, plan in enumerate(plans):
            seeds = plan.resolved_seeds()
            for start in range(0, plan.repetitions, self.shard_size):
                stop = min(start + self.shard_size, plan.repetitions)
                shards.append(
                    _Shard(
                        plan_index=plan_index,
                        rep_indices=tuple(range(start, stop)),
                        seeds=seeds[start:stop],
                    )
                )

        per_plan: dict[int, list[RepetitionResult]] = {i: [] for i in range(len(plans))}
        if self._use_pool() and len(shards) > 1:
            with ProcessPoolExecutor(max_workers=self.worker_count()) as pool:
                shard_results = pool.map(
                    _run_shard, [plans[s.plan_index] for s in shards], shards
                )
                for shard, results in zip(shards, shard_results):
                    per_plan[shard.plan_index].extend(results)
        else:
            for shard in shards:
                per_plan[shard.plan_index].extend(
                    _run_shard(plans[shard.plan_index], shard)
                )

        outcomes = []
        for plan_index, plan in enumerate(plans):
            ordered = sorted(per_plan[plan_index], key=lambda r: r.rep_index)
            outcomes.append(SweepOutcome(plan=plan.name, results=tuple(ordered)))
        return outcomes


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
