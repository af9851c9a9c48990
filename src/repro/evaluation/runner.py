"""Experiment runner: simulate sweeps and score schemes on them.

The functions here are the glue every experiment in
:mod:`repro.evaluation.experiments` uses: build a scene, run the sweep once,
hand the resulting read log to one or more schemes, and score each scheme's
orderings against the ground-truth tag coordinates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..baselines.base import OrderingScheme, SchemeResult
from ..core.localizer import BatchLocalizer, STPPConfig
from ..rf.geometry import Point3D
from ..rfid.reading import ReadLog
from ..rfid.tag import TagCollection, make_tags
from ..simulation.collector import collect_sweep, profiles_from_read_log
from ..simulation.presets import (
    standard_antenna_moving_scene,
    standard_tag_moving_scene,
)
from ..simulation.scene import Scene
from .metrics import OrderingEvaluation, evaluate_ordering


@dataclass(frozen=True)
class SchemeRun:
    """One scheme scored on one sweep."""

    scheme: str
    evaluation: OrderingEvaluation
    latency_s: float
    result: SchemeResult


@dataclass
class SweepExperiment:
    """A simulated sweep plus everything needed to score schemes on it."""

    scene: Scene
    read_log: ReadLog
    target_ids: list[str]
    true_x: dict[str, float]
    true_y: dict[str, float]
    reference_positions: dict[str, Point3D] = field(default_factory=dict)

    def run_scheme(self, scheme: OrderingScheme) -> SchemeRun:
        """Score ``scheme`` on this sweep's read log."""
        started = time.perf_counter()
        result = scheme.order(self.read_log, self.target_ids)
        latency = time.perf_counter() - started
        evaluation = evaluate_ordering(
            self.true_x,
            self.true_y,
            result.x_ordering.ordered_ids,
            result.y_ordering.ordered_ids,
        )
        return SchemeRun(
            scheme=scheme.name,
            evaluation=evaluation,
            latency_s=latency,
            result=result,
        )


def build_experiment(
    scene: Scene,
    target_tags: TagCollection | None = None,
    reference_positions: dict[str, Point3D] | None = None,
) -> SweepExperiment:
    """Simulate ``scene`` once and package it for scheme scoring.

    ``target_tags`` restricts scoring to a subset of the scene's tags (used
    when the scene also contains Landmarc reference tags); it defaults to all
    tags in the scene.
    """
    sweep = collect_sweep(scene)
    targets = target_tags if target_tags is not None else scene.tags
    ids = targets.ids()
    return SweepExperiment(
        scene=scene,
        read_log=sweep.read_log,
        target_ids=ids,
        true_x=dict(zip(ids, targets.position_array[:, 0].tolist())),
        true_y=dict(zip(ids, targets.position_array[:, 1].tolist())),
        reference_positions=reference_positions or {},
    )


REFERENCE_TAG_SEED_OFFSET = 9973
"""Seed offset separating reference-tag EPCs from same-seed target tags."""


def make_reference_tags(
    grid: np.ndarray, seed: int | None
) -> tuple[TagCollection, dict[str, Point3D]]:
    """Landmarc reference tags for a deployment grid.

    ``grid`` is an ``(N, 3)`` array or a sequence of :class:`Point3D`.
    Returns the tags (labelled ``"ref"`` so they are recognisable in scenes
    and read logs) and the id → known-position map the Landmarc scheme needs.
    Shared by :func:`standard_experiment` and the warehouse conveyor workload
    so the seeding and labelling conventions cannot diverge.
    """
    tags = make_tags(
        grid,
        labels=["ref"] * len(grid),
        seed=None if seed is None else seed + REFERENCE_TAG_SEED_OFFSET,
    )
    return tags, tags.positions()


def standard_experiment(
    positions: np.ndarray,
    seed: int = 0,
    tag_moving: bool = False,
    speed_mps: float = 0.3,
    reference_grid: np.ndarray | None = None,
    **scene_kwargs,
) -> SweepExperiment:
    """Build a standard sweep experiment over ``positions``.

    ``positions`` (and ``reference_grid``) is an ``(N, 3)`` array or a
    sequence of :class:`Point3D`.  ``reference_grid`` optionally adds
    Landmarc reference tags at known positions; they participate in the sweep
    but are excluded from scoring.
    """
    all_tags = target_tags = make_tags(positions, seed=seed)
    reference_positions: dict[str, Point3D] = {}
    if reference_grid is not None and len(reference_grid):
        reference_tags, reference_positions = make_reference_tags(reference_grid, seed)
        all_tags = target_tags.concat(reference_tags)
    if tag_moving:
        scene = standard_tag_moving_scene(
            all_tags, belt_speed_mps=speed_mps, seed=seed, **scene_kwargs
        )
    else:
        scene = standard_antenna_moving_scene(
            all_tags, speed_mps=speed_mps, seed=seed, **scene_kwargs
        )
    return build_experiment(
        scene, target_tags=target_tags, reference_positions=reference_positions
    )


def standard_scheme_suite(experiment: SweepExperiment) -> list[OrderingScheme]:
    """Instantiate the paper's five comparison schemes for one deployment.

    BackPos gets the sweep's antenna trajectory and a search region padded
    around the target tags; Landmarc gets the experiment's reference-tag
    deployment (it raises when the experiment has fewer reference tags than
    its ``k``).  Module-level so sweep plans that score the full suite remain
    picklable.
    """
    from ..baselines import (
        BackPosScheme,
        GRssiScheme,
        LandmarcScheme,
        OTrackScheme,
        STPPScheme,
    )

    xs = [experiment.true_x[tid] for tid in experiment.target_ids]
    ys = [experiment.true_y[tid] for tid in experiment.target_ids]
    margin = 0.3
    backpos = BackPosScheme(
        antenna_position_at=experiment.scene.scenario.antenna_position,
        region_min=Point3D(min(xs) - margin, min(ys) - margin, 0.0),
        region_max=Point3D(max(xs) + margin, max(ys) + margin, 0.0),
    )
    landmarc = LandmarcScheme(reference_positions=experiment.reference_positions)
    return [GRssiScheme(), OTrackScheme(), landmarc, backpos, STPPScheme()]


def run_stpp(
    experiment: SweepExperiment, config: STPPConfig | None = None
) -> tuple[OrderingEvaluation, float]:
    """Run STPP directly on the experiment's profiles; returns (scores, latency).

    Goes through the batched localization engine: all of the experiment's tags
    are DTW-aligned against the shared reference in one accumulation pass.
    """
    config = config if config is not None else STPPConfig()
    localizer = BatchLocalizer(config)
    profiles = profiles_from_read_log(experiment.read_log)
    started = time.perf_counter()
    result = localizer.localize(profiles, expected_tag_ids=experiment.target_ids)
    latency = time.perf_counter() - started
    evaluation = evaluate_ordering(
        experiment.true_x,
        experiment.true_y,
        result.x_ordering.ordered_ids,
        result.y_ordering.ordered_ids,
    )
    return evaluation, latency


def mean_accuracy(runs: list[OrderingEvaluation]) -> dict[str, float]:
    """Average the axis accuracies of several runs."""
    if not runs:
        raise ValueError("need at least one run")
    return {
        "x": float(np.mean([r.accuracy_x for r in runs])),
        "y": float(np.mean([r.accuracy_y for r in runs])),
        "combined": float(np.mean([r.combined for r in runs])),
    }
