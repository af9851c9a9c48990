"""The data behind every figure and table of the paper's evaluation.

Each public function regenerates one artifact (or one of an ablation's
measurements) on the simulated deployment; ``bench/registry.py`` names the
functions behind each artifact and ``benchmarks/`` prints their output next
to the paper's numbers (``docs/figures.md`` lists them with their status).
Defaults finish in seconds while still showing the paper's trends.

The repeated figures (Figures 12–14 and 17–19, Tables 1–3, the §5.1
headline and the ablations) are sweeps over factor grids, and they all run
through one private runner, :func:`_run_grid`: a call names the factor axes
(axis → values), the repetition task of one grid cell, the seed rule
``(cell, rep) -> seed`` and the repetition count.  The runner expands the
grid into :class:`~repro.evaluation.sweep.SweepPlan`\\ s with every seed
resolved up front and runs them on a
:class:`~repro.evaluation.sweep.SweepService` (``service=``); results are
bit-identical whatever the worker count.  Tasks are module-level functions
combined with :func:`functools.partial`, because plans must pickle.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Mapping, Sequence

import numpy as np

from ..baselines import OTrackScheme, STPPScheme
from ..core.dtw import segmented_dtw_align_batch, subsequence_dtw_batch
from ..core.fitting import fit_vzone_profile
from ..core.localizer import BatchLocalizer, STPPConfig
from ..core.reference import canonical_reference, reference_profile
from ..core.segmentation import segment_profile_arrays
from ..core.vzone import VZoneDetector
from ..rf.geometry import Point3D
from ..rfid.tag import make_tags
from ..simulation.collector import collect_sweep, profiles_from_read_log
from ..simulation.presets import (
    standard_antenna_moving_scene,
    standard_tag_moving_scene,
)
from ..workloads.airport import PAPER_PERIODS, TrafficPeriod, baggage_batch
from ..workloads.layouts import (
    footprint_reference_grid,
    paper_test_cases,
    random_spacing_row,
    row_layout,
    staircase_layout,
)
from ..workloads.library import (
    audit_shelf,
    generate_bookshelf,
    misplace_books,
)
from .latency import LatencySample, measure_scheme_latency
from .metrics import (
    detection_success_rate,
    evaluate_ordering,
    ordering_accuracy,
    summarise,
)
from .runner import (
    SweepExperiment,
    build_experiment,
    standard_experiment,
    standard_scheme_suite,
)
from .sweep import (
    RepetitionTask,
    SchemeScore,
    SweepOutcome,
    SweepPlan,
    SweepService,
    run_plans,
    scene_task,
    score_schemes,
    score_stpp,
)

# --------------------------------------------------------------------------
# Section 2 figures: motivation and phase-profile anatomy
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RssiLimitationResult:
    """Data behind Figure 2: peak RSSI order vs physical order."""

    times_ms: dict[str, np.ndarray]
    rssi_dbm: dict[str, np.ndarray]
    peak_time_s: dict[str, float]
    physical_order: list[str]
    peak_order: list[str]

    @property
    def peak_order_matches_physical(self) -> bool:
        """True when ordering by RSSI peaks reproduces the physical order."""
        return self.peak_order == self.physical_order


def fig02_rssi_limitation(seed: int = 3, spacing_m: float = 0.13) -> RssiLimitationResult:
    """Figure 2: RSSI fluctuates under multipath; its peak misorders tags."""
    positions = [Point3D(0.3, 0.0, 0.0), Point3D(0.3 + spacing_m, 0.0, 0.0)]
    tags = make_tags(positions, seed=seed)
    scene = standard_antenna_moving_scene(tags, speed_mps=0.1, seed=seed)
    sweep = collect_sweep(scene)
    times_ms: dict[str, np.ndarray] = {}
    rssi: dict[str, np.ndarray] = {}
    peak_time: dict[str, float] = {}
    for tag in tags:
        profile = sweep.profiles[tag.tag_id]
        times_ms[tag.tag_id] = profile.timestamps_ms()
        rssi[tag.tag_id] = profile.rssi_dbm
        peak_time[tag.tag_id] = float(
            profile.timestamps_s[int(np.argmax(profile.rssi_dbm))]
        )
    physical = tags.order_along("x")
    peak_order = sorted(peak_time, key=lambda tid: peak_time[tid])
    return RssiLimitationResult(
        times_ms=times_ms,
        rssi_dbm=rssi,
        peak_time_s=peak_time,
        physical_order=physical,
        peak_order=peak_order,
    )


@dataclass(frozen=True)
class ReferenceProfilePair:
    """Two reference profiles and the separation of their V-zone bottoms."""

    spacing_m: float
    bottom_gap_s: float
    bottom_phase_gap_rad: float
    profile_lengths: tuple[int, int]


def fig03_reference_profiles_x(
    spacings_m: tuple[float, ...] = (0.05, 0.10)
) -> dict[float, ReferenceProfilePair]:
    """Figure 3: X spacing separates reference V-zone bottoms in *time*."""
    results: dict[float, ReferenceProfilePair] = {}
    for spacing in spacings_m:
        ref_a = reference_profile(
            tag_x_m=1.45, perpendicular_distance_m=1.118,
            sweep_start_x_m=0.0, sweep_end_x_m=3.0, speed_mps=0.1,
        )
        ref_b = reference_profile(
            tag_x_m=1.45 + spacing, perpendicular_distance_m=1.118,
            sweep_start_x_m=0.0, sweep_end_x_m=3.0, speed_mps=0.1,
        )
        results[spacing] = ReferenceProfilePair(
            spacing_m=spacing,
            bottom_gap_s=ref_b.perpendicular_time_s - ref_a.perpendicular_time_s,
            bottom_phase_gap_rad=abs(
                float(ref_b.profile.phases_rad[ref_b.vzone_start_index:ref_b.vzone_end_index].min())
                - float(ref_a.profile.phases_rad[ref_a.vzone_start_index:ref_a.vzone_end_index].min())
            ),
            profile_lengths=(len(ref_a.profile), len(ref_b.profile)),
        )
    return results


def fig04_reference_profiles_y(
    spacings_m: tuple[float, ...] = (0.05, 0.10)
) -> dict[float, ReferenceProfilePair]:
    """Figure 4: Y spacing changes the V-zone *depth/shape*, not its time."""
    results: dict[float, ReferenceProfilePair] = {}
    base_distance = 1.0
    for spacing in spacings_m:
        ref_a = reference_profile(
            tag_x_m=1.5, perpendicular_distance_m=np.hypot(base_distance, 0.5),
            sweep_start_x_m=0.0, sweep_end_x_m=3.0, speed_mps=0.1,
        )
        ref_b = reference_profile(
            tag_x_m=1.5, perpendicular_distance_m=np.hypot(base_distance, 0.5 + spacing),
            sweep_start_x_m=0.0, sweep_end_x_m=3.0, speed_mps=0.1,
        )
        fit_a = fit_vzone_profile(ref_a.vzone_profile)
        fit_b = fit_vzone_profile(ref_b.vzone_profile)
        results[spacing] = ReferenceProfilePair(
            spacing_m=spacing,
            bottom_gap_s=abs(ref_b.perpendicular_time_s - ref_a.perpendicular_time_s),
            bottom_phase_gap_rad=abs(fit_a.curvature - fit_b.curvature),
            profile_lengths=(len(ref_a.profile), len(ref_b.profile)),
        )
    return results


@dataclass(frozen=True)
class MeasuredProfileResult:
    """Data behind Figures 5/6: measured (noisy, fragmentary) phase profiles."""

    spacing_m: float
    bottom_gap_s: float
    sample_counts: tuple[int, ...]
    dropout_fraction: float
    """Fraction of inventory opportunities lost to fades/dropouts (fragmentation)."""


def _measured_pair(
    positions: list[Point3D], seed: int, speed_mps: float = 0.1
) -> MeasuredProfileResult:
    experiment = standard_experiment(positions, seed=seed, speed_mps=speed_mps)
    localizer = BatchLocalizer(STPPConfig(reference_speed_mps=speed_mps))
    profiles = profiles_from_read_log(experiment.read_log)
    result = localizer.localize(profiles, expected_tag_ids=experiment.target_ids)
    bottoms = [vz.bottom_time_s for vz in result.vzones.values()]
    counts = tuple(len(profiles[tid]) for tid in experiment.target_ids if tid in profiles)
    duration = experiment.read_log.duration_s()
    expected_reads = duration * 120.0
    total_reads = len(experiment.read_log)
    dropout = max(0.0, 1.0 - total_reads / max(expected_reads, 1.0))
    return MeasuredProfileResult(
        spacing_m=abs(positions[1].x - positions[0].x) or abs(positions[1].y - positions[0].y),
        bottom_gap_s=abs(bottoms[1] - bottoms[0]) if len(bottoms) >= 2 else float("nan"),
        sample_counts=counts,
        dropout_fraction=float(dropout),
    )


def fig05_measured_profiles_x(
    spacings_m: tuple[float, ...] = (0.05, 0.10), seed: int = 1
) -> dict[float, MeasuredProfileResult]:
    """Figure 5: measured profiles along X still separate in bottom time."""
    results = {}
    for spacing in spacings_m:
        positions = [Point3D(0.4, 0.0, 0.0), Point3D(0.4 + spacing, 0.0, 0.0)]
        results[spacing] = _measured_pair(positions, seed)
    return results


def fig06_measured_profiles_y(
    spacings_m: tuple[float, ...] = (0.05, 0.10), seed: int = 1
) -> dict[float, MeasuredProfileResult]:
    """Figure 6: measured profiles along Y differ in V-zone shape."""
    results = {}
    for spacing in spacings_m:
        positions = [Point3D(0.4, 0.0, 0.0), Point3D(0.4, spacing, 0.0)]
        # The standard micro-benchmark sweep speed keeps the profiles short
        # enough for a clean side-by-side V-zone comparison.
        results[spacing] = _measured_pair(positions, seed, speed_mps=0.3)
    return results


# --------------------------------------------------------------------------
# Section 3 figures: the STPP machinery itself
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DTWAlignmentResult:
    """Data behind Figure 7: V-zone located by (segmented) DTW."""

    dtw_cost: float
    detected_bottom_time_s: float
    true_perpendicular_time_s: float
    bottom_error_s: float
    detected_window_s: tuple[float, float]


def fig07_dtw_alignment(seed: int = 2) -> DTWAlignmentResult:
    """Figure 7: match the reference profile into a measured profile via DTW."""
    positions = row_layout(3, 0.15)
    experiment = standard_experiment(positions, seed=seed)
    profiles = profiles_from_read_log(experiment.read_log)
    detector = VZoneDetector(method="segmented_dtw", fallback_to_longest_run=False)
    middle_tag = experiment.target_ids[1]
    vzone = detector.detect(profiles[middle_tag])
    if vzone is None:
        raise RuntimeError("V-zone detection failed on the Figure 7 scenario")
    true_x = experiment.true_x[middle_tag]
    # Recover the true perpendicular time by scanning the known trajectory.
    times = np.linspace(0.0, experiment.scene.scenario.duration_s, 2000)
    antenna_x = np.array(
        [experiment.scene.scenario.antenna_position(t).x for t in times]
    )
    true_time = float(times[int(np.argmin(np.abs(antenna_x - true_x)))])
    return DTWAlignmentResult(
        dtw_cost=vzone.dtw_cost,
        detected_bottom_time_s=vzone.bottom_time_s,
        true_perpendicular_time_s=true_time,
        bottom_error_s=abs(vzone.bottom_time_s - true_time),
        detected_window_s=(vzone.start_time_s, vzone.end_time_s),
    )


@dataclass(frozen=True)
class SegmentationResult:
    """Data behind Figure 8: the coarse segment representation."""

    sample_count: int
    segment_count: int
    window_size: int
    compression_ratio: float
    wrap_splits: int


def fig08_segmentation(seed: int = 2, window_size: int = 5) -> SegmentationResult:
    """Figure 8: a measured profile reduced to range/interval segments."""
    experiment = standard_experiment(row_layout(1, 0.1), seed=seed, speed_mps=0.1)
    profiles = profiles_from_read_log(experiment.read_log)
    profile = profiles[experiment.target_ids[0]]
    segments = segment_profile_arrays(profile, window_size)
    plain_segment_count = int(np.ceil(len(profile) / window_size))
    return SegmentationResult(
        sample_count=len(profile),
        segment_count=len(segments),
        window_size=window_size,
        compression_ratio=len(profile) / max(len(segments), 1),
        wrap_splits=len(segments) - plain_segment_count,
    )


@dataclass(frozen=True)
class QuadraticFittingResult:
    """Data behind Figure 9: three tags ordered by fitted bottom times."""

    detected_order: list[str]
    true_order: list[str]
    bottom_times_s: dict[str, float]
    correct: bool


def fig09_quadratic_fitting(seed: int = 5) -> QuadraticFittingResult:
    """Figure 9: quadratic fits order tags 15 cm and 2 cm apart."""
    # Tag 03 -- 15cm -- Tag 01 -- 2cm -- Tag 02, matching the paper's example.
    positions = [Point3D(0.15, 0.0, 0.0), Point3D(0.17, 0.0, 0.0), Point3D(0.0, 0.0, 0.0)]
    experiment = standard_experiment(positions, seed=seed, speed_mps=0.1)
    localizer = BatchLocalizer(STPPConfig(reference_speed_mps=0.1))
    profiles = profiles_from_read_log(experiment.read_log)
    result = localizer.localize(profiles, expected_tag_ids=experiment.target_ids)
    evaluation = evaluate_ordering(
        experiment.true_x,
        experiment.true_y,
        result.x_ordering.ordered_ids,
        result.y_ordering.ordered_ids,
    )
    true_order = sorted(experiment.target_ids, key=lambda tid: experiment.true_x[tid])
    return QuadraticFittingResult(
        detected_order=list(result.x_ordering.ordered_ids),
        true_order=true_order,
        bottom_times_s=dict(result.x_ordering.scores),
        correct=evaluation.accuracy_x == 1.0,
    )


# --------------------------------------------------------------------------
# The figure runner and its repetition tasks (module-level: plans must pickle)
# --------------------------------------------------------------------------


def _run_grid(
    name: str,
    axes: Mapping[str, Sequence],
    task: Callable[[tuple], RepetitionTask],
    seed: Callable[[tuple, int], int],
    repetitions: int,
    service: SweepService | None,
) -> dict[tuple, SweepOutcome]:
    """Run one repeated figure: the only place the figures build sweep plans.

    Every combination of ``axes`` values is a cell, a named tuple whose
    fields are the axis names (no axes: one empty cell).  Each cell is one
    plan of ``repetitions`` repetitions running ``task(cell)``; repetition
    ``rep`` of a cell gets seed ``seed(cell, rep)``, resolved before any
    repetition runs.  Returns every cell's outcome, in grid order.
    """
    cell_type = namedtuple("Cell", axes)
    cells = [cell_type(*values) for values in product(*axes.values())]
    plans = [
        SweepPlan(
            name=f"{name}{tuple(cell)}",
            repetitions=repetitions,
            task=task(cell),
            seeds=tuple(int(seed(cell, rep)) for rep in range(repetitions)),
        )
        for cell in cells
    ]
    return dict(zip(cells, run_plans(plans, service)))


_CASES = {"tag_moving": True, "antenna_moving": False}
"""The paper's two deployment cases: conveyor belt vs hand-pushed antenna."""


def _staircase_experiment(
    rep_index: int,
    seed: int,
    tag_count: int,
    spacing_m: float,
    tag_moving: bool,
) -> SweepExperiment:
    """One repetition's sweep over a staircase layout."""
    positions = staircase_layout(tag_count, spacing_m, spacing_m)
    return standard_experiment(positions, seed=seed, tag_moving=tag_moving)


def _staircase(tag_count: int, spacing_m: float, tag_moving: bool, scorer) -> RepetitionTask:
    """The repetition task that scores ``scorer`` on a staircase sweep."""
    return partial(
        scene_task,
        scene_factory=partial(
            _staircase_experiment, tag_count=tag_count, spacing_m=spacing_m, tag_moving=tag_moving
        ),
        scorer=scorer,
    )


def _population_experiment(
    rep_index: int,
    seed: int,
    population: int,
    tag_moving: bool,
) -> SweepExperiment:
    """One repetition's sweep over a random-spacing row of ``population`` tags.

    The layout draws from its own rng, not from the plan's ``seed``.
    """
    rng = np.random.default_rng(1000 + population * 10 + rep_index)
    positions = random_spacing_row(population, 0.02, 0.10, rng=rng, y_jitter_m=0.05)
    return standard_experiment(positions, seed=seed, tag_moving=tag_moving)


def _stpp_otrack_suite(experiment: SweepExperiment) -> list:
    """The STPP-vs-OTrack pairing of Figure 19."""
    return [STPPScheme(), OTrackScheme()]


# --------------------------------------------------------------------------
# Section 4 micro-benchmarks
# --------------------------------------------------------------------------


def fig12_window_size(
    window_sizes: tuple[int, ...] = (1, 3, 5, 7, 9),
    repetitions: int = 3,
    tag_count: int = 8,
    spacing_m: float = 0.08,
    service: SweepService | None = None,
) -> dict[str, dict[int, float]]:
    """Figure 12: coarse-segment window size vs ordering accuracy."""
    outcomes = _run_grid(
        "fig12",
        {"case": tuple(_CASES), "window": window_sizes},
        task=lambda cell: _staircase(
            tag_count,
            spacing_m,
            _CASES[cell.case],
            partial(
                score_stpp,
                config=STPPConfig(window_size=cell.window, detection_method="segmented_dtw"),
            ),
        ),
        seed=lambda cell, rep: 100 * cell.window + rep,
        repetitions=repetitions,
        service=service,
    )
    results: dict[str, dict[int, float]] = {case: {} for case in _CASES}
    for (case, window), outcome in outcomes.items():
        results[case][window] = outcome.mean_accuracy("STPP")["combined"]
    return results


def fig13_spacing_tag_moving(
    spacings_m: tuple[float, ...] = (0.02, 0.04, 0.06, 0.08, 0.10),
    repetitions: int = 3,
    service: SweepService | None = None,
) -> dict[float, dict[str, float]]:
    """Figure 13: tag-to-tag distance vs accuracy, tag-moving (conveyor) case."""
    outcomes = _run_grid(
        "fig13",
        {"spacing": spacings_m},
        task=lambda cell: _staircase(8, cell.spacing, True, score_stpp),
        seed=lambda cell, rep: round(cell.spacing * 1000) * 10 + rep,
        repetitions=repetitions,
        service=service,
    )
    return {cell.spacing: outcome.mean_accuracy("STPP") for cell, outcome in outcomes.items()}


def fig14_spacing_antenna_moving(
    spacings_m: tuple[float, ...] = (0.02, 0.04, 0.06, 0.08, 0.10),
    repetitions: int = 3,
    service: SweepService | None = None,
) -> dict[float, dict[str, float]]:
    """Figure 14: tag-to-tag distance vs accuracy, antenna-moving case."""
    outcomes = _run_grid(
        "fig14",
        {"spacing": spacings_m},
        task=lambda cell: _staircase(8, cell.spacing, False, score_stpp),
        seed=lambda cell, rep: round(cell.spacing * 1000) * 10 + rep,
        repetitions=repetitions,
        service=service,
    )
    return {cell.spacing: outcome.mean_accuracy("STPP") for cell, outcome in outcomes.items()}


def table1_population(
    populations: tuple[int, ...] = (5, 10, 15, 20, 25, 30),
    repetitions: int = 2,
    service: SweepService | None = None,
) -> dict[str, dict[int, dict[str, float]]]:
    """Table 1: tag population within the reading zone vs ordering accuracy."""
    outcomes = _run_grid(
        "table1",
        {"case": tuple(_CASES), "population": populations},
        task=lambda cell: partial(
            scene_task,
            scene_factory=partial(
                _population_experiment,
                population=cell.population,
                tag_moving=_CASES[cell.case],
            ),
            scorer=score_stpp,
        ),
        seed=lambda cell, rep: cell.population * 100 + rep,
        repetitions=repetitions,
        service=service,
    )
    results: dict[str, dict[int, dict[str, float]]] = {case: {} for case in _CASES}
    for (case, population), outcome in outcomes.items():
        results[case][population] = outcome.mean_accuracy("STPP")
    return results


# --------------------------------------------------------------------------
# Section 4 macro-benchmarks: scheme comparison
# --------------------------------------------------------------------------


def _fig17_experiment(
    rep_index: int,
    seed: int,
    layout_spacing_m: float,
    tag_count: int,
) -> SweepExperiment:
    """One (repetition, layout) sweep of Figure 17.

    The plan enumerates repetition-major, layout-minor: repetition ``r`` of
    layout ``l`` is plan repetition ``r * len(layouts) + l``.
    """
    layouts = paper_test_cases(spacing_m=layout_spacing_m)
    positions = list(layouts.values())[rep_index % len(layouts)]
    if len(positions) > tag_count:
        positions = positions[:tag_count]
    return standard_experiment(
        positions, seed=seed, reference_grid=footprint_reference_grid(positions, 0.15)
    )


def fig17_scheme_comparison(
    repetitions: int = 1,
    layout_spacing_m: float = 0.04,
    tag_count: int = 10,
    service: SweepService | None = None,
) -> dict[str, dict[str, float]]:
    """Figure 17: ordering accuracy of the five schemes over the five layouts.

    The paper places adjacent tags 1–10 cm apart across the five layout
    settings of Figure 16; ``layout_spacing_m`` controls the adjacent-tag
    distance of the approximated layouts.
    """
    layout_count = len(paper_test_cases(spacing_m=layout_spacing_m))
    (outcome,) = _run_grid(
        "fig17",
        {},
        task=lambda cell: partial(
            scene_task,
            scene_factory=partial(
                _fig17_experiment, layout_spacing_m=layout_spacing_m, tag_count=tag_count
            ),
            scorer=partial(score_schemes, scheme_factory=standard_scheme_suite),
        ),
        seed=lambda cell, rep: 500 + 17 * (rep // layout_count) + rep % layout_count,
        repetitions=repetitions * layout_count,
        service=service,
    ).values()
    return {name: outcome.mean_accuracy(name) for name in outcome.schemes()}


def _fig18_experiment(
    rep_index: int, seed: int, spacing_m: float, tag_count: int
) -> SweepExperiment:
    """One repetition of the Figure 18 spacing box plot."""
    positions = staircase_layout(tag_count, spacing_m, min(spacing_m, 0.10))
    # The sparse default grid: a handful of anchors, otherwise the reference
    # tags dominate the reading zone and starve every scheme of reads on the
    # target tags.
    return standard_experiment(
        positions, seed=seed, reference_grid=footprint_reference_grid(positions)
    )


def fig18_spacing_boxplot(
    spacings_m: tuple[float, ...] = (0.10, 0.25, 0.50),
    repetitions: int = 2,
    tag_count: int = 10,
    service: SweepService | None = None,
) -> dict[str, list[float]]:
    """Figure 18: per-scheme accuracy distribution as spacing shrinks (20→10 tags scaled)."""
    outcomes = _run_grid(
        "fig18",
        {"spacing": spacings_m},
        task=lambda cell: partial(
            scene_task,
            scene_factory=partial(_fig18_experiment, spacing_m=cell.spacing, tag_count=tag_count),
            scorer=partial(score_schemes, scheme_factory=standard_scheme_suite),
        ),
        seed=lambda cell, rep: round(cell.spacing * 100) * 10 + rep,
        repetitions=repetitions,
        service=service,
    )
    samples: dict[str, list[float]] = {}
    for outcome in outcomes.values():
        for name in outcome.schemes():
            samples.setdefault(name, []).extend(outcome.accuracy_samples(name, "combined"))
    return samples


def fig19_population_boxplot(
    populations: tuple[int, ...] = (5, 10, 20, 30),
    repetitions: int = 2,
    spacing_m: float = 0.10,
    service: SweepService | None = None,
) -> dict[str, list[float]]:
    """Figure 19: STPP vs OTrack accuracy distribution as population grows."""
    outcomes = _run_grid(
        "fig19",
        {"population": populations},
        task=lambda cell: _staircase(
            cell.population,
            spacing_m,
            True,
            partial(score_schemes, scheme_factory=_stpp_otrack_suite),
        ),
        seed=lambda cell, rep: cell.population * 13 + rep,
        repetitions=repetitions,
        service=service,
    )
    samples: dict[str, list[float]] = {"STPP": [], "OTrack": []}
    for outcome in outcomes.values():
        for name in samples:
            samples[name].extend(outcome.accuracy_samples(name, "accuracy_x"))
    return samples


# --------------------------------------------------------------------------
# Section 5 case studies
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LibraryLayoutResult:
    """Data behind Figure 21: detected book layout with wrongly ordered books."""

    accuracy: float
    wrong_books: list[str]
    wrong_book_thicknesses_m: list[float]
    median_thickness_m: float
    per_level_accuracy: dict[int, float]


def fig21_library_layout(
    seed: int = 11, books_per_level: int = 15, levels: int = 3
) -> LibraryLayoutResult:
    """Figure 21: one full shelf sweep; errors concentrate on thin books."""
    shelf = generate_bookshelf(levels=levels, books_per_level=books_per_level, seed=seed)
    tags = shelf.to_tags(seed=seed)
    scene = standard_antenna_moving_scene(tags, seed=seed)
    sweep = collect_sweep(scene)
    localizer = BatchLocalizer(STPPConfig())
    result = localizer.localize(sweep.profiles, expected_tag_ids=tags.ids())

    label_by_id = {tag.tag_id: tag.label for tag in tags}
    x_by_id = {tag.tag_id: tag.position.x for tag in tags}
    level_by_label = {book.call_number: book.level for book in shelf.books}
    thickness_by_label = {book.call_number: book.thickness_m for book in shelf.books}

    wrong: list[str] = []
    per_level_accuracy: dict[int, float] = {}
    for level in shelf.levels:
        level_ids = [tid for tid in tags.ids() if level_by_label[label_by_id[tid]] == level]
        truth = {tid: x_by_id[tid] for tid in level_ids}
        detected = [tid for tid in result.x_ordering.ordered_ids if tid in truth]
        accuracy = ordering_accuracy(truth, detected)
        per_level_accuracy[level] = accuracy
        true_rank = {tid: rank for rank, tid in enumerate(sorted(truth, key=truth.get))}
        for rank, tid in enumerate(detected):
            if true_rank[tid] != rank:
                wrong.append(label_by_id[tid])

    # The deployment's relative-localization accuracy is the per-level ordering
    # accuracy (books are only ever reshelved within their level).
    overall = float(np.mean(list(per_level_accuracy.values())))
    return LibraryLayoutResult(
        accuracy=overall,
        wrong_books=wrong,
        wrong_book_thicknesses_m=[thickness_by_label[b] for b in wrong],
        median_thickness_m=float(np.median([b.thickness_m for b in shelf.books])),
        per_level_accuracy=per_level_accuracy,
    )


def _library_sweep_task(
    rep_index: int, seed: int, books_per_level: int, levels: int
) -> tuple[SchemeScore, ...]:
    """One shelf sweep of the §5.1 headline measurement."""
    layout = fig21_library_layout(
        seed=seed, books_per_level=books_per_level, levels=levels
    )
    return (SchemeScore(scheme="library", metrics={"accuracy": layout.accuracy}),)


def case_library_headline(
    sweeps: int = 5,
    books_per_level: int = 15,
    levels: int = 3,
    service: SweepService | None = None,
) -> float:
    """§5.1 headline: mean per-level ordering accuracy over repeated sweeps."""
    (outcome,) = _run_grid(
        "library_headline",
        {},
        task=lambda cell: partial(
            _library_sweep_task, books_per_level=books_per_level, levels=levels
        ),
        seed=lambda cell, sweep_index: 20 + sweep_index,
        repetitions=sweeps,
        service=service,
    ).values()
    return float(np.mean(outcome.metric_samples("library", "accuracy")))


def _misplaced_books_task(
    rep_index: int, seed: int, count: int, books_per_level: int, levels: int
) -> tuple[SchemeScore, ...]:
    """One Table 2 trial: misplace ``count`` books, audit, check detection.

    Each repetition builds its own :class:`BatchLocalizer`; the reference
    profile and its segmentation are process-wide cached
    (``shared_canonical_reference``), so the engine is still shared within a
    pool worker.
    """
    rng = np.random.default_rng(seed)
    shelf = generate_bookshelf(levels=levels, books_per_level=books_per_level, seed=seed)
    shuffled, misplaced = misplace_books(shelf, count, rng=rng)
    flagged = audit_shelf(shuffled, seed=seed, localizer=BatchLocalizer(STPPConfig()))
    success = all(book in flagged for book in misplaced)
    return (SchemeScore(scheme="detection", metrics={"success": float(success)}),)


def table2_misplaced_books(
    counts: tuple[int, ...] = (1, 2, 3),
    repetitions: int = 5,
    books_per_level: int = 15,
    levels: int = 1,
    service: SweepService | None = None,
) -> dict[int, float]:
    """Table 2: success rate of detecting 1/2/3 misplaced books."""
    outcomes = _run_grid(
        "table2",
        {"count": counts},
        task=lambda cell: partial(
            _misplaced_books_task,
            count=cell.count,
            books_per_level=books_per_level,
            levels=levels,
        ),
        seed=lambda cell, rep: 300 + cell.count * 50 + rep,
        repetitions=repetitions,
        service=service,
    )
    return {
        cell.count: detection_success_rate(
            [value > 0.5 for value in outcome.metric_samples("detection", "success")]
        )
        for cell, outcome in outcomes.items()
    }


def _baggage_batch_experiment(
    rep_index: int,
    seed: int,
    period: TrafficPeriod,
    bags_per_batch: int,
    total_bags: int,
) -> SweepExperiment:
    """One conveyor batch of Table 3 (repetition index == batch index)."""
    remaining = total_bags - rep_index * bags_per_batch
    bag_count = min(bags_per_batch, remaining)
    batch = baggage_batch(
        period, bag_count, batch_index=rep_index, seed=period.start_hour
    )
    scene = standard_tag_moving_scene(batch.tags, seed=seed)
    return build_experiment(scene)


def _baggage_scheme_suite(experiment: SweepExperiment) -> list:
    """The three schemes Table 3 compares."""
    from ..baselines import GRssiScheme

    return [STPPScheme(), OTrackScheme(), GRssiScheme()]


def table3_baggage(
    periods: tuple[TrafficPeriod, ...] = PAPER_PERIODS,
    bags_per_batch: int = 15,
    batches_per_period: int = 2,
    service: SweepService | None = None,
) -> dict[str, dict[str, float]]:
    """Table 3: baggage ordering accuracy per scheme and traffic period."""
    outcomes = _run_grid(
        "table3",
        {"period": periods},
        task=lambda cell: partial(
            scene_task,
            scene_factory=partial(
                _baggage_batch_experiment,
                period=cell.period,
                bags_per_batch=bags_per_batch,
                total_bags=bags_per_batch * batches_per_period,
            ),
            scorer=partial(score_schemes, scheme_factory=_baggage_scheme_suite),
        ),
        seed=lambda cell, batch_index: batch_index + cell.period.start_hour,
        repetitions=batches_per_period,
        service=service,
    )
    results: dict[str, dict[str, float]] = {}
    for (period,), outcome in outcomes.items():
        for name in outcome.schemes():
            results.setdefault(name, {})[period.name] = float(
                np.mean(outcome.accuracy_samples(name, "accuracy_x"))
            )
    return results


def fig23_latency_cdf(
    bag_count: int = 30, seed: int = 7
) -> dict[str, list[LatencySample]]:
    """Figure 23: ordering-latency distribution of STPP vs OTrack."""
    positions = random_spacing_row(bag_count, 0.05, 0.20, rng=np.random.default_rng(seed))
    experiment = standard_experiment(positions, seed=seed, tag_moving=True)
    samples: dict[str, list[LatencySample]] = {}
    # STPP must wait for the trailing half of each V-zone before the order is
    # final; OTrack only waits for its active window to close, so its
    # collection tail is shorter.  Both add their own computation time.
    tails = {"STPP": 1.3, "OTrack": 1.2}
    for scheme in (STPPScheme(), OTrackScheme()):
        samples[scheme.name] = measure_scheme_latency(
            scheme,
            experiment.read_log,
            experiment.target_ids,
            collection_tail_s=tails[scheme.name],
        )
    return samples


# --------------------------------------------------------------------------
# Ablations (design choices called out in the paper)
# --------------------------------------------------------------------------


def _score_interleaved(
    experiment: SweepExperiment, variants: "dict[str, STPPConfig]"
) -> tuple[SchemeScore, ...]:
    """Score every STPP variant on one sweep, timing them interleaved.

    Each variant's ``latency_s`` is its best of five localizations (profile
    grouping excluded).  The variants take turns, one timing each per round,
    so a host whose speed drifts slows every variant alike instead of
    whichever ran last.  Localization is deterministic, so every round's
    result is the same and the last one is scored.
    """
    profiles = profiles_from_read_log(experiment.read_log)
    localizers = {name: BatchLocalizer(config) for name, config in variants.items()}
    best = dict.fromkeys(variants, float("inf"))
    results = {}
    for _ in range(5):
        for name, localizer in localizers.items():
            started = time.perf_counter()
            results[name] = localizer.localize(
                profiles, expected_tag_ids=experiment.target_ids
            )
            best[name] = min(best[name], time.perf_counter() - started)
    return tuple(
        SchemeScore(
            scheme=name,
            evaluation=evaluate_ordering(
                experiment.true_x,
                experiment.true_y,
                result.x_ordering.ordered_ids,
                result.y_ordering.ordered_ids,
            ),
            latency_s=best[name],
        )
        for name, result in results.items()
    )



def ablation_segmented_vs_full_dtw(
    repetitions: int = 2,
    tag_count: int = 6,
    spacing_m: float = 0.08,
    service: SweepService | None = None,
) -> dict[str, dict[str, float]]:
    """Segmented DTW (w=5) vs full-sample DTW: accuracy and detection runtime.

    Every repetition's sweep is simulated once and localized by all three
    strategies.  ``runtime_s`` is the localization time (profile grouping
    excluded), each repetition's best of five timings per strategy with the
    strategies interleaved, meaned over the repetitions.
    """
    variants = {
        method: STPPConfig(detection_method=method)
        for method in ("segmented_dtw", "full_dtw", "longest_run")
    }
    (outcome,) = _run_grid(
        "ablation_dtw",
        {},
        task=lambda cell: _staircase(
            tag_count, spacing_m, False, partial(_score_interleaved, variants=variants)
        ),
        seed=lambda cell, rep: 700 + rep,
        repetitions=repetitions,
        service=service,
    ).values()
    return {
        variant: {
            "accuracy": float(np.mean(outcome.accuracy_samples(variant, "combined"))),
            "runtime_s": float(np.mean(outcome.latencies(variant))),
        }
        for variant in variants
    }


def ablation_pivot_vs_all_pairs(
    repetitions: int = 3,
    tag_count: int = 8,
    spacing_m: float = 0.08,
    service: SweepService | None = None,
) -> dict[str, dict[str, float]]:
    """Pivot-based Y ordering (M−1 comparisons) vs all-pairs comparison."""
    variants = {
        comparison: STPPConfig(y_comparison=comparison)
        for comparison in ("pivot", "all_pairs")
    }
    (outcome,) = _run_grid(
        "ablation_pivot",
        {},
        task=lambda cell: _staircase(
            tag_count, spacing_m, True, partial(_score_interleaved, variants=variants)
        ),
        seed=lambda cell, rep: 800 + rep,
        repetitions=repetitions,
        service=service,
    ).values()
    return {
        variant: {"accuracy_y": float(np.mean(outcome.accuracy_samples(variant, "accuracy_y")))}
        for variant in variants
    }


def ablation_y_value_mode(
    repetitions: int = 3,
    tag_count: int = 8,
    spacing_m: float = 0.08,
    service: SweepService | None = None,
) -> dict[str, dict[str, float]]:
    """Depth-based (default) vs paper-literal raw vs curvature Y comparison."""
    variants = {mode: STPPConfig(y_value_mode=mode) for mode in ("depth", "raw", "curvature")}
    (outcome,) = _run_grid(
        "ablation_y_mode",
        {},
        task=lambda cell: _staircase(
            tag_count, spacing_m, True, partial(_score_interleaved, variants=variants)
        ),
        seed=lambda cell, rep: 900 + rep,
        repetitions=repetitions,
        service=service,
    ).values()
    return {
        variant: {"accuracy_y": float(np.mean(outcome.accuracy_samples(variant, "accuracy_y")))}
        for variant in variants
    }


def _score_fit_vs_raw_minimum(experiment: SweepExperiment) -> tuple[SchemeScore, ...]:
    """X accuracy from quadratic-fit bottoms vs raw-minimum bottoms on one sweep."""
    profiles = profiles_from_read_log(experiment.read_log)
    localizer = BatchLocalizer(STPPConfig())
    result = localizer.localize(profiles, expected_tag_ids=experiment.target_ids)
    with_fit = ordering_accuracy(experiment.true_x, result.x_ordering.ordered_ids)
    # Raw-minimum variant: order by the time of the smallest phase sample
    # inside each detected V-zone window, no fitting.
    raw_bottoms = {}
    for tag_id, vzone in result.vzones.items():
        window = profiles[tag_id].slice_index(vzone.start_index, vzone.end_index)
        unwrapped = np.unwrap(window.phases_rad)
        raw_bottoms[tag_id] = float(window.timestamps_s[int(np.argmin(unwrapped))])
    raw_order = sorted(raw_bottoms, key=lambda tid: raw_bottoms[tid])
    without_fit = ordering_accuracy(experiment.true_x, raw_order)
    return (
        SchemeScore(scheme="with_quadratic_fit", metrics={"accuracy": with_fit}),
        SchemeScore(scheme="raw_minimum", metrics={"accuracy": without_fit}),
    )


def ablation_quadratic_fitting(
    repetitions: int = 3,
    tag_count: int = 8,
    spacing_m: float = 0.05,
    service: SweepService | None = None,
) -> dict[str, float]:
    """Quadratic fitting vs raw-minimum bottom picking under dropouts."""
    (outcome,) = _run_grid(
        "ablation_quadratic",
        {},
        task=lambda cell: _staircase(tag_count, spacing_m, False, _score_fit_vs_raw_minimum),
        seed=lambda cell, rep: 950 + rep,
        repetitions=repetitions,
        service=service,
    ).values()
    return {
        variant: float(np.mean(outcome.metric_samples(variant, "accuracy")))
        for variant in ("with_quadratic_fit", "raw_minimum")
    }


def dtw_speedup_measurement(window_size: int = 5, seed: int = 4) -> dict[str, float]:
    """Measured speed-up of segmented DTW over raw-sample DTW (paper §3.1.2)."""
    experiment = standard_experiment(row_layout(1, 0.1), seed=seed, speed_mps=0.1)
    profiles = profiles_from_read_log(experiment.read_log)
    profile = profiles[experiment.target_ids[0]]
    reference = canonical_reference(speed_mps=0.1)

    started = time.perf_counter()
    subsequence_dtw_batch(reference.profile.phases_rad, [profile.phases_rad])
    full_runtime = time.perf_counter() - started

    ref_segments = segment_profile_arrays(reference.profile, window_size)
    measured_segments = segment_profile_arrays(profile, window_size)
    started = time.perf_counter()
    segmented_dtw_align_batch(ref_segments, [measured_segments])
    segmented_runtime = time.perf_counter() - started
    return {
        "full_dtw_s": full_runtime,
        "segmented_dtw_s": segmented_runtime,
        "speedup": full_runtime / max(segmented_runtime, 1e-9),
        "theoretical_speedup": float(window_size**2),
    }


def summarise_boxplot(samples: dict[str, list[float]]) -> dict[str, dict[str, float]]:
    """Convenience wrapper: five-number summaries per scheme for box plots."""
    return {name: summarise(values) for name, values in samples.items()}
