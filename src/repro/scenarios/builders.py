"""Shared layout/motion builders: expand a :class:`ScenarioSpec` into sweeps.

One entry point matters: :func:`scenario_experiment`, the module-level (and
therefore picklable) scene factory the sweep engine calls once per
repetition.  It dispatches on the spec's layout kind, generates the tag
positions with the exact same generators the legacy workload modules use,
and assembles a :class:`~repro.evaluation.runner.SweepExperiment` with the
spec's channel, placement, and Landmarc reference grid applied.

**Bit-identity contract.**  The three legacy leaderboard workloads (library
shelf, airport baggage belt, warehouse conveyor) are now registered specs;
for each, this module calls the same underlying functions with the same
argument values and seeds as the retired bespoke factories, so the resulting
:class:`~repro.rfid.reading.ReadLog` — and every accuracy number derived
from it — is unchanged.  ``tests/test_scenario_equivalence.py`` pins this.
"""

from __future__ import annotations

import numpy as np

from ..evaluation.runner import (
    SweepExperiment,
    build_experiment,
    make_reference_tags,
    standard_experiment,
)
from ..motion.scenarios import (
    BeltTagPositions,
    StaticAntennaPosition,
    SweepScenario,
)
from ..motion.speed_profiles import jittered_speed_profile
from ..rf.geometry import Point3D, as_position_array, position_bounds
from ..rf.noise import NoiseModel
from ..rfid.aloha import FrameSlottedAloha
from ..rfid.tag import make_tags
from ..simulation.presets import SweepGeometry, standard_reader_config
from ..simulation.scene import Scene
from ..workloads.airport import TrafficPeriod, baggage_batch
from ..workloads.layouts import (
    grid_layout,
    random_spacing_row,
    reference_tag_grid,
    row_layout,
    staircase_layout,
)
from ..workloads.library import Bookshelf, generate_bookshelf
from ..workloads.warehouse import ConveyorConfig, conveyor_experiment
from .spec import ScenarioSpec


def noise_model(spec: ScenarioSpec) -> NoiseModel:
    """The spec's channel section as a simulator noise model."""
    channel = spec.channel
    return NoiseModel(
        phase_noise_std_rad=channel.phase_noise_std_rad,
        rssi_noise_std_db=channel.rssi_noise_std_db,
        random_dropout_probability=channel.random_dropout_probability,
        fade_dropout_threshold_db=channel.fade_dropout_threshold_db,
    )


def sweep_geometry(spec: ScenarioSpec) -> SweepGeometry:
    """The spec's placement section as the reader sweep geometry."""
    placement = spec.placement
    return SweepGeometry(
        standoff_m=placement.standoff_m,
        antenna_clearance_m=placement.antenna_clearance_m,
        sweep_margin_m=placement.sweep_margin_m,
    )


def reference_grid_for(positions: np.ndarray, spec: ScenarioSpec) -> np.ndarray:
    """The Landmarc reference-tag grid around the target footprint.

    With ``placement.reference_spacing_m = None`` the grid is deliberately
    sparse — spacing ``max(0.25, x_span / 4)`` (cf. the Figure 18 deployment
    note: a dense anchor grid starves the targets of reads); a number pins
    the spacing explicitly.
    """
    (min_x, min_y, _), (max_x, max_y, _) = position_bounds(positions)
    span_x = max_x - min_x + 0.2
    span_y = max_y - min_y + 0.2
    spacing = spec.placement.reference_spacing_m
    if spacing is None:
        spacing = max(0.25, span_x / 4.0)
    return reference_tag_grid(
        span_x,
        span_y,
        spacing_m=spacing,
        origin=Point3D(min_x - 0.1, min_y - 0.1, 0.0),
    )


# --------------------------------------------------------------------------
# Position generators (static layouts)
# --------------------------------------------------------------------------


def scenario_positions(spec: ScenarioSpec, seed: int) -> np.ndarray:
    """One repetition's tag positions, as ``(N, 3)``, for the position-list layout kinds.

    Public wrapper of the internal layout dispatch so benchmarks (e.g. the
    dense-hall backend-scaling scene) can materialise a registered spec's
    geometry without scoring a full :class:`SweepExperiment`.
    """
    return _layout_positions(spec, seed)


def _layout_positions(spec: ScenarioSpec, seed: int) -> np.ndarray:
    """Tag positions of one repetition for the position-list layout kinds."""
    layout = spec.layout
    population = spec.population
    if layout.kind == "row":
        return row_layout(
            population.count, layout.param("spacing_m"), y_m=layout.param("y_m")
        )
    if layout.kind == "random_row":
        return random_spacing_row(
            population.count,
            layout.param("min_spacing_m"),
            layout.param("max_spacing_m"),
            rng=np.random.default_rng(seed),
            y_jitter_m=layout.param("y_jitter_m"),
        )
    if layout.kind == "grid":
        return grid_layout(
            columns=population.per_group,
            rows=population.groups,
            x_spacing_m=layout.param("x_spacing_m"),
            y_spacing_m=layout.param("y_spacing_m"),
        )
    if layout.kind == "staircase":
        return staircase_layout(
            population.count,
            layout.param("x_spacing_m"),
            layout.param("y_spacing_m"),
            levels=population.groups,
        )
    if layout.kind == "bookshelf":
        shelf = generate_bookshelf(
            levels=population.groups,
            books_per_level=population.per_group,
            thickness_range_m=(
                layout.param("thickness_min_m"),
                layout.param("thickness_max_m"),
            ),
            seed=seed,
        )
        shelf = Bookshelf(books=shelf.books, level_height_m=layout.param("level_height_m"))
        spines = shelf.spine_positions()
        return as_position_array([spines[book.call_number] for book in shelf.books])
    raise ValueError(f"layout kind {layout.kind!r} has no static position generator")


def _baggage_positions(spec: ScenarioSpec, rep_index: int, seed: int) -> np.ndarray:
    """Bag positions of one airport-belt repetition.

    ``gap_ranges_m`` plays the role of the paper's Table 3 traffic periods:
    repetition *i* draws its adjacent-bag gaps from range ``i mod len``,
    exactly as the legacy factory cycled ``PAPER_PERIODS``.
    """
    ranges = spec.layout.gap_ranges_m
    low, high = ranges[rep_index % len(ranges)]
    period = TrafficPeriod(
        name=f"gap[{low},{high}]",
        start_hour=0,
        end_hour=0,
        baggage_count=spec.population.count,
        min_gap_m=low,
        max_gap_m=high,
    )
    batch = baggage_batch(
        period,
        spec.population.count,
        batch_index=rep_index,
        lateral_jitter_m=spec.layout.param("lateral_jitter_m"),
        seed=seed,
    )
    return batch.tags.position_array


# --------------------------------------------------------------------------
# Scene assembly
# --------------------------------------------------------------------------


def _jittered_belt_experiment(
    positions: np.ndarray, spec: ScenarioSpec, seed: int
) -> SweepExperiment:
    """A surging/crawling belt carrying a generic layout past a fixed antenna.

    Mirrors :func:`repro.workloads.warehouse.conveyor_scenario`: every tag
    (targets and reference anchors alike) shares one jittered speed profile,
    so relative geometry is preserved — the precondition of the paper's
    tag-moving equivalence — while the phase profiles stretch and compress.
    """
    geometry = sweep_geometry(spec)
    motion = spec.motion
    target_tags = make_tags(positions, seed=seed)
    reference_tags, reference_positions = make_reference_tags(
        reference_grid_for(positions, spec), seed
    )
    all_tags = target_tags.concat(reference_tags)

    (min_x, min_y, _), (max_x, _, _) = position_bounds(all_tags.position_array)
    antenna_pos = Point3D(
        min_x - geometry.sweep_margin_m,
        min_y - geometry.antenna_clearance_m,
        geometry.standoff_m,
    )
    span = (max_x - min_x) + 2.0 * geometry.sweep_margin_m
    nominal_duration = span / motion.speed_mps + 1.0
    # The jittered profile's speed is bounded below at 0.3x nominal, so
    # stretching the schedule by the reciprocal guarantees the slowest
    # possible belt still carries every tag past the antenna.
    profile = jittered_speed_profile(
        motion.speed_mps,
        nominal_duration / 0.3,
        jitter_fraction=motion.jitter_fraction,
        rng=np.random.default_rng(seed),
    )
    duration = profile.time_to_cover(span) + 1.0
    scenario = SweepScenario(
        antenna_position=StaticAntennaPosition(antenna_pos),
        tag_position=BeltTagPositions(all_tags.tag_ids, all_tags.position_array, profile),
        duration_s=duration,
        description=f"scenario {spec.name}: jittered belt",
    )
    reader_config = standard_reader_config(
        all_tags,
        seed=seed,
        noise=noise_model(spec),
        reflector_count=spec.channel.reflector_count,
    )
    scene = Scene(
        tags=all_tags,
        scenario=scenario,
        reader_config=reader_config,
        protocol=FrameSlottedAloha(),
        seed=seed + 1,
        description=scenario.description,
    )
    return build_experiment(
        scene, target_tags=target_tags, reference_positions=reference_positions
    )


def _conveyor_lanes_experiment(
    spec: ScenarioSpec, rep_index: int, seed: int
) -> SweepExperiment:
    """The warehouse sortation belt, parameterized by the spec."""
    layout = spec.layout
    config = ConveyorConfig(
        lanes=spec.population.groups,
        lane_pitch_m=layout.param("lane_pitch_m"),
        cartons_per_lane=spec.population.per_group,
        min_gap_m=layout.param("min_gap_m"),
        max_gap_m=layout.param("max_gap_m"),
        nominal_speed_mps=spec.motion.speed_mps,
        speed_jitter_fraction=spec.motion.jitter_fraction,
        lateral_jitter_m=layout.param("lateral_jitter_m"),
    )
    spacing = spec.placement.reference_spacing_m
    return conveyor_experiment(
        rep_index,
        seed,
        config=config,
        reference_spacing_m=0.30 if spacing is None else spacing,
        geometry=sweep_geometry(spec),
        noise=noise_model(spec),
        reflector_count=spec.channel.reflector_count,
    )


def scenario_experiment(
    rep_index: int, seed: int, spec: ScenarioSpec
) -> SweepExperiment:
    """Sweep-plan scene factory: one scored repetition of ``spec``.

    Module-level and picklable (the spec rides along inside a
    ``functools.partial``), as the sweep engine requires.

    A spec carrying a ``faults`` section gets its read log degraded through
    the fault pipeline after simulation — seed-offset by the repetition seed,
    so every rep draws decorrelated but reproducible faults.  Clean specs
    skip the pipeline entirely and produce the exact pre-fault-layer log.
    """
    experiment = _clean_scenario_experiment(rep_index, seed, spec)
    if spec.faults is not None:
        from ..faults import apply_to_log

        experiment.read_log = apply_to_log(
            spec.faults, experiment.read_log, seed_offset=seed
        )
    return experiment


def _clean_scenario_experiment(
    rep_index: int, seed: int, spec: ScenarioSpec
) -> SweepExperiment:
    if spec.layout.kind == "conveyor_lanes":
        return _conveyor_lanes_experiment(spec, rep_index, seed)
    if spec.layout.kind == "baggage_belt":
        positions = _baggage_positions(spec, rep_index, seed)
    else:
        positions = _layout_positions(spec, seed)

    motion = spec.motion
    if motion.is_belt:
        if motion.jitter_fraction > 0:
            return _jittered_belt_experiment(positions, spec, seed)
        return standard_experiment(
            positions,
            seed=seed,
            tag_moving=True,
            speed_mps=motion.speed_mps,
            reference_grid=reference_grid_for(positions, spec),
            geometry=sweep_geometry(spec),
            noise=noise_model(spec),
            reflector_count=spec.channel.reflector_count,
        )
    return standard_experiment(
        positions,
        seed=seed,
        tag_moving=False,
        speed_mps=motion.speed_mps,
        reference_grid=reference_grid_for(positions, spec),
        jitter_fraction=motion.jitter_fraction,
        geometry=sweep_geometry(spec),
        noise=noise_model(spec),
        reflector_count=spec.channel.reflector_count,
    )
