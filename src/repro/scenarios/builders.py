"""Shared layout/motion builders: expand a :class:`ScenarioSpec` into sweeps.

One entry point matters: :func:`scenario_experiment`, the module-level (and
therefore picklable) scene factory the sweep engine calls once per
repetition.  It dispatches on the spec's layout kind, generates the tag
positions with the exact same generators the legacy workload modules use,
and assembles a :class:`~repro.evaluation.runner.SweepExperiment` with the
spec's channel, placement, and Landmarc reference grid
(:func:`~repro.workloads.layouts.footprint_reference_grid`) applied.  Every
motion kind goes through one
:func:`~repro.evaluation.runner.standard_experiment` call, so the scene is
built by one of the two presets in :mod:`repro.simulation.presets`: the
antenna-moving sweep, or the belt sweep (constant for ``belt``, surging and
crawling for ``belt_jittered``).  The warehouse lanes go through
:func:`~repro.workloads.warehouse.conveyor_experiment`, which uses the same
belt preset.

**Bit-identity contract.**  The three legacy leaderboard workloads (library
shelf, airport baggage belt, warehouse conveyor) are now registered specs;
for each, this module calls the same underlying functions with the same
argument values and seeds as the retired bespoke factories, so the resulting
:class:`~repro.rfid.reading.ReadLog` — and every accuracy number derived
from it — is unchanged.  ``tests/test_scenario_equivalence.py`` pins this.
"""

from __future__ import annotations

import numpy as np

from ..evaluation.runner import SweepExperiment, standard_experiment
from ..rf.geometry import as_position_array
from ..rf.noise import NoiseModel
from ..simulation.presets import SweepGeometry
from ..workloads.airport import TrafficPeriod, baggage_batch
from ..workloads.layouts import (
    footprint_reference_grid,
    grid_layout,
    random_spacing_row,
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
    return standard_experiment(
        positions,
        seed=seed,
        tag_moving=motion.is_belt,
        speed_mps=motion.speed_mps,
        reference_grid=footprint_reference_grid(
            positions, spec.placement.reference_spacing_m
        ),
        jitter_fraction=motion.jitter_fraction,
        geometry=sweep_geometry(spec),
        noise=noise_model(spec),
        reflector_count=spec.channel.reflector_count,
    )
