"""Warehouse case study: multi-lane conveyor sortation (scenario extension).

A sortation conveyor in a fulfilment warehouse carries tagged cartons past a
fixed reader antenna in **multiple parallel lanes**.  Downstream diverters
need to know, per lane, which carton arrives first — exactly the relative
ordering problem STPP solves — and across lanes, which lane a carton travels
in (the Y axis).  Unlike the airport belt (:mod:`repro.workloads.airport`),
the belt speed here is **variable**: accumulation zones and merge gates
upstream make the belt surge and crawl, which stretches and compresses the
phase profiles — the situation STPP's DTW matching is designed for.

The geometry mirrors the paper's tag-moving equivalence (§1.3): the antenna
is static, every carton translates along −X with the *same* time-varying belt
motion, so the relative carton geometry is preserved and, in the antenna's
frame, the sweep looks like an antenna moving at the belt's (variable)
speed.  The scene is the standard belt sweep,
:func:`~repro.simulation.presets.standard_tag_moving_scene`, run at the
config's nominal speed and speed jitter.

The workload plugs into the parallel experiment engine: use
:func:`conveyor_experiment` as a :class:`~repro.evaluation.sweep.SweepPlan`
scene factory, or :func:`warehouse_sweep_plan` for the ready-made plan scored
by all five baseline schemes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..motion.speed_profiles import DEFAULT_BELT_SPEED_MPS
from ..rf.noise import NoiseModel
from ..rfid.tag import TagCollection, make_tags
from ..simulation.presets import (
    DEFAULT_NOISE,
    DEFAULT_REFLECTOR_COUNT,
    SweepGeometry,
    standard_tag_moving_scene,
)
from ..simulation.scene import Scene
from .layouts import footprint_reference_grid


@dataclass(frozen=True, slots=True)
class ConveyorConfig:
    """Parameters of one sortation-conveyor deployment."""

    lanes: int = 3
    """Parallel lanes on the belt."""

    lane_pitch_m: float = 0.15
    """Centre-to-centre lane separation (the Y-axis signal)."""

    cartons_per_lane: int = 4
    """Cartons per lane in one batch."""

    min_gap_m: float = 0.06
    max_gap_m: float = 0.25
    """Range of gaps between consecutive cartons within a lane."""

    nominal_speed_mps: float = DEFAULT_BELT_SPEED_MPS
    """Average belt speed."""

    speed_jitter_fraction: float = 0.15
    """Belt speed variability (0 = constant belt); redrawn every ~0.8 s."""

    lateral_jitter_m: float = 0.03
    """How far a carton's tag may sit off its lane centre."""

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ValueError(f"need at least one lane, got {self.lanes}")
        if self.cartons_per_lane < 1:
            raise ValueError(f"need at least one carton per lane, got {self.cartons_per_lane}")
        if self.lane_pitch_m <= 0:
            raise ValueError(f"lane pitch must be positive, got {self.lane_pitch_m}")
        if not 0 < self.min_gap_m <= self.max_gap_m:
            raise ValueError(
                f"need 0 < min_gap <= max_gap, got [{self.min_gap_m}, {self.max_gap_m}]"
            )
        if self.nominal_speed_mps <= 0:
            raise ValueError(f"belt speed must be positive, got {self.nominal_speed_mps}")
        if not 0.0 <= self.speed_jitter_fraction < 1.0:
            raise ValueError(
                f"speed jitter must be in [0, 1), got {self.speed_jitter_fraction}"
            )
        if self.lateral_jitter_m < 0 or self.lateral_jitter_m >= self.lane_pitch_m / 2.0:
            raise ValueError("lateral jitter must be non-negative and below half the lane pitch")

    @property
    def carton_count(self) -> int:
        """Total cartons in one batch."""
        return self.lanes * self.cartons_per_lane


@dataclass(frozen=True)
class ConveyorBatch:
    """One batch of cartons riding the belt together."""

    tags: TagCollection
    config: ConveyorConfig
    batch_index: int

    def ground_truth_order(self) -> list[str]:
        """Carton order along the belt (increasing X = order of arrival)."""
        return self.tags.order_along("x")


def conveyor_batch(
    config: ConveyorConfig = ConveyorConfig(),
    batch_index: int = 0,
    seed: int | None = None,
) -> ConveyorBatch:
    """Generate one multi-lane batch of tagged cartons.

    Within each lane, consecutive cartons are separated by gaps drawn from the
    config's range; each carton's tag sits near (not exactly on) its lane
    centre.  Labels encode ``CART-<batch>-<lane>-<position>`` so ground truth
    is recoverable from the label alone.
    """
    rng = np.random.default_rng(None if seed is None else seed + batch_index)
    positions = np.zeros((config.carton_count, 3))
    labels: list[str] = []
    for lane in range(config.lanes):
        gaps = rng.uniform(
            config.min_gap_m, config.max_gap_m, size=config.cartons_per_lane - 1
        )
        xs = np.concatenate([[0.0], np.cumsum(gaps)])
        # Lanes are staggered: cartons in different lanes rarely align.
        xs = xs + rng.uniform(0.0, config.max_gap_m)
        lateral = rng.uniform(
            -config.lateral_jitter_m, config.lateral_jitter_m, size=config.cartons_per_lane
        )
        rows = slice(lane * config.cartons_per_lane, (lane + 1) * config.cartons_per_lane)
        positions[rows, 0] = xs
        positions[rows, 1] = lane * config.lane_pitch_m + lateral
        labels.extend(
            f"CART-{batch_index:03d}-{lane}-{position_index:03d}"
            for position_index in range(config.cartons_per_lane)
        )
    tags = make_tags(positions, labels=labels, seed=seed)
    return ConveyorBatch(tags=tags, config=config, batch_index=batch_index)


def conveyor_scene(
    batch: ConveyorBatch,
    seed: int | None = None,
    geometry: SweepGeometry = SweepGeometry(),
    extra_tags: TagCollection | None = None,
    noise: NoiseModel = DEFAULT_NOISE,
    reflector_count: int = DEFAULT_REFLECTOR_COUNT,
) -> Scene:
    """Simulation scene for one conveyor batch: the standard belt sweep.

    The belt runs at the config's nominal speed with its speed jitter, as
    :func:`~repro.simulation.presets.standard_tag_moving_scene` builds it.
    ``extra_tags`` (e.g. Landmarc reference tags riding the belt) join the
    sweep; they move with the same belt profile as the cartons.  ``noise``
    and ``reflector_count`` override the channel preset (scenario specs pin
    them explicitly).
    """
    config = batch.config
    return standard_tag_moving_scene(
        batch.tags if extra_tags is None else batch.tags.concat(extra_tags),
        belt_speed_mps=config.nominal_speed_mps,
        jitter_fraction=config.speed_jitter_fraction,
        geometry=geometry,
        noise=noise,
        reflector_count=reflector_count,
        seed=seed,
    )


def conveyor_experiment(
    rep_index: int,
    seed: int,
    config: ConveyorConfig = ConveyorConfig(),
    reference_spacing_m: float = 0.30,
    geometry: SweepGeometry = SweepGeometry(),
    noise: NoiseModel = DEFAULT_NOISE,
    reflector_count: int = DEFAULT_REFLECTOR_COUNT,
):
    """Sweep-plan scene factory: one scored conveyor batch per repetition.

    Adds a sparse grid of Landmarc reference tags around the carton footprint
    (they ride the belt with the cartons, so their relative geometry — which
    is what a single-antenna Landmarc adaptation compares — is preserved).
    Module-level and picklable, as the sweep engine requires.
    """
    from ..evaluation.runner import build_experiment, make_reference_tags

    batch = conveyor_batch(config, batch_index=rep_index, seed=seed)
    reference_tags, reference_positions = make_reference_tags(
        footprint_reference_grid(batch.tags.position_array, reference_spacing_m), seed
    )
    scene = conveyor_scene(
        batch,
        seed=seed,
        geometry=geometry,
        extra_tags=reference_tags,
        noise=noise,
        reflector_count=reflector_count,
    )
    return build_experiment(
        scene, target_tags=batch.tags, reference_positions=reference_positions
    )


@dataclass
class ConveyorPortal:
    """A live streaming portal over one conveyor batch.

    Wraps a :class:`~repro.service.LocalizationSession` around the streaming
    reader (:meth:`~repro.rfid.reader.RFIDReader.sweep_stream`): the belt
    carries the cartons past the antenna, reads flow into the session round
    by round, and :meth:`updates` yields provisional orderings while cartons
    are still in front of the antenna — the deployment shape of the paper's
    conveyor scenarios, where diverters need answers before the batch has
    fully passed.
    """

    batch: ConveyorBatch
    scene: Scene
    session: "LocalizationSession"
    update_every_rounds: int = 5

    def updates(self):
        """Drive the sweep; yield provisional updates, then the final one.

        The final update's orderings are bit-identical to running the batch
        pipeline over the completed sweep's read log (the session's
        convergence guarantee — see ``docs/streaming.md``).
        """
        from ..rfid.reader import RFIDReader

        reader = RFIDReader(
            config=self.scene.reader_config, protocol=self.scene.protocol
        )
        for read_batch in reader.sweep_stream(
            tags=self.scene.tags,
            antenna_position=self.scene.scenario.antenna_position,
            duration_s=self.scene.scenario.duration_s,
            tag_position=self.scene.scenario.tag_position,
            rng=self.scene.rng(),
        ):
            self.session.ingest_batch(read_batch)
            if (read_batch.round_index + 1) % self.update_every_rounds == 0:
                yield self.session.provisional()
        yield self.session.finalize()

    def belt_order_accuracy(self, update=None) -> float:
        """Ordering accuracy of an update's X ordering vs the true belt order.

        With ``update=None`` this scores the **final** ordering — it calls
        ``session.finalize()``, which freezes the session, so only use that
        form after :meth:`updates` has been fully consumed.  To score a
        provisional ordering mid-stream, pass that
        :class:`~repro.service.StreamingUpdate` explicitly (the session is
        left untouched).
        """
        from ..evaluation.metrics import strict_ordering_accuracy

        if update is None:
            update = self.session.finalize()
        return strict_ordering_accuracy(
            self.batch.ground_truth_order(),
            list(update.result.x_ordering.ordered_ids),
        )


def conveyor_portal(
    config: ConveyorConfig = ConveyorConfig(),
    batch_index: int = 0,
    seed: int | None = None,
    geometry: SweepGeometry = SweepGeometry(),
    update_every_rounds: int = 5,
) -> ConveyorPortal:
    """Build a streaming portal over one freshly generated conveyor batch.

    The portal's session expects exactly the batch's cartons and is labelled
    with the scene's reader channel; consume :meth:`ConveyorPortal.updates`
    to run the sweep live.
    """
    from ..service import LocalizationSession

    if update_every_rounds < 1:
        raise ValueError(
            f"update_every_rounds must be >= 1, got {update_every_rounds}"
        )
    batch = conveyor_batch(config, batch_index=batch_index, seed=seed)
    scene = conveyor_scene(batch, seed=seed, geometry=geometry)
    session = LocalizationSession(
        expected_tag_ids=batch.tags.ids(),
        channel_index=scene.reader_config.channel.channel_index,
    )
    return ConveyorPortal(
        batch=batch,
        scene=scene,
        session=session,
        update_every_rounds=update_every_rounds,
    )


def warehouse_sweep_plan(
    repetitions: int = 3,
    config: ConveyorConfig = ConveyorConfig(),
    base_seed: int = 2015,
    name: str = "warehouse",
):
    """The ready-made engine plan: conveyor batches scored by all five schemes.

    Seeds derive from ``np.random.SeedSequence(base_seed)`` (the engine's
    default derivation); pass the plan to a
    :class:`~repro.evaluation.sweep.SweepService` to run it in parallel.
    """
    from functools import partial

    from ..evaluation.runner import standard_scheme_suite
    from ..evaluation.sweep import scheme_sweep_plan, score_schemes

    return scheme_sweep_plan(
        name=name,
        scene_factory=partial(conveyor_experiment, config=config),
        scorer=partial(score_schemes, scheme_factory=standard_scheme_suite),
        repetitions=repetitions,
        base_seed=base_seed,
    )
