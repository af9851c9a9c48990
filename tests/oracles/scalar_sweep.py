"""The read-at-a-time sweep loop: the oracle for ``RFIDReader``'s fused engine.

:func:`scalar_sweep` runs one inventory round at a time through
:func:`run_round`, which walks the frame slot by slot and applies the C1G2 Q
rule per slot (:func:`on_slot`), and observes each successful slot on its own
through :func:`observe`, with the neighbouring tags found by a plain distance
scan.  It consumes the random generator in the order the fused engine
reproduces (one ``rng.integers`` per round, then each read's noise draws), so
every bit-identity test compares the two read logs field for field.
:func:`run_round` is also the reference for
:meth:`~repro.rfid.aloha.FrameSlottedAloha.run_round_schedule`, and
:func:`observe_batch` for the channel's sweep kernels.

The oracle draws each read's noise through its own scalar draws
(:func:`read_dropped`, :func:`noisy_phase`, :func:`noisy_rssi`, batched in
event order by :func:`draw_event_noise`), not through the production
``NoiseModel.draw_event_noise_scheduled``, so the fused == oracle tests
check the draw order against an independent implementation.
"""

from __future__ import annotations

import dataclasses
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.rf.antenna import ReadingZone
from repro.rf.channel import BackscatterChannel, BatchObservation
from repro.rf.geometry import Point3D
from repro.rf.noise import NoiseModel
from repro.rf.phase_model import DeviceOffsets, wrap_phase
from repro.rfid.aloha import FrameSlottedAloha, QAlgorithm
from repro.rfid.reader import AntennaPositionFn, ReaderConfig, RFIDReader, TagPositionFn
from repro.rfid.reading import ReadLog, TagRead
from repro.rfid.tag import Tag, TagCollection
from repro.simulation.scene import Scene


class SlotOutcome(Enum):
    """What happened in a single ALOHA slot."""

    EMPTY = "empty"
    SUCCESS = "success"
    COLLISION = "collision"


@dataclasses.dataclass(frozen=True, slots=True)
class SlotEvent:
    """The outcome of one slot within an inventory round."""

    start_time_s: float
    duration_s: float
    outcome: SlotOutcome
    tag_id: str | None = None
    """The replying tag for SUCCESS slots, None otherwise."""

    @property
    def end_time_s(self) -> float:
        return self.start_time_s + self.duration_s


def on_slot(q: QAlgorithm, outcome: SlotOutcome) -> None:
    """Update the floating-point Q after one slot (the C1G2 Q rule)."""
    if outcome is SlotOutcome.COLLISION:
        q.q_fp = min(q.q_max, q.q_fp + q.c)
    elif outcome is SlotOutcome.EMPTY:
        q.q_fp = max(q.q_min, q.q_fp - q.c)


def run_round(
    protocol: FrameSlottedAloha,
    tag_ids: Sequence[str],
    start_time_s: float,
    rng: np.random.Generator,
) -> list[SlotEvent]:
    """One inventory round over ``tag_ids``, one :class:`SlotEvent` per slot."""
    timings = protocol.timings
    algorithm = protocol._q_algorithm
    clock = start_time_s + timings.round_overhead_s
    frame_size = algorithm.frame_size

    if not tag_ids:
        # An empty round still burns one empty slot of air time.
        return [SlotEvent(clock, timings.empty_slot_s, SlotOutcome.EMPTY)]

    chosen_slots = rng.integers(0, frame_size, size=len(tag_ids), dtype=np.int32)
    slot_to_tags: dict[int, list[str]] = {}
    for tag_id, slot in zip(tag_ids, chosen_slots):
        slot_to_tags.setdefault(int(slot), []).append(tag_id)

    events: list[SlotEvent] = []
    for slot_index in range(frame_size):
        occupants = slot_to_tags.get(slot_index, [])
        if not occupants:
            outcome, duration, tag_id = SlotOutcome.EMPTY, timings.empty_slot_s, None
        elif len(occupants) == 1:
            outcome, duration, tag_id = (
                SlotOutcome.SUCCESS,
                timings.success_slot_s,
                occupants[0],
            )
        else:
            outcome, duration, tag_id = (
                SlotOutcome.COLLISION,
                timings.collision_slot_s,
                None,
            )
        events.append(SlotEvent(clock, duration, outcome, tag_id))
        clock += duration
        if protocol.adaptive:
            on_slot(algorithm, outcome)
    return events


def round_duration_s(protocol: FrameSlottedAloha, events: Sequence[SlotEvent]) -> float:
    """Total air time of a round produced by :func:`run_round`."""
    overhead = protocol.timings.round_overhead_s
    return (events[-1].end_time_s - events[0].start_time_s) + overhead


@dataclasses.dataclass(frozen=True, slots=True)
class ChannelObservation:
    """What the reader observes for a single tag reply attempt."""

    phase_rad: float
    rssi_dbm: float
    true_distance_m: float
    readable: bool


def read_dropped(noise: NoiseModel, fade_db: float, rng: np.random.Generator) -> bool:
    """Whether one read is lost, given its multipath fade depth.

    A fade at or below the threshold drops the read without a draw;
    otherwise one uniform decides (when the dropout probability is non-zero).
    """
    if fade_db <= noise.fade_dropout_threshold_db:
        return True
    if noise.random_dropout_probability == 0.0:
        return False
    return bool(rng.random() < noise.random_dropout_probability)


def noisy_phase(noise: NoiseModel, phase_rad: float, rng: np.random.Generator) -> float:
    """``phase_rad`` with Gaussian noise added, wrapped to [0, 2*pi)."""
    if noise.phase_noise_std_rad == 0.0:
        return float(wrap_phase(phase_rad))
    return float(wrap_phase(phase_rad + rng.normal(0.0, noise.phase_noise_std_rad)))


def noisy_rssi(noise: NoiseModel, rssi_dbm: float, rng: np.random.Generator) -> float:
    """``rssi_dbm`` with Gaussian noise added."""
    if noise.rssi_noise_std_db == 0.0:
        return float(rssi_dbm)
    return float(rssi_dbm + rng.normal(0.0, noise.rssi_noise_std_db))


def draw_event_noise(
    noise: NoiseModel, fade_db: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each event's ``(dropped, phase_noise, rssi_noise)``, drawn in event order.

    Per event, the draws :func:`read_dropped`, :func:`noisy_phase` and
    :func:`noisy_rssi` make, in that order; the normals are kept unwrapped so
    the channel can combine them with the physics.
    """
    count = len(fade_db)
    dropped = np.zeros(count, dtype=bool)
    phase_noise = np.zeros(count)
    rssi_noise = np.zeros(count)
    for i, fade in enumerate(np.asarray(fade_db, dtype=float).tolist()):
        dropped[i] = read_dropped(noise, fade, rng)
        if noise.phase_noise_std_rad != 0.0:
            phase_noise[i] = rng.normal(0.0, noise.phase_noise_std_rad)
        if noise.rssi_noise_std_db != 0.0:
            rssi_noise[i] = rng.normal(0.0, noise.rssi_noise_std_db)
    return dropped, phase_noise, rssi_noise


def observe_batch(
    channel: BackscatterChannel,
    antenna_positions: np.ndarray,
    tag_positions: np.ndarray,
    rng: np.random.Generator,
    device_offsets_total: "float | np.ndarray | None" = None,
    extra_positions: np.ndarray | None = None,
    extra_event_index: np.ndarray | None = None,
    tag_coupling_coefficient: float | None = None,
    tag_coupling_decay_m: float | None = None,
) -> BatchObservation:
    """Physics, then each event's noise draws in event order, then combine.

    Per event the draws are ``[dropout uniform (only when the fade is above
    the dropout threshold and the dropout probability is non-zero), phase
    normal (when phase noise is on), RSSI normal (when RSSI noise is on)]``.
    """
    physics = channel.sweep_physics(
        antenna_positions,
        tag_positions,
        device_offsets_total=device_offsets_total,
        extra_positions=extra_positions,
        extra_event_index=extra_event_index,
        tag_coupling_coefficient=tag_coupling_coefficient,
        tag_coupling_decay_m=tag_coupling_decay_m,
    )
    dropped, phase_noise, rssi_noise = draw_event_noise(
        channel.noise, physics.fade_db, rng
    )
    return channel.observe_scheduled(physics, dropped, phase_noise, rssi_noise)


def observe(
    channel: BackscatterChannel,
    antenna_pos: Point3D,
    tag_pos: Point3D,
    rng: np.random.Generator,
    coupling_positions: "Sequence[Point3D]" = (),
    tag_coupling_coefficient: float | None = None,
    tag_coupling_decay_m: float | None = None,
) -> ChannelObservation:
    """One reply attempt of a tag at ``tag_pos``: :func:`observe_batch` of one.

    ``coupling_positions`` are the neighbouring tags that couple into this
    reply, each a scatterer with the given coefficient and decay.
    """
    extra_positions = extra_index = None
    if coupling_positions:
        extra_positions = np.array([p.as_array() for p in coupling_positions])
        extra_index = np.zeros(len(coupling_positions), dtype=np.intp)
    batch = observe_batch(
        channel,
        antenna_pos.as_array()[None, :],
        tag_pos.as_array()[None, :],
        rng,
        extra_positions=extra_positions,
        extra_event_index=extra_index,
        tag_coupling_coefficient=tag_coupling_coefficient,
        tag_coupling_decay_m=tag_coupling_decay_m,
    )
    return ChannelObservation(
        phase_rad=float(batch.phase_rad[0]),
        rssi_dbm=float(batch.rssi_dbm[0]),
        true_distance_m=float(batch.true_distance_m[0]),
        readable=bool(batch.readable[0]),
    )


def zone_contains(zone: ReadingZone, antenna_pos: Point3D, tag_pos: Point3D) -> bool:
    """Whether a tag at ``tag_pos`` is readable from ``antenna_pos``."""
    return bool(zone.contains_many(antenna_pos.as_array(), tag_pos.as_array()[None])[0])


def scattering_attenuation(decay_m: float, distance_m: float) -> float:
    """A coupling scatterer's extra amplitude attenuation at ``distance_m``.

    1 within the decay scale, ``(decay / distance) ** 2`` beyond it: the
    near-field roll-off that ``MultipathChannel.complex_gains`` applies to
    every coupling scatterer.
    """
    if distance_m <= decay_m:
        return 1.0
    return (decay_m / distance_m) ** 2


def coupling_positions(
    config: ReaderConfig,
    tag_id: str,
    tag_pos: Point3D,
    tags_by_id: Mapping[str, Tag],
    position_of: Callable[[str, float], Point3D],
    time_s: float,
) -> list[Point3D]:
    """Positions of the tags that couple into ``tag_id``'s reply at ``time_s``."""
    if config.tag_coupling_coefficient <= 0.0:
        return []
    radius = config.tag_coupling_radius_m
    positions: list[Point3D] = []
    for other_id in tags_by_id:
        if other_id == tag_id:
            continue
        other_pos = position_of(other_id, time_s)
        if tag_pos.distance_to(other_pos) <= radius:
            positions.append(other_pos)
    return positions


def scalar_sweep(
    reader: RFIDReader,
    tags: TagCollection,
    antenna_position: AntennaPositionFn,
    duration_s: float,
    tag_position: TagPositionFn | None,
    rng: np.random.Generator,
) -> ReadLog:
    """Simulate one sweep read by read; same contract as ``RFIDReader.sweep``."""
    config = reader.config
    protocol = reader.protocol
    static_positions: Mapping[str, Point3D] = tags.positions()

    def position_of(tag_id: str, time_s: float) -> Point3D:
        if tag_position is not None:
            return tag_position(tag_id, time_s)
        return static_positions[tag_id]

    # One channel per tag: Eq. (1)'s ``mu`` includes the tag's reflection phase.
    channels: dict[str, BackscatterChannel] = {}

    def channel_for(tag: Tag) -> BackscatterChannel:
        channel = channels.get(tag.tag_id)
        if channel is None:
            offsets = DeviceOffsets(
                theta_tx=config.reader_tx_phase_rad,
                theta_rx=config.reader_rx_phase_rad,
                theta_tag=tag.model.reflection_phase_rad,
            )
            channel = dataclasses.replace(config.channel, device_offsets=offsets)
            channels[tag.tag_id] = channel
        return channel

    log = ReadLog()
    clock = 0.0
    tags_by_id = {tag.tag_id: tag for tag in tags}

    while clock < duration_s:
        antenna_pos = antenna_position(clock)
        in_zone = [
            tag_id
            for tag_id in tags_by_id
            if zone_contains(config.reading_zone, antenna_pos, position_of(tag_id, clock))
        ]
        events = run_round(protocol, in_zone, clock, rng)
        for event in events:
            if event.outcome is not SlotOutcome.SUCCESS or event.tag_id is None:
                continue
            read_time = event.end_time_s
            if read_time > duration_s:
                break
            tag = tags_by_id[event.tag_id]
            channel = channel_for(tag)
            tag_pos_now = position_of(tag.tag_id, read_time)
            coupling = coupling_positions(
                config, tag.tag_id, tag_pos_now, tags_by_id, position_of, read_time
            )
            observation = observe(
                channel,
                antenna_position(read_time),
                tag_pos_now,
                rng,
                coupling,
                config.tag_coupling_coefficient,
                config.tag_coupling_decay_m,
            )
            if not observation.readable:
                continue
            log.append(
                TagRead(
                    timestamp_s=read_time,
                    tag_id=tag.tag_id,
                    phase_rad=observation.phase_rad,
                    rssi_dbm=observation.rssi_dbm,
                    channel_index=channel.channel_index,
                    antenna_port=config.antenna_port,
                )
            )
        round_time = round_duration_s(protocol, events)
        if round_time <= 0:
            raise RuntimeError("inventory round produced non-positive duration")
        clock += round_time

    return ReadLog(sorted(log.reads, key=lambda read: read.timestamp_s))


def scalar_scene_log(scene: Scene) -> ReadLog:
    """The oracle's read log for ``scene``, as ``collect_sweep`` would sweep it.

    The protocol is a fresh copy of the scene's, so the oracle starts from
    the initial Q even when the scene has already been swept.
    """
    reader = RFIDReader(
        config=scene.reader_config, protocol=dataclasses.replace(scene.protocol)
    )
    return scalar_sweep(
        reader,
        scene.tags,
        scene.scenario.antenna_position,
        scene.scenario.duration_s,
        scene.scenario.tag_position,
        scene.rng(),
    )
