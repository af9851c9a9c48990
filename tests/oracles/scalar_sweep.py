"""The read-at-a-time sweep loop: the oracle for ``RFIDReader``'s fused engine.

:func:`scalar_sweep` runs one inventory round at a time through the public
:meth:`~repro.rfid.aloha.FrameSlottedAloha.run_round` and observes each
successful slot on its own through
:meth:`~repro.rf.channel.BackscatterChannel.observe`, with the neighbouring
tags found by a plain distance scan.  It consumes the random generator in the
order the fused engine reproduces (one ``rng.integers`` per round, then each
read's noise draws), so every bit-identity test compares the two read logs
field for field.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping

import numpy as np

from repro.rf.channel import BackscatterChannel
from repro.rf.geometry import Point3D
from repro.rf.multipath import Reflector
from repro.rf.phase_model import DeviceOffsets
from repro.rfid.aloha import SlotOutcome
from repro.rfid.reader import AntennaPositionFn, ReaderConfig, RFIDReader, TagPositionFn
from repro.rfid.reading import ReadLog, TagRead
from repro.rfid.tag import Tag, TagCollection
from repro.simulation.scene import Scene


def coupling_scatterers(
    config: ReaderConfig,
    tag_id: str,
    tag_pos: Point3D,
    tags_by_id: Mapping[str, Tag],
    position_of: Callable[[str, float], Point3D],
    time_s: float,
) -> tuple[Reflector, ...]:
    """Scatterers representing the tags near ``tag_id`` at ``time_s``."""
    coefficient = config.tag_coupling_coefficient
    if coefficient <= 0.0:
        return ()
    radius = config.tag_coupling_radius_m
    scatterers: list[Reflector] = []
    for other_id in tags_by_id:
        if other_id == tag_id:
            continue
        other_pos = position_of(other_id, time_s)
        if tag_pos.distance_to(other_pos) > radius:
            continue
        scatterers.append(
            Reflector(
                position=other_pos,
                reflection_coefficient=coefficient,
                scattering_decay_m=config.tag_coupling_decay_m,
            )
        )
    return tuple(scatterers)


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
            if config.reading_zone.contains(antenna_pos, position_of(tag_id, clock))
        ]
        events = protocol.run_round(in_zone, clock, rng)
        for event in events:
            if event.outcome is not SlotOutcome.SUCCESS or event.tag_id is None:
                continue
            read_time = event.end_time_s
            if read_time > duration_s:
                break
            tag = tags_by_id[event.tag_id]
            channel = channel_for(tag)
            tag_pos_now = position_of(tag.tag_id, read_time)
            coupling = coupling_scatterers(
                config, tag.tag_id, tag_pos_now, tags_by_id, position_of, read_time
            )
            observation = channel.observe(
                antenna_position(read_time),
                tag_pos_now,
                rng,
                extra_reflectors=coupling,
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
        round_time = protocol.round_duration_s(events)
        if round_time <= 0:
            raise RuntimeError("inventory round produced non-positive duration")
        clock += round_time

    return log.sorted_by_time()


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
