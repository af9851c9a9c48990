"""Runs a scene through the reader simulator and assembles phase profiles.

This is the glue between the substrates (RF channel, C1G2 protocol, motion)
and the STPP core: it produces, for every tag, the
:class:`~repro.core.phase_profile.PhaseProfile` a real deployment would log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.phase_profile import ProfileSet, profiles_from_coded_columns
from ..rf.constants import TWO_PI
from ..rfid.reader import RFIDReader
from ..rfid.reading import ReadLog
from .scene import Scene


@dataclass(frozen=True, slots=True)
class SweepResult:
    """Everything one simulated sweep produced."""

    profiles: ProfileSet
    read_log: ReadLog
    duration_s: float


def profiles_from_read_log(
    read_log: ReadLog, channel_index: int | None = None
) -> ProfileSet:
    """Group a read log into one phase profile per tag.

    ``channel_index`` labels the resulting profiles.  When omitted it is
    derived from the reads themselves (every :class:`~repro.rfid.reading.TagRead`
    carries the channel it was decoded on), so profiles are labelled correctly
    whatever channel the scene's reader used.  A log whose reads span several
    channels has no single per-profile channel; pass ``channel_index``
    explicitly in that case.
    """
    if channel_index is None:
        seen = read_log.channel_indices()
        if len(seen) > 1:
            raise ValueError(
                "read log spans multiple reader channels "
                f"({sorted(seen)}); pass channel_index explicitly"
            )
        channel_index = seen.pop() if seen else None
    tag_ids, codes = read_log.tag_codes()
    columns = read_log.columns()
    return profiles_from_coded_columns(
        tag_ids,
        codes,
        columns["timestamp_s"],
        np.mod(columns["phase_rad"], TWO_PI),
        columns["rssi_dbm"],
        channel_index,
    )


def collect_sweep(scene: Scene) -> SweepResult:
    """Simulate ``scene`` and return profiles plus the raw read log.

    Tags that were never successfully read during the sweep have no entry in
    the resulting :class:`ProfileSet`; callers that must account for every tag
    (e.g. the ordering accuracy metric) should compare against
    ``scene.tags.ids()``.
    """
    reader = RFIDReader(config=scene.reader_config, protocol=scene.protocol)
    read_log = reader.sweep(
        tags=scene.tags,
        antenna_position=scene.scenario.antenna_position,
        duration_s=scene.scenario.duration_s,
        tag_position=scene.scenario.tag_position,
        rng=scene.rng(),
    )
    profiles = profiles_from_read_log(
        read_log, channel_index=scene.reader_config.channel.channel_index
    )
    return SweepResult(
        profiles=profiles,
        read_log=read_log,
        duration_s=scene.scenario.duration_s,
    )
