"""The whole-sweep event table: the contract between sweep phases.

The fused two-phase sweep engine (:meth:`repro.rfid.reader.RFIDReader.sweep`)
splits simulation into a **scheduling** phase — the sequential round loop
that owns every random draw — and a **physics** phase — one fused NumPy pass
over all rounds' reply attempts.  :class:`SweepEventTable` is the
structure-of-arrays hand-off between them: phase 1 emits one row per
successful slot (timestamp, tag index, inventory round, and the pre-drawn
noise columns), phase 2 fills in the observables (phase, RSSI, readability,
deep-fade booleans).

The table is also the schema the streaming path replays:
:meth:`~repro.rfid.reader.RFIDReader.sweep_stream` yields
:meth:`iter_round_batches`, whose concatenation is exactly the readable rows
of the table — pinned by a property test in ``tests/test_fused_sweep.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .reading import ReadBatch, ReadLog


def _empty_float() -> np.ndarray:
    return np.empty(0)


@dataclass(slots=True)
class SweepEventTable:
    """Structure-of-arrays record of every successful slot of one sweep.

    Rows are in inventory order: round-major, slot order within each round —
    the order in which the scheduling loop consumed the shared random
    generator.  "Event" means a successful ALOHA slot whose reply the reader
    attempts to decode; whether the decode succeeds is only known after the
    physics phase (:attr:`readable`).
    """

    tag_ids: list[str]
    """The population's tag ids; :attr:`tag_indices` indexes into this."""

    channel_index: int
    antenna_port: int

    round_count: int = 0
    """Total inventory rounds the sweep ran (including event-less rounds)."""

    # -- phase 1: scheduling columns --------------------------------------
    times_s: np.ndarray = field(default_factory=_empty_float)
    """Decode timestamps (slot end times), shape ``(M,)``."""

    tag_indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    """Index of each event's tag in :attr:`tag_ids`, shape ``(M,)``."""

    round_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    """Absolute inventory-round index of each event, shape ``(M,)``."""

    dropped: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    """Random-dropout decisions drawn during scheduling.  The *final* dropout
    mask is ``dropped | deep_fade`` (a deep fade always loses the read)."""

    phase_noise_rad: np.ndarray = field(default_factory=_empty_float)
    """Pre-drawn Gaussian phase noise per event."""

    rssi_noise_db: np.ndarray = field(default_factory=_empty_float)
    """Pre-drawn Gaussian RSSI noise per event."""

    assumed_deep: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    """The deep-fade booleans the scheduler assumed when drawing noise
    (optimistically all-False, or the exact values after a rollback)."""

    # -- phase 2: physics columns -----------------------------------------
    phase_rad: np.ndarray | None = None
    """Reported phases (noisy, multipath-perturbed, quantised)."""

    rssi_dbm: np.ndarray | None = None
    """Reported RSSI values."""

    readable: np.ndarray | None = None
    """Which events decoded successfully (link budget and dropouts)."""

    deep_fade: np.ndarray | None = None
    """Exact deep-fade booleans from the physics pass."""

    def __len__(self) -> int:
        return int(self.times_s.size)

    @property
    def observed(self) -> bool:
        """True once the physics phase has filled the observable columns."""
        return self.phase_rad is not None

    def _require_observed(self) -> None:
        if not self.observed:
            raise ValueError(
                "event table has no observables yet; run the physics phase "
                "(RFIDReader.sweep_events returns a completed table)"
            )

    def to_read_log(self) -> ReadLog:
        """The readable events as a time-sorted columnar :class:`ReadLog`.

        Applies the same stable timestamp sort the read-at-a-time oracle
        applies to its log, so the two logs are bit-identical.
        """
        self._require_observed()
        keep = np.nonzero(self.readable)[0]
        timestamps = self.times_s[keep]
        order = np.argsort(timestamps, kind="stable")
        kept = keep[order]
        ids = self.tag_ids
        log = ReadLog()
        log.extend_columns(
            self.times_s[kept],
            [ids[self.tag_indices[i]] for i in kept],
            self.phase_rad[kept],
            self.rssi_dbm[kept],
            channel_index=self.channel_index,
            antenna_port=self.antenna_port,
        )
        return log

    def iter_round_batches(self) -> Iterator[ReadBatch]:
        """Replay the readable events as one :class:`ReadBatch` per round.

        Rounds with no readable event yield nothing; ``round_index`` counts
        the *yielded* batches (matching the live ``sweep_stream`` contract).
        Reads within a batch are stable-sorted by timestamp.
        """
        self._require_observed()
        keep = np.nonzero(self.readable)[0]
        ids = self.tag_ids
        batch_index = 0
        start = 0
        total = keep.size
        while start < total:
            round_id = self.round_ids[keep[start]]
            stop = start
            while stop < total and self.round_ids[keep[stop]] == round_id:
                stop += 1
            rows = keep[start:stop]
            times = self.times_s[rows]
            order = np.argsort(times, kind="stable")
            rows = rows[order]
            yield ReadBatch(
                timestamps_s=self.times_s[rows],
                tag_ids=tuple(ids[self.tag_indices[i]] for i in rows),
                phases_rad=self.phase_rad[rows],
                rssi_dbm=self.rssi_dbm[rows],
                channel_index=self.channel_index,
                antenna_port=self.antenna_port,
                round_index=batch_index,
            )
            batch_index += 1
            start = stop
