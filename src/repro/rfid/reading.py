"""Read records: what a COTS reader hands to application software.

Every successfully decoded tag reply yields a :class:`TagRead` carrying the
fields the ImpinJ LLRP API exposes and the paper consumes: EPC, a timestamp,
the RF phase, the RSSI, and the channel index.  A :class:`ReadLog` groups the
reads of one sweep and offers the per-tag views STPP and the baselines use.

:class:`ReadLog` stores reads **columnar** (a NumPy column per numeric
field, a list of tag ids) rather than as a list of per-read objects: the
batched reader simulator hands a sweep's time-sorted reads over as arrays via
:meth:`ReadLog.extend_columns`, and profile assembly slices the NumPy columns
instead of list-comprehending over objects.  :class:`TagRead` objects are
materialised lazily, only for callers that iterate the log read-by-read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True, slots=True, order=True)
class TagRead:
    """One successfully decoded tag reply."""

    timestamp_s: float
    """Time of the read, seconds since the start of the sweep."""

    tag_id: str
    """EPC of the replying tag (hex string)."""

    phase_rad: float
    """Reported RF phase, radians in [0, 2*pi)."""

    rssi_dbm: float
    """Reported RSSI in dBm."""

    channel_index: int = 6
    """Reader channel on which the read happened."""

    antenna_port: int = 1
    """Antenna port that produced the read (multi-antenna baselines use >1)."""


@dataclass(frozen=True)
class ReadBatch:
    """A columnar batch of reads sharing one channel and antenna port.

    The unit of streaming ingestion: :meth:`RFIDReader.sweep_stream
    <repro.rfid.reader.RFIDReader.sweep_stream>` yields one per inventory
    round, :meth:`ReadLog.iter_batches` replays a finished log as batches, and
    :class:`~repro.simulation.streaming.StreamingCollector` consumes them
    without materialising per-read objects.
    """

    timestamps_s: np.ndarray
    tag_ids: tuple[str, ...]
    phases_rad: np.ndarray
    rssi_dbm: np.ndarray
    channel_index: int
    antenna_port: int = 1
    round_index: int = -1
    """Inventory round that produced the batch (-1 for replayed chunks)."""

    def __post_init__(self) -> None:
        timestamps = np.asarray(self.timestamps_s, dtype=float)
        phases = np.asarray(self.phases_rad, dtype=float)
        rssis = np.asarray(self.rssi_dbm, dtype=float)
        object.__setattr__(self, "timestamps_s", timestamps)
        object.__setattr__(self, "phases_rad", phases)
        object.__setattr__(self, "rssi_dbm", rssis)
        object.__setattr__(self, "tag_ids", tuple(self.tag_ids))
        count = len(self.tag_ids)
        if timestamps.shape != (count,) or phases.shape != (count,) or rssis.shape != (count,):
            raise ValueError(
                "column lengths disagree: "
                f"{count} ids vs {timestamps.shape} timestamps, "
                f"{phases.shape} phases, {rssis.shape} rssis"
            )

    def __len__(self) -> int:
        return len(self.tag_ids)


_COLUMNS: tuple[tuple[str, type], ...] = (
    ("timestamp_s", float),
    ("phase_rad", float),
    ("rssi_dbm", float),
    ("channel_index", np.int64),
    ("antenna_port", np.int64),
)
"""The numeric columns of a :class:`ReadLog`, in :class:`TagRead` field order."""


class ReadLog:
    """An append-only, columnar log of reads from one sweep.

    The numeric fields live in NumPy columns (8 bytes a read, against ~32 for
    a list of Python floats) and the tag ids in a list.  Whole batches arrive
    as column chunks; reads appended one at a time wait as pending rows.
    :meth:`columns` joins both into one chunk, once per mutation.
    """

    __slots__ = (
        "_tag_ids",
        "_chunks",
        "_pending",
        "_arrays",
        "_reads",
        "_tag_indices",
    )

    def __init__(self, reads: Iterable[TagRead] | None = None) -> None:
        self._tag_ids: list[str] = []
        # Column chunks in append order, one array per _COLUMNS entry, and
        # the rows appended read by read since the last chunk.
        self._chunks: list[tuple[np.ndarray, ...]] = []
        self._pending: list[tuple] = []
        self._invalidate()
        if reads is not None:
            self.extend(reads)

    def _invalidate(self) -> None:
        self._arrays: dict[str, np.ndarray] | None = None
        self._reads: list[TagRead] | None = None
        self._tag_indices: dict[str, np.ndarray] | None = None

    def _flush(self) -> None:
        """Turn the pending rows into a chunk, behind every earlier chunk."""
        if self._pending:
            fields = zip(*self._pending)
            self._pending = []
            self._chunks.append(
                tuple(
                    np.array(values, dtype=dtype)
                    for values, (_, dtype) in zip(fields, _COLUMNS)
                )
            )

    # -- ingestion ---------------------------------------------------------

    def append(self, read: TagRead) -> None:
        """Append one read to the log."""
        self._tag_ids.append(read.tag_id)
        self._pending.append(
            (
                read.timestamp_s,
                read.phase_rad,
                read.rssi_dbm,
                read.channel_index,
                read.antenna_port,
            )
        )
        self._invalidate()

    def extend(self, reads: Iterable[TagRead]) -> None:
        """Append many reads to the log."""
        for read in reads:
            self.append(read)

    def extend_columns(
        self,
        timestamps_s: np.ndarray,
        tag_ids: Sequence[str],
        phases_rad: np.ndarray,
        rssi_dbm: np.ndarray,
        channel_index: int,
        antenna_port: int,
    ) -> None:
        """Append a batch of reads given as parallel columns (one channel/port)."""
        count = len(tag_ids)
        # Copies: the log must not share memory with the caller's arrays.
        timestamps = np.array(timestamps_s, dtype=float)
        phases = np.array(phases_rad, dtype=float)
        rssis = np.array(rssi_dbm, dtype=float)
        if timestamps.shape != (count,) or phases.shape != (count,) or rssis.shape != (count,):
            raise ValueError(
                "column lengths disagree: "
                f"{count} ids vs {timestamps.shape} timestamps, "
                f"{phases.shape} phases, {rssis.shape} rssis"
            )
        self._flush()
        self._tag_ids.extend(tag_ids)
        self._chunks.append(
            (
                timestamps,
                phases,
                rssis,
                np.full(count, int(channel_index), dtype=np.int64),
                np.full(count, int(antenna_port), dtype=np.int64),
            )
        )
        self._invalidate()

    def extend_batch(self, batch: ReadBatch) -> None:
        """Append one columnar :class:`ReadBatch` to the log."""
        self.extend_columns(
            batch.timestamps_s,
            list(batch.tag_ids),
            batch.phases_rad,
            batch.rssi_dbm,
            channel_index=batch.channel_index,
            antenna_port=batch.antenna_port,
        )

    def iter_batches(self, batch_size: int = 256) -> Iterator[ReadBatch]:
        """Replay the log as columnar batches of up to ``batch_size`` reads.

        Batches preserve log order, so replaying a time-sorted log into a
        streaming consumer reproduces the live ingestion order.  A batch never
        mixes channels or antenna ports (it is split at every change), so each
        batch is a valid :class:`ReadBatch`.
        """
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        columns = self.columns()
        channels = columns["channel_index"].tolist()
        ports = columns["antenna_port"].tolist()
        total = len(self)
        start = 0
        while start < total:
            stop = min(start + batch_size, total)
            channel = channels[start]
            port = ports[start]
            for index in range(start + 1, stop):
                if channels[index] != channel or ports[index] != port:
                    stop = index
                    break
            yield ReadBatch(
                timestamps_s=columns["timestamp_s"][start:stop],
                tag_ids=tuple(self._tag_ids[start:stop]),
                phases_rad=columns["phase_rad"][start:stop],
                rssi_dbm=columns["rssi_dbm"][start:stop],
                channel_index=channel,
                antenna_port=port,
            )
            start = stop

    # -- cached views ------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """The log's fields as NumPy columns (cached, read-only: they are the
        log's own storage, and batches and slices handed out are views)."""
        if self._arrays is None:
            self._flush()
            if len(self._chunks) != 1:
                empty = tuple(np.empty(0, dtype=dtype) for _, dtype in _COLUMNS)
                self._chunks = [
                    tuple(np.concatenate(parts) for parts in zip(empty, *self._chunks))
                ]
            self._arrays = {}
            for (name, _), column in zip(_COLUMNS, self._chunks[0]):
                column.setflags(write=False)
                self._arrays[name] = column
        return self._arrays

    @property
    def reads(self) -> list[TagRead]:
        """The log as :class:`TagRead` objects (materialised lazily, cached)."""
        if self._reads is None:
            columns = self.columns()
            self._reads = [
                TagRead(t, tid, ph, rs, ch, po)
                for t, tid, ph, rs, ch, po in zip(
                    columns["timestamp_s"].tolist(),
                    self._tag_ids,
                    columns["phase_rad"].tolist(),
                    columns["rssi_dbm"].tolist(),
                    columns["channel_index"].tolist(),
                    columns["antenna_port"].tolist(),
                )
            ]
        return self._reads

    def _indices_for(self, tag_id: str) -> np.ndarray:
        """Log positions of ``tag_id``'s reads, in append order (cached)."""
        if self._tag_indices is None:
            grouped: dict[str, list[int]] = {}
            for index, tid in enumerate(self._tag_ids):
                grouped.setdefault(tid, []).append(index)
            self._tag_indices = {
                tid: np.array(indices, dtype=np.intp)
                for tid, indices in grouped.items()
            }
        return self._tag_indices.get(tag_id, np.empty(0, dtype=np.intp))

    def _time_sorted_indices_for(self, tag_id: str) -> np.ndarray:
        """Log positions of ``tag_id``'s reads, stable-sorted by timestamp."""
        indices = self._indices_for(tag_id)
        if indices.size < 2:
            return indices
        times = self.columns()["timestamp_s"][indices]
        return indices[np.argsort(times, kind="stable")]

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._tag_ids)

    def __iter__(self) -> Iterator[TagRead]:
        return iter(self.reads)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReadLog):
            return NotImplemented
        if self._tag_ids != other._tag_ids:
            return False
        mine, theirs = self.columns(), other.columns()
        return all(np.array_equal(mine[name], theirs[name]) for name, _ in _COLUMNS)

    def __repr__(self) -> str:
        return f"ReadLog({len(self)} reads, {len(self.tag_ids())} tags)"

    # -- queries -----------------------------------------------------------

    def tag_ids(self) -> list[str]:
        """Distinct tag ids in first-seen order."""
        return list(dict.fromkeys(self._tag_ids))

    def tag_codes(self) -> tuple[list[str], np.ndarray]:
        """Distinct tag ids in first-seen order, and each read's index into them.

        Not cached: a caller grouping the whole log once (see
        :func:`~repro.simulation.collector.profiles_from_read_log`) keeps no
        per-tag index arrays alive on the log.
        """
        code_of: dict[str, int] = {}
        codes = np.fromiter(
            (code_of.setdefault(tag_id, len(code_of)) for tag_id in self._tag_ids),
            dtype=np.intp,
            count=len(self._tag_ids),
        )
        return list(code_of), codes

    def timestamps(self, tag_id: str) -> np.ndarray:
        """Timestamps of ``tag_id``'s reads as a float array (seconds)."""
        return self.columns()["timestamp_s"][self._time_sorted_indices_for(tag_id)]

    def phases(self, tag_id: str) -> np.ndarray:
        """Phases of ``tag_id``'s reads as a float array (radians)."""
        return self.columns()["phase_rad"][self._time_sorted_indices_for(tag_id)]

    def rssis(self, tag_id: str) -> np.ndarray:
        """RSSI values of ``tag_id``'s reads as a float array (dBm)."""
        return self.columns()["rssi_dbm"][self._time_sorted_indices_for(tag_id)]

    def channel_indices(self) -> set[int]:
        """The distinct reader channels present in the log."""
        return set(self.columns()["channel_index"].tolist())

    def duration_s(self) -> float:
        """Span between first and last read, in seconds (0 when empty)."""
        if not self._tag_ids:
            return 0.0
        timestamps = self.columns()["timestamp_s"]
        return float(timestamps.max() - timestamps.min())
