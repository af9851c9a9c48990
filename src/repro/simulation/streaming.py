"""Incremental profile assembly: reads in, growing phase profiles out.

:class:`StreamingCollector` is the streaming counterpart of
:func:`~repro.simulation.collector.profiles_from_read_log`: instead of
converting a *finished* :class:`~repro.rfid.reading.ReadLog` into a
:class:`~repro.core.phase_profile.ProfileSet`, it ingests reads (single
:class:`~repro.rfid.reading.TagRead` objects or columnar
:class:`~repro.rfid.reading.ReadBatch` batches from the round-batched reader)
as they arrive into one columnar read store.  Each read is a row — the tag's
code (its index in first-seen order), timestamp, phase wrapped into
[0, 2π), RSSI and channel — appended with amortized O(1) growth.  Snapshots
go through :func:`~repro.core.phase_profile.profiles_from_coded_columns`, the
lexsort-and-slice the batch converter itself uses, so they are bit-identical
to what it produces from the reads ingested so far: the foundation of the
streaming session's batch-convergence guarantee.

Out-of-order reads (a late LLRP report, a replayed log that was never
sorted) are handled by policy, chosen at construction.  A chunk carries a
tag out of order when one of the tag's rows precedes the row before it, or
the tag's latest timestamp stored so far for its first row.

* ``"reorder"`` (default): the late read is accepted; snapshots sort each
  tag by timestamp anyway, so the result is independent of arrival order.
  Each disordered chunk adds 1 to the tag's count in
  :meth:`StreamingCollector.reorders_by_tag`, which consumers that keep
  incremental state over the sample sequence (the streaming session) watch
  to rebuild that tag's state.
* ``"dedupe"``: like ``"reorder"``, but an **exact duplicate** read (same
  tag, timestamp, wrapped phase and channel — an LLRP report retry) of a
  stored read or of an earlier row of the same chunk is dropped instead of
  corrupting the profile; drops are counted per tag in
  :meth:`StreamingCollector.duplicates_dropped_by_tag`.
* ``"raise"``: ingestion raises ``ValueError`` for a chunk with an
  out-of-order read, for deployments where a timestamp regression means a
  broken reader clock.  The chunk is refused whole: the collector is left
  unchanged.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.phase_profile import PhaseProfile, ProfileSet, profiles_from_coded_columns
from ..rf.constants import TWO_PI
from ..rfid.reading import ReadBatch, TagRead

OUT_OF_ORDER_POLICIES = ("reorder", "dedupe", "raise")
"""Supported responses to a read whose timestamp precedes its tag's last one.
``"dedupe"`` additionally drops exact duplicate reads at ingest."""

_COLUMNS = (
    ("tag_code", np.int32),
    ("timestamp_s", np.float64),
    ("phase_rad", np.float64),
    ("rssi_dbm", np.float64),
    ("channel_index", np.int32),
)

_DEDUPE_KEY = np.dtype(
    [(name, dtype) for name, dtype in _COLUMNS if name != "rssi_dbm"]
)
"""The fields two exact duplicate reads share (RSSI is not one of them)."""


def _dedupe_keys(columns: dict[str, np.ndarray]) -> np.ndarray:
    keys = np.empty(columns["tag_code"].shape[0], dtype=_DEDUPE_KEY)
    for name in _DEDUPE_KEY.names:
        keys[name] = columns[name]
    return keys


class StreamingCollector:
    """Ingests reads incrementally and maintains per-tag phase profiles.

    Parameters
    ----------
    channel_index:
        Channel label for the produced profiles.  When omitted it is derived
        from the ingested reads, with the same contract as
        :func:`~repro.simulation.collector.profiles_from_read_log`: a stream
        spanning several reader channels has no single per-profile channel,
        so :meth:`profiles` raises unless the label was given explicitly.
    out_of_order:
        ``"reorder"`` (default), ``"dedupe"``, or ``"raise"`` — see the
        module docstring.
    """

    def __init__(
        self,
        channel_index: int | None = None,
        out_of_order: str = "reorder",
    ) -> None:
        if out_of_order not in OUT_OF_ORDER_POLICIES:
            raise ValueError(
                f"out_of_order must be one of {OUT_OF_ORDER_POLICIES}, "
                f"got {out_of_order!r}"
            )
        self.out_of_order = out_of_order
        self._explicit_channel = channel_index
        self.load_state(
            {
                "tag_ids": [],
                "columns": {name: np.empty(0, dtype) for name, dtype in _COLUMNS},
                "reorders": np.zeros(0, dtype=np.int64),
                "duplicates_dropped": np.zeros(0, dtype=np.int64),
            }
        )

    def __len__(self) -> int:
        return self._count

    @property
    def read_count(self) -> int:
        """Total reads ingested so far (duplicates dropped at ingest under
        the ``"dedupe"`` policy are not counted)."""
        return self._count

    @property
    def duplicates_dropped(self) -> int:
        """Exact duplicate reads dropped across all tags (``"dedupe"`` only)."""
        return int(self._duplicates.sum())

    @property
    def reorders(self) -> int:
        """Out-of-order acceptances across all tags (any policy but ``"raise"``)."""
        return int(self._reorders.sum())

    def tag_ids(self) -> list[str]:
        """Distinct tag ids in first-seen order (matches ``ReadLog.tag_ids``);
        a tag's position is its code in :meth:`columns`."""
        return list(self._code_of)

    def reorders_by_tag(self) -> np.ndarray:
        """Disordered chunks accepted per tag, aligned with :meth:`tag_ids`."""
        return self._reorders[: len(self._code_of)].copy()

    def duplicates_dropped_by_tag(self) -> np.ndarray:
        """Exact duplicates dropped per tag, aligned with :meth:`tag_ids`."""
        return self._duplicates[: len(self._code_of)].copy()

    def columns(self) -> dict[str, np.ndarray]:
        """The stored reads in arrival order, one read-only view per field:
        ``tag_code``, ``timestamp_s``, ``phase_rad`` (wrapped), ``rssi_dbm``
        and ``channel_index``."""
        views = {}
        for name, column in self._store.items():
            view = column[: self._count]
            view.flags.writeable = False
            views[name] = view
        return views

    # -- ingestion ---------------------------------------------------------

    def ingest_read(self, read: TagRead) -> None:
        """Ingest one decoded reply."""
        self.ingest_columns(
            np.array([read.timestamp_s], dtype=float),
            (read.tag_id,),
            np.array([read.phase_rad], dtype=float),
            np.array([read.rssi_dbm], dtype=float),
            channel_index=read.channel_index,
        )

    def ingest(self, reads: Iterable[TagRead]) -> None:
        """Ingest many reads (arrival order preserved)."""
        for read in reads:
            self.ingest_read(read)

    def ingest_batch(self, batch: ReadBatch) -> None:
        """Ingest one columnar read batch (e.g. from ``sweep_stream``)."""
        self.ingest_columns(
            batch.timestamps_s,
            batch.tag_ids,
            batch.phases_rad,
            batch.rssi_dbm,
            channel_index=batch.channel_index,
        )

    def ingest_batches(self, batches: Iterable[ReadBatch]) -> int:
        """Ingest a stream of read batches; returns the number ingested.

        Convenience for replaying a whole per-round stream — e.g. the fused
        sweep engine's event table
        (:meth:`~repro.rfid.event_table.SweepEventTable.iter_round_batches`,
        which is what ``RFIDReader.sweep_stream`` yields) or a finished log's
        :meth:`~repro.rfid.reading.ReadLog.iter_batches` — in arrival order.
        """
        count = 0
        for batch in batches:
            self.ingest_batch(batch)
            count += 1
        return count

    def ingest_columns(
        self,
        timestamps_s: np.ndarray,
        tag_ids: "tuple[str, ...] | list[str]",
        phases_rad: np.ndarray,
        rssi_dbm: np.ndarray,
        channel_index: int = 6,
    ) -> None:
        """Ingest parallel read columns sharing one reader channel.

        The rows are appended in column order, so ingesting a log's batches
        reproduces ingesting its reads one by one.
        """
        timestamps = np.asarray(timestamps_s, dtype=float)
        phases = np.asarray(phases_rad, dtype=float)
        rssis = np.asarray(rssi_dbm, dtype=float)
        count = len(tag_ids)
        if timestamps.shape != (count,) or phases.shape != (count,) or rssis.shape != (count,):
            raise ValueError(
                "column lengths disagree: "
                f"{count} ids vs {timestamps.shape} timestamps, "
                f"{phases.shape} phases, {rssis.shape} rssis"
            )
        if count == 0:
            return
        code_of = self._code_of
        fresh = {}
        for tag_id in dict.fromkeys(tag_ids):
            if tag_id not in code_of:
                fresh[tag_id] = len(code_of) + len(fresh)
        lookup = {**code_of, **fresh} if fresh else code_of
        chunk = {
            "tag_code": np.fromiter(map(lookup.__getitem__, tag_ids), np.int32, count),
            "timestamp_s": timestamps,
            "phase_rad": np.mod(phases, TWO_PI),
            "rssi_dbm": rssis,
            "channel_index": np.full(count, channel_index, dtype=np.int32),
        }
        self._grow_tags(len(lookup))
        if self.out_of_order == "dedupe":
            keep = self._drop_duplicates(chunk)
            if not keep.all():
                chunk = {name: column[keep] for name, column in chunk.items()}
        codes = chunk["tag_code"]
        times = chunk["timestamp_s"]
        late, previous = self._late_rows(codes, times)
        if late.any():
            if self.out_of_order == "raise":
                row = int(np.argmax(late))
                tag_id = list(lookup)[codes[row]]
                raise ValueError(
                    f"tag {tag_id}: out-of-order timestamp (new read at "
                    f"{times[row]:.6f} s after {previous[row]:.6f} s); "
                    "collector policy is 'raise'"
                )
            self._reorders[np.unique(codes[late])] += 1
        code_of.update(fresh)
        np.maximum.at(self._high_water, codes, times)
        self._channels_seen.add(int(channel_index))
        self._append(chunk)

    def _grow_tags(self, tags: int) -> None:
        """Give the per-tag arrays room for ``tags`` tags.  The new entries
        are pristine, so a refused chunk that grew them leaves no trace."""
        extra = tags - self._high_water.shape[0]
        if extra > 0:
            zeros = np.zeros(extra, dtype=np.int64)
            self._high_water = np.concatenate((self._high_water, np.full(extra, -np.inf)))
            self._reorders = np.concatenate((self._reorders, zeros))
            self._duplicates = np.concatenate((self._duplicates, zeros))

    def _drop_duplicates(self, chunk: dict[str, np.ndarray]) -> np.ndarray:
        """Mask of the chunk rows that are no exact duplicate of a stored read
        or of an earlier chunk row; counts and remembers the verdicts."""
        if self._dedupe_keys is None:
            self._dedupe_keys = np.sort(_dedupe_keys(self.columns()))
        stored = self._dedupe_keys
        unique, first = np.unique(_dedupe_keys(chunk), return_index=True)
        at = np.searchsorted(stored, unique)
        new = np.ones(unique.shape[0], dtype=bool)
        if stored.size:
            new = stored[np.minimum(at, stored.size - 1)] != unique
        keep = np.zeros(chunk["tag_code"].shape[0], dtype=bool)
        keep[first[new]] = True
        np.add.at(self._duplicates, chunk["tag_code"][~keep], 1)
        self._dedupe_keys = np.insert(stored, at[new], unique[new])
        return keep

    def _late_rows(
        self, codes: np.ndarray, times: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Which chunk rows precede the tag's previous read, and that read's
        time: the row before in the chunk, else the tag's stored maximum.

        The maximum, not the last stored read: after an internally disordered
        chunk the next reads must be compared against the true high-water
        mark, or a read between the two would dodge the reorder detection
        (and the consumer's incremental-state rebuild).
        """
        order = np.argsort(codes, kind="stable")
        grouped_codes = codes[order]
        previous = np.empty_like(times)
        previous[order[1:]] = times[order[:-1]]
        firsts = order[np.flatnonzero(np.diff(grouped_codes, prepend=-1))]
        previous[firsts] = self._high_water[codes[firsts]]
        return ~(times >= previous), previous

    def _append(self, chunk: dict[str, np.ndarray]) -> None:
        start = self._count
        stop = start + chunk["tag_code"].shape[0]
        for name, column in self._store.items():
            if stop > column.shape[0]:
                grown = np.empty(max(stop, 2 * column.shape[0]), dtype=column.dtype)
                grown[:start] = column[:start]
                self._store[name] = column = grown
            column[start:stop] = chunk[name]
        self._count = stop

    # -- checkpoint state --------------------------------------------------

    def state(self) -> dict:
        """The stored reads and per-tag counters, as plain arrays (what a
        session checkpoint keeps of its collector)."""
        return {
            "tag_ids": self.tag_ids(),
            "columns": {name: column.copy() for name, column in self.columns().items()},
            "reorders": self.reorders_by_tag(),
            "duplicates_dropped": self.duplicates_dropped_by_tag(),
        }

    def load_state(self, state: dict) -> None:
        """Replace the stored reads and counters with a :meth:`state`.

        Everything else is derived from the columns: each tag's high-water
        mark, the channels seen, the read count and (on first use) the
        dedupe keys.
        """
        self._code_of = {tag_id: code for code, tag_id in enumerate(state["tag_ids"])}
        store = {
            name: np.array(state["columns"][name], dtype=dtype) for name, dtype in _COLUMNS
        }
        self._store = store
        self._count = store["tag_code"].shape[0]
        self._reorders = np.array(state["reorders"], dtype=np.int64)
        self._duplicates = np.array(state["duplicates_dropped"], dtype=np.int64)
        self._high_water = np.full(len(self._code_of), -np.inf)
        np.maximum.at(self._high_water, store["tag_code"], store["timestamp_s"])
        self._channels_seen = set(np.unique(store["channel_index"]).tolist())
        self._dedupe_keys: np.ndarray | None = None

    # -- snapshots ---------------------------------------------------------

    def resolved_channel_index(self) -> int | None:
        """The channel label profiles get (explicit, or derived from reads)."""
        if self._explicit_channel is not None:
            return self._explicit_channel
        if len(self._channels_seen) > 1:
            raise ValueError(
                "read stream spans multiple reader channels "
                f"({sorted(self._channels_seen)}); pass channel_index explicitly"
            )
        return next(iter(self._channels_seen)) if self._channels_seen else None

    def _snapshot(
        self, tag_ids: list[str], codes: np.ndarray, rows: "np.ndarray | slice"
    ) -> ProfileSet:
        channel = self.resolved_channel_index()
        columns = self.columns()
        return profiles_from_coded_columns(
            tag_ids,
            codes,
            columns["timestamp_s"][rows],
            columns["phase_rad"][rows],
            columns["rssi_dbm"][rows],
            6 if channel is None else channel,
        )

    def profile(self, tag_id: str) -> PhaseProfile:
        """Snapshot profile of one tag over the reads ingested so far
        (raises ``KeyError`` for a tag never seen)."""
        rows = np.flatnonzero(self.columns()["tag_code"] == self._code_of[tag_id])
        codes = np.zeros(rows.shape[0], dtype=np.int32)
        return self._snapshot([tag_id], codes, rows)[tag_id]

    def profiles(self) -> ProfileSet:
        """Snapshot of every tag's profile, in first-seen order.

        Bit-identical to ``profiles_from_read_log(log_so_far)`` where
        ``log_so_far`` holds the same reads in the same arrival order.
        """
        codes = self.columns()["tag_code"]
        return self._snapshot(self.tag_ids(), codes, slice(None))
