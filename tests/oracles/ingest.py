"""Read-at-a-time reference for the streaming collector's ingest policies.

:class:`IngestOracle` replays chunks of reads one read at a time with plain
dicts and sets: a duplicate is a read whose (tag, timestamp, wrapped phase,
channel) key was seen before, and a chunk carries a tag out of order when
one of the tag's reads precedes the latest timestamp seen for the tag
(earlier reads of the chunk included).  ``StreamingCollector`` does the same
with column operations over each chunk; the property tests hold the two
equal.
"""

from __future__ import annotations

import numpy as np

from repro.rf.constants import TWO_PI


class IngestOracle:
    """Kept reads and per-tag counters of one collector's ingest history.

    A read is ``(tag_id, timestamp_s, phase_rad, rssi_dbm, channel_index)``
    with the phase as ingested (not wrapped).
    """

    def __init__(self, policy: str) -> None:
        self.policy = policy
        self.kept: list[tuple] = []
        self.reorders: dict[str, int] = {}
        self.duplicates_dropped: dict[str, int] = {}
        self._latest: dict[str, float] = {}
        self._seen: set[tuple] = set()

    def ingest(self, chunk: list[tuple]) -> bool:
        """Replay one chunk; False when the ``"raise"`` policy refuses it
        (and then nothing of it is kept or counted)."""
        seen = set(self._seen)
        latest = dict(self._latest)
        kept = []
        dropped: dict[str, int] = {}
        late: set[str] = set()
        for read in chunk:
            tag_id, timestamp, phase, _, channel = read
            if self.policy == "dedupe":
                key = (tag_id, timestamp, float(np.mod(phase, TWO_PI)), channel)
                if key in seen:
                    dropped[tag_id] = dropped.get(tag_id, 0) + 1
                    continue
                seen.add(key)
            if not timestamp >= latest.get(tag_id, -np.inf):
                late.add(tag_id)
            latest[tag_id] = max(latest.get(tag_id, -np.inf), timestamp)
            kept.append(read)
        if late and self.policy == "raise":
            return False
        self._seen = seen
        self._latest = latest
        self.kept.extend(kept)
        for tag_id in late:
            self.reorders[tag_id] = self.reorders.get(tag_id, 0) + 1
        for tag_id, count in dropped.items():
            self.duplicates_dropped[tag_id] = self.duplicates_dropped.get(tag_id, 0) + count
        return True

    def tag_ids(self) -> list[str]:
        """Tags of the kept reads in first-seen order."""
        return list(dict.fromkeys(read[0] for read in self.kept))
