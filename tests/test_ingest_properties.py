"""Generated read streams through the streaming collector's ingest policies.

Hypothesis draws interleavings of multi-tag chunks with late reads, exact
duplicates (within one chunk and across chunks), 2π-aliased phases and
channel changes, and runs them under each ``out_of_order`` policy.  Three
contracts are checked against independent references:

* the collector's snapshots are bit-identical to batch assembly
  (``profiles_from_read_log``) over the reads it kept;
* its per-tag ``reorders`` and ``duplicates_dropped`` counters, the kept
  reads and the refused chunks match the read-at-a-time reference in
  ``tests/oracles/ingest.py``;
* a session checkpointed and restored at a random cut finalizes
  bit-identically to the uninterrupted session.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.ingest import IngestOracle
from repro.rf.constants import TWO_PI
from repro.rfid import ReadLog
from repro.service import LocalizationSession
from repro.simulation import StreamingCollector
from repro.simulation.collector import profiles_from_read_log
from repro.simulation.streaming import OUT_OF_ORDER_POLICIES

TAGS = ("a", "b", "c")

EDGE_PHASES = (0.0, -1e-300, float(np.nextafter(TWO_PI, 0.0)), TWO_PI, 3.0)
"""Phases at the wrap edges: ``-1e-300`` wraps to exactly 2π."""


@st.composite
def read_chunks(draw) -> list[list[tuple]]:
    """Chunks of ``(tag, time, phase, rssi, channel)`` reads on a mostly
    advancing clock, with late reads, ties and repeats of earlier reads."""
    chunks: list[list[tuple]] = []
    history: list[tuple] = []
    clock = 0.0
    for _ in range(draw(st.integers(1, 8))):
        channel = draw(st.sampled_from([6, 6, 7]))
        chunk: list[tuple] = []
        for _ in range(draw(st.integers(1, 12))):
            earlier = history + chunk
            if earlier and draw(st.integers(0, 3)) == 0:
                # An exact duplicate, a 2π alias, or a re-read with new RSSI.
                tag_id, time, phase, rssi, _ = draw(st.sampled_from(earlier))
                phase += draw(st.sampled_from([0.0, TWO_PI, -TWO_PI]))
                rssi = draw(st.sampled_from([rssi, -55.0]))
            else:
                clock += draw(st.sampled_from([0.0, 0.25, 0.5]))
                tag_id = draw(st.sampled_from(TAGS))
                time = clock - draw(st.sampled_from([0.0, 0.0, 0.0, 0.75, 3.0]))
                phase = draw(
                    st.one_of(
                        st.sampled_from(EDGE_PHASES),
                        st.floats(-7.0, 14.0, allow_nan=False),
                    )
                )
                rssi = draw(st.sampled_from([-60.0, -61.5]))
            chunk.append((tag_id, time, phase, rssi, channel))
        history.extend(chunk)
        chunks.append(chunk)
    return chunks


def _ingest(target, chunk: list[tuple]) -> bool:
    """Ingest one chunk into a collector or session; False when refused."""
    tag_ids, times, phases, rssis, channels = zip(*chunk)
    try:
        target.ingest_columns(
            np.array(times), list(tag_ids), np.array(phases), np.array(rssis),
            channel_index=channels[0],
        )
    except ValueError:
        return False
    return True


def _assert_profile_bits(actual, expected):
    assert actual.tag_id == expected.tag_id
    assert actual.channel_index == expected.channel_index
    for field in ("timestamps_s", "phases_rad", "rssi_dbm"):
        mine, theirs = getattr(actual, field), getattr(expected, field)
        assert mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes(), field


@settings(max_examples=200, deadline=None)
@given(chunks=read_chunks(), policy=st.sampled_from(OUT_OF_ORDER_POLICIES))
def test_collector_matches_batch_assembly_and_oracle(chunks, policy):
    collector = StreamingCollector(channel_index=6, out_of_order=policy)
    oracle = IngestOracle(policy)
    for chunk in chunks:
        assert _ingest(collector, chunk) == oracle.ingest(chunk)

    tag_ids = collector.tag_ids()
    assert tag_ids == oracle.tag_ids()
    assert collector.read_count == len(oracle.kept)
    assert collector.reorders_by_tag().tolist() == [
        oracle.reorders.get(tag_id, 0) for tag_id in tag_ids
    ]
    assert collector.duplicates_dropped_by_tag().tolist() == [
        oracle.duplicates_dropped.get(tag_id, 0) for tag_id in tag_ids
    ]

    kept = oracle.kept
    log = ReadLog.from_columns(
        [read[1] for read in kept],
        [read[0] for read in kept],
        [read[2] for read in kept],
        [read[3] for read in kept],
        [read[4] for read in kept],
        [1] * len(kept),
    )
    expected = profiles_from_read_log(log, channel_index=6)
    snapshot = collector.profiles()
    assert snapshot.tag_ids() == expected.tag_ids()
    for tag_id in tag_ids:
        _assert_profile_bits(snapshot[tag_id], expected[tag_id])
        _assert_profile_bits(collector.profile(tag_id), expected[tag_id])


def _update_fields(update) -> tuple:
    """An update's results, NaN-aware (``repr``) for the V-zone DTW costs."""
    vzones = {
        tag_id: (vzone.fit, vzone.start_index, vzone.end_index, repr(vzone.dtw_cost))
        for tag_id, vzone in update.result.vzones.items()
    }
    return (
        update.result.x_ordering,
        update.result.y_ordering,
        vzones,
        update.update_index,
        update.reads_ingested,
        update.batches_ingested,
        update.ordered_fraction,
        update.agreement,
        update.quality,
        update.confidence,
    )


@settings(max_examples=60, deadline=None)
@given(
    chunks=read_chunks(),
    policy=st.sampled_from(OUT_OF_ORDER_POLICIES),
    data=st.data(),
)
def test_restore_at_random_cut_finalizes_like_uninterrupted(chunks, policy, data):
    cut = data.draw(st.integers(0, len(chunks)), label="cut")
    refresh = data.draw(
        st.lists(st.booleans(), min_size=len(chunks), max_size=len(chunks)),
        label="provisional after chunk",
    )

    def run(cut_at: int | None):
        session = LocalizationSession(channel_index=6, out_of_order=policy)
        for index, chunk in enumerate(chunks):
            if index == cut_at:
                session = LocalizationSession.restore(session.checkpoint())
            _ingest(session, chunk)
            if refresh[index]:
                session.provisional()
        if cut_at == len(chunks):
            session = LocalizationSession.restore(session.checkpoint())
        return session.finalize()

    assert _update_fields(run(cut)) == _update_fields(run(None))
