"""Checkpoint/restore: crash a session anywhere, resume it bit-identically.

The contract (``LocalizationSession.checkpoint``/``restore``): a session
checkpointed after *any* prefix of its stream, restored, and fed the
remaining batches finalizes **bit-identically** to the uninterrupted
session — same orderings, same scores, same V-zones, same confidence.
This is what makes the fleet's restart-from-checkpoint recovery invisible
to results.

The property test samples random mid-stream cut points across the three
leaderboard workloads (library shelf / airport belt / warehouse conveyor)
rather than pinning a single split; the remaining tests cover the edges —
checkpoint before any reads, double restore from one payload, lifecycle
errors, the version gate, and subclass flattening.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BatchLocalizer, STPPConfig
from repro.rfid.reading import TagRead
from repro.service import CHECKPOINT_VERSION, LocalizationSession
from repro.simulation import collect_sweep, standard_antenna_moving_scene, \
    standard_tag_moving_scene
from repro.simulation.collector import profiles_from_read_log
from repro.workloads import MORNING_PEAK, baggage_batch, conveyor_batch, \
    conveyor_scene
from repro.workloads.library import generate_bookshelf


def _library_case():
    shelf = generate_bookshelf(levels=1, books_per_level=10, seed=21)
    tags = shelf.to_tags(seed=21)
    return tags, standard_antenna_moving_scene(tags, seed=21)


def _airport_case():
    batch = baggage_batch(MORNING_PEAK, bag_count=8, seed=22)
    return batch.tags, standard_tag_moving_scene(batch.tags, seed=22)


def _warehouse_case():
    batch = conveyor_batch(batch_index=0, seed=23)
    return batch.tags, conveyor_scene(batch, seed=23)


_CASES = {
    "library": _library_case,
    "airport": _airport_case,
    "warehouse": _warehouse_case,
}


@pytest.fixture(scope="module", params=sorted(_CASES), name="workload")
def _workload(request):
    tags, scene = _CASES[request.param]()
    sweep = collect_sweep(scene)
    channel = scene.reader_config.channel.channel_index
    batches = list(sweep.read_log.iter_batches(100))
    return tags, channel, batches


def _fresh_session(tags, channel):
    return LocalizationSession(
        expected_tag_ids=tags.ids(), channel_index=channel
    )


def _assert_updates_identical(a, b):
    """Bit-identical updates modulo wall-clock (NaN-aware for dtw_cost)."""
    assert a.result.x_ordering == b.result.x_ordering
    assert a.result.y_ordering == b.result.y_ordering
    assert set(a.result.vzones) == set(b.result.vzones)
    for tag_id, expected in b.result.vzones.items():
        actual = a.result.vzones[tag_id]
        assert actual.fit == expected.fit
        assert (actual.start_index, actual.end_index) == (
            expected.start_index,
            expected.end_index,
        )
        assert actual.dtw_cost == expected.dtw_cost or (
            np.isnan(actual.dtw_cost) and np.isnan(expected.dtw_cost)
        )
    assert a.update_index == b.update_index
    assert a.reads_ingested == b.reads_ingested
    assert a.batches_ingested == b.batches_ingested
    assert a.ordered_fraction == b.ordered_fraction
    assert a.agreement == b.agreement
    assert a.quality == b.quality
    assert a.confidence == b.confidence
    assert a.final == b.final


def test_random_cut_points_restore_bit_identically(workload):
    """The property: at random mid-stream cuts (including cuts landing after
    a provisional refresh, which populates the incremental DTW caches), the
    restored session's remaining run finalizes exactly like the
    uninterrupted one."""
    tags, channel, batches = workload
    uninterrupted = _fresh_session(tags, channel)
    for batch in batches:
        uninterrupted.ingest_batch(batch)
    expected = uninterrupted.finalize()

    rng = np.random.default_rng(97)
    cuts = sorted(set(rng.integers(1, len(batches), 3).tolist()))
    for cut in cuts:
        session = _fresh_session(tags, channel)
        # The control replays the exact same call sequence with no
        # checkpoint, so update indices and agreement histories match too.
        control = _fresh_session(tags, channel)
        for batch in batches[:cut]:
            session.ingest_batch(batch)
            control.ingest_batch(batch)
        # Half the cuts refresh first so the checkpoint carries warm
        # segmenter/aligner caches, not just raw buffers.
        warm = bool(rng.integers(0, 2))
        if warm:
            provisional_before = session.provisional()
            control.provisional()
        payload = session.checkpoint()

        restored = LocalizationSession.restore(payload)
        if warm:
            # A provisional recomputed from the restored state matches the
            # one the original session produced at the cut.
            twin = LocalizationSession.restore(payload)
            assert (
                twin.provisional().result.x_ordering
                == provisional_before.result.x_ordering
            )
        for batch in batches[cut:]:
            restored.ingest_batch(batch)
            control.ingest_batch(batch)
        final = restored.finalize()
        _assert_updates_identical(final, control.finalize())
        # The orderings themselves never depend on the refresh history.
        assert final.result.x_ordering == expected.result.x_ordering
        assert final.result.y_ordering == expected.result.y_ordering


def test_one_payload_restores_many_times(workload):
    tags, channel, batches = workload
    session = _fresh_session(tags, channel)
    cut = len(batches) // 2
    for batch in batches[:cut]:
        session.ingest_batch(batch)
    payload = session.checkpoint()

    finals = []
    for _ in range(2):
        restored = LocalizationSession.restore(payload)
        for batch in batches[cut:]:
            restored.ingest_batch(batch)
        finals.append(restored.finalize())
    _assert_updates_identical(finals[0], finals[1])
    # The original session is untouched by its checkpoint being taken.
    for batch in batches[cut:]:
        session.ingest_batch(batch)
    _assert_updates_identical(session.finalize(), finals[0])


def test_restored_final_matches_batch_pipeline(workload):
    """Transitivity check: restore-and-resume equals not just the streaming
    twin but the batch pipeline over the full log."""
    tags, channel, batches = workload
    session = _fresh_session(tags, channel)
    for batch in batches[: len(batches) // 3]:
        session.ingest_batch(batch)
    restored = LocalizationSession.restore(session.checkpoint())
    for batch in batches[len(batches) // 3 :]:
        restored.ingest_batch(batch)
    final = restored.finalize()

    from repro.rfid import ReadLog

    log = ReadLog()
    for batch in batches:
        log.extend_batch(batch)
    batch_result = BatchLocalizer(STPPConfig()).localize(
        profiles_from_read_log(log, channel_index=channel),
        expected_tag_ids=tags.ids(),
    )
    assert final.result.x_ordering == batch_result.x_ordering
    assert final.result.y_ordering == batch_result.y_ordering


class TestCheckpointEdges:
    def test_empty_session_round_trips(self):
        session = LocalizationSession(
            expected_tag_ids=["a", "b"], channel_index=6
        )
        restored = LocalizationSession.restore(session.checkpoint())
        update = restored.provisional()
        assert update.result.x_ordering.unordered_ids == ("a", "b")
        assert restored.reads_ingested == 0

    def test_checkpoint_after_finalize_raises(self):
        session = LocalizationSession(channel_index=6)
        session.finalize()
        with pytest.raises(RuntimeError, match="finalized"):
            session.checkpoint()

    def test_version_gate(self):
        import pickle

        session = LocalizationSession(channel_index=6)
        state = pickle.loads(session.checkpoint())
        state["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ValueError, match="checkpoint version"):
            LocalizationSession.restore(pickle.dumps(state))

    @pytest.mark.parametrize(
        "data",
        [b"", b"not a checkpoint", b"\x80\x05\x95"],
        ids=["empty", "text", "truncated-pickle"],
    )
    def test_bytes_that_are_no_checkpoint_are_refused(self, data):
        with pytest.raises(ValueError, match="unsupported checkpoint version None "):
            LocalizationSession.restore(data)

    @pytest.mark.parametrize("payload", [None, 3, [("version", 3)], "version"])
    def test_pickle_of_no_dict_is_refused(self, payload):
        import pickle

        with pytest.raises(ValueError, match="unsupported checkpoint version None "):
            LocalizationSession.restore(pickle.dumps(payload))

    def test_version_one_payload_is_refused(self):
        """A version-1 checkpoint kept one dict of buffer fields per tag
        instead of the collector's columns; restore names the version and
        refuses it whole rather than resuming from part of it."""
        import pickle

        stream = {
            "tag_id": "t",
            "times": np.array([0.1, 0.2]),
            "phases": np.array([1.0, 1.1]),
            "rssis": np.array([-60.0, -60.0]),
            "last_time": 0.2,
            "disordered": False,
            "reorders": 0,
            "duplicates_dropped": 0,
            "seen": None,
            "channel_index": 6,
        }
        payload = {
            "version": 1,
            "config": STPPConfig(),
            "expected": None,
            "pivot": None,
            "channel_index": 6,
            "out_of_order": "reorder",
            "facility_id": "default",
            "channels_seen": {6},
            "read_count": 2,
            "streams": [stream],
            "pipelines": {},
            "batches": 1,
            "updates": 0,
            "previous_x": None,
        }
        assert CHECKPOINT_VERSION == 3
        with pytest.raises(ValueError, match="unsupported checkpoint version 1 "):
            LocalizationSession.restore(pickle.dumps(payload))

    def test_version_two_payload_is_refused(self):
        """A version-2 checkpoint kept one segmenter per tag, its closed
        segments pickled as segment objects (here the oracle's record type
        stands in for the class the library no longer has), and the tag's
        consumed sample count; version 3 keeps the session segmenter's
        columns.  Restore names the version and refuses it whole."""
        import pickle

        from oracles.segmentation import Segment

        session = LocalizationSession(channel_index=6)
        session.ingest_read(TagRead(0.1, "t", 1.0, -60.0))
        session.ingest_read(TagRead(0.2, "t", 1.1, -60.0))
        state = pickle.loads(session.checkpoint())
        del state["segmenter"]
        state["version"] = 2
        closed = Segment(0, 1, 0.1, 0.1, 1.0, 1.0)
        state["pipelines"] = {
            "t": {
                "segmenter": {
                    "window_size": 5,
                    "jump_threshold_rad": 0.75 * 2 * np.pi,
                    "closed": [closed],
                    "count": 2,
                    "prev_phase": 1.1,
                    "open_start": 1,
                    "open_count": 1,
                    "open_start_time": 0.2,
                    "open_end_time": 0.2,
                    "open_min": 1.1,
                    "open_max": 1.1,
                },
                "aligner": {"cached_cols": 0, "cost_prefix": np.empty((0, 0))},
                "consumed": 2,
                "generation": 0,
            }
        }
        with pytest.raises(ValueError, match="unsupported checkpoint version 2 "):
            LocalizationSession.restore(pickle.dumps(state))

    @pytest.mark.parametrize(
        "version, message",
        [
            (2, "unsupported checkpoint version 2 "),
            (CHECKPOINT_VERSION, "repro.core.segmentation.Segment, missing from this build"),
        ],
    )
    def test_payload_naming_a_class_absent_from_this_build(self, monkeypatch, version, message):
        """A genuine version-2 checkpoint pickled its closed segments as
        ``repro.core.segmentation.Segment``, a class this build no longer
        has.  Restore reads the version before it resolves the payload's
        classes, so such a payload is refused by its version, not with an
        ``AttributeError``; a current-version payload naming a missing class
        is refused by that class's name."""
        import pickle
        from dataclasses import dataclass

        from repro.core import segmentation

        @dataclass(frozen=True, slots=True)
        class Segment:
            start_index: int
            end_index: int

        Segment.__module__ = segmentation.__name__
        Segment.__qualname__ = "Segment"
        assert not hasattr(segmentation, "Segment")
        monkeypatch.setattr(segmentation, "Segment", Segment, raising=False)
        state = pickle.loads(LocalizationSession(channel_index=6).checkpoint())
        state["version"] = version
        state["pipelines"] = {"t": {"segmenter": {"closed": [Segment(0, 1)]}}}
        data = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        monkeypatch.delattr(segmentation, "Segment")
        with pytest.raises(AttributeError, match="Segment"):
            pickle.loads(data)
        with pytest.raises(ValueError, match=message):
            LocalizationSession.restore(data)

    def test_restore_flattens_subclasses(self):
        class Wrapper(LocalizationSession):
            pass

        session = Wrapper(channel_index=6)
        session.ingest_read(TagRead(0.1, "t", 1.0, -60.0))
        restored = LocalizationSession.restore(session.checkpoint())
        assert type(restored) is LocalizationSession
        assert restored.reads_ingested == 1

    def test_dedupe_policy_and_counters_survive_restore(self):
        session = LocalizationSession(channel_index=6, out_of_order="dedupe")
        session.ingest_read(TagRead(0.1, "t", 1.0, -60.0))
        session.ingest_read(TagRead(0.1, "t", 1.0, -60.0))  # exact duplicate
        assert session.collector.duplicates_dropped == 1
        restored = LocalizationSession.restore(session.checkpoint())
        assert restored.collector.out_of_order == "dedupe"
        assert restored.collector.duplicates_dropped == 1
        # The dedupe window itself survives: the same duplicate is still
        # recognized after restore.
        restored.ingest_read(TagRead(0.1, "t", 1.0, -60.0))
        assert restored.collector.duplicates_dropped == 2
        assert restored.reads_ingested == 1
