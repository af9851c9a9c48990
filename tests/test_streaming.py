"""Streaming subsystem: incremental engines, the session facade, and the
batch-convergence pin.

The contract under test everywhere here: every incremental engine
(IncrementalSegmenter, ResumableSegmentAligner, StreamingCollector) is
bit-identical to its batch counterpart at every intermediate size, and a
LocalizationSession fed a completed read stream finalizes to exactly the
ordering the batch pipeline computes from the same reads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BatchLocalizer,
    IncrementalSegmenter,
    PhaseProfile,
    ResumableSegmentAligner,
    STPPConfig,
    segment_profile,
    segmented_dtw_align,
)
from repro.core.dtw import ReferenceColumns
from repro.core.reference import shared_canonical_reference
from repro.evaluation.metrics import ordering_agreement
from repro.rf.geometry import Point3D
from repro.rfid import FrameSlottedAloha, ReadLog, RFIDReader, TagRead, make_tags
from repro.rfid.reading import ReadBatch
from repro.simulation import (
    StreamingCollector,
    collect_sweep,
    standard_antenna_moving_scene,
    standard_tag_moving_scene,
)
from repro.simulation.collector import profiles_from_read_log
from repro.service import LocalizationSession
from repro.workloads import baggage_batch, conveyor_batch, conveyor_scene, MORNING_PEAK
from repro.workloads.library import generate_bookshelf


def _assert_profiles_identical(a, b):
    assert a.tag_ids() == b.tag_ids()
    for tag_id in a.tag_ids():
        pa, pb = a[tag_id], b[tag_id]
        assert np.array_equal(pa.timestamps_s, pb.timestamps_s)
        assert np.array_equal(pa.phases_rad, pb.phases_rad)
        assert np.array_equal(pa.rssi_dbm, pb.rssi_dbm)
        assert pa.channel_index == pb.channel_index


def _assert_results_identical(streaming, batch):
    """Orderings bit-identical; vzones identical modulo NaN dtw_cost."""
    assert streaming.x_ordering == batch.x_ordering
    assert streaming.y_ordering == batch.y_ordering
    assert set(streaming.vzones) == set(batch.vzones)
    for tag_id, expected in batch.vzones.items():
        actual = streaming.vzones[tag_id]
        assert actual.fit == expected.fit
        assert (actual.start_index, actual.end_index) == (
            expected.start_index,
            expected.end_index,
        )
        assert actual.method == expected.method
        # dtw_cost is NaN for fallback detections; NaN-aware comparison.
        assert actual.dtw_cost == expected.dtw_cost or (
            np.isnan(actual.dtw_cost) and np.isnan(expected.dtw_cost)
        )


# ---------------------------------------------------------------------------
# Incremental segmentation
# ---------------------------------------------------------------------------



def ingest_reads(session: LocalizationSession, reads) -> None:
    """Ingest ``reads`` in arrival order, as the batches a log replays."""
    for batch in ReadLog(reads).iter_batches():
        session.ingest_batch(batch)

class TestIncrementalSegmenter:
    @pytest.mark.parametrize("window_size", [1, 3, 5, 8])
    def test_matches_batch_under_chunked_feeding(self, small_row_sweep, window_size):
        _, _, sweep = small_row_sweep
        rng = np.random.default_rng(7)
        for tag_id in sweep.profiles.tag_ids():
            profile = sweep.profiles[tag_id]
            segmenter = IncrementalSegmenter(window_size)
            index = 0
            while index < len(profile):
                chunk = int(rng.integers(1, 9))
                segmenter.extend(
                    profile.timestamps_s[index : index + chunk],
                    profile.phases_rad[index : index + chunk],
                )
                index += chunk
                # Equivalence must hold at EVERY intermediate size, not just
                # at the end — that is what makes mid-sweep orderings valid.
                partial = PhaseProfile(
                    tag_id=tag_id,
                    timestamps_s=profile.timestamps_s[:index],
                    phases_rad=profile.phases_rad[:index],
                )
                assert segmenter.segments() == segment_profile(partial, window_size)
                assert segmenter.stable_count() <= len(segmenter.segments())

    def test_jump_splits_match_batch(self):
        # A profile with explicit 0/2π wraps between samples 3-4 and 7-8.
        phases = np.array([0.2, 0.1, 0.05, 0.02, 6.2, 6.1, 6.0, 5.9, 0.3, 0.4])
        times = np.arange(phases.size, dtype=float) * 0.1
        profile = PhaseProfile(tag_id="t", timestamps_s=times, phases_rad=phases)
        for window in (2, 3, 5):
            segmenter = IncrementalSegmenter(window)
            for t, p in zip(times, phases):
                segmenter.append(t, p)
            assert segmenter.segments() == segment_profile(profile, window)

    def test_stable_prefix_never_changes(self, small_row_sweep):
        _, _, sweep = small_row_sweep
        profile = next(iter(sweep.profiles))
        segmenter = IncrementalSegmenter(5)
        seen: list = []
        for index in range(len(profile)):
            segmenter.append(profile.timestamps_s[index], profile.phases_rad[index])
            stable = segmenter.stable_count()
            current = segmenter.segments()[:stable]
            assert current[: len(seen)] == seen
            seen = current

    def test_rejects_invalid_window(self):
        with pytest.raises(ValueError, match="window size"):
            IncrementalSegmenter(0)


# ---------------------------------------------------------------------------
# Resumable DTW
# ---------------------------------------------------------------------------


class TestResumableSegmentAligner:
    @pytest.mark.parametrize("shared", [False, True], ids=["segments", "shared-columns"])
    def test_matches_batch_at_every_growth_step(self, small_row_sweep, shared):
        _, _, sweep = small_row_sweep
        reference_segments = segment_profile(shared_canonical_reference().profile, 5)
        reference = ReferenceColumns.of(reference_segments) if shared else reference_segments
        rng = np.random.default_rng(11)
        for tag_id in sweep.profiles.tag_ids():
            profile = sweep.profiles[tag_id]
            aligner = ResumableSegmentAligner(reference)
            segmenter = IncrementalSegmenter(5)
            index = 0
            while index < len(profile):
                chunk = int(rng.integers(4, 40))
                segmenter.extend(
                    profile.timestamps_s[index : index + chunk],
                    profile.phases_rad[index : index + chunk],
                )
                index += chunk
                segments = segmenter.segments()
                if not segments:
                    continue
                resumed = aligner.align(segments, segmenter.stable_count())
                batch = segmented_dtw_align(reference_segments, segments)
                assert resumed.cost == batch.cost
                assert resumed.path == batch.path
                assert (resumed.query_start, resumed.query_end) == (
                    batch.query_start,
                    batch.query_end,
                )

    def test_cache_grows_monotonically(self, small_row_sweep):
        _, _, sweep = small_row_sweep
        profile = next(iter(sweep.profiles))
        reference_segments = segment_profile(shared_canonical_reference().profile, 5)
        aligner = ResumableSegmentAligner(reference_segments)
        segmenter = IncrementalSegmenter(5)
        cached = 0
        for index in range(len(profile)):
            segmenter.append(profile.timestamps_s[index], profile.phases_rad[index])
            segments = segmenter.segments()
            if not segments:
                continue
            aligner.align(segments, segmenter.stable_count())
            assert aligner._cached_cols >= cached
            cached = aligner._cached_cols
        assert cached > 0

    def test_rejects_shrinking_stable_prefix(self):
        reference_segments = segment_profile(shared_canonical_reference().profile, 5)
        aligner = ResumableSegmentAligner(reference_segments)
        segmenter = IncrementalSegmenter(2)
        times = np.arange(20, dtype=float)
        phases = np.linspace(1.0, 2.0, 20)
        segmenter.extend(times, phases)
        aligner.align(segmenter.segments(), segmenter.stable_count())
        with pytest.raises(ValueError, match="stable prefix shrank"):
            aligner.align(segmenter.segments()[:1], 0)
        aligner.reset()
        aligner.align(segmenter.segments()[:1], 0)  # fine after reset

    def test_session_aligners_share_the_detector_reference(self, small_row_sweep):
        # One read-only copy of the reference columns per detector, however
        # many tags the session aligns, before and after a checkpoint.
        _, scene, sweep = small_row_sweep
        session = LocalizationSession(channel_index=scene.reader_config.channel.channel_index)
        for batch in sweep.read_log.iter_batches(64):
            session.ingest_batch(batch)
        session.provisional()
        restored = LocalizationSession.restore(session.checkpoint())
        restored.provisional()
        for live in (session, restored):
            shared = live._detector.reference_columns()
            assert shared is live._detector.reference_columns()
            assert len(live._pipelines) > 1
            assert all(p.aligner._reference is shared for p in live._pipelines.values())
            for column in (shared.mins, shared.maxs, shared.durations):
                assert not column.flags.writeable

    def test_rejects_empty_inputs(self):
        reference_segments = segment_profile(shared_canonical_reference().profile, 5)
        with pytest.raises(ValueError, match="reference"):
            ResumableSegmentAligner([])
        aligner = ResumableSegmentAligner(reference_segments)
        with pytest.raises(ValueError, match="query"):
            aligner.align([], 0)


# ---------------------------------------------------------------------------
# Streaming collector
# ---------------------------------------------------------------------------


class TestStreamingCollector:
    def test_replayed_log_matches_batch_profiles(self, small_row_sweep):
        _, scene, sweep = small_row_sweep
        channel = scene.reader_config.channel.channel_index
        collector = StreamingCollector(channel_index=channel)
        for batch in sweep.read_log.iter_batches(57):
            collector.ingest_batch(batch)
        assert collector.read_count == len(sweep.read_log)
        _assert_profiles_identical(
            collector.profiles(),
            profiles_from_read_log(sweep.read_log, channel_index=channel),
        )

    def test_single_reads_match_column_ingestion(self, small_row_sweep):
        _, _, sweep = small_row_sweep
        by_read = StreamingCollector()
        by_read.ingest(sweep.read_log.reads)
        by_batch = StreamingCollector()
        for batch in sweep.read_log.iter_batches(64):
            by_batch.ingest_batch(batch)
        _assert_profiles_identical(by_read.profiles(), by_batch.profiles())

    def test_out_of_order_reorder_is_deterministic(self, small_row_sweep):
        _, scene, sweep = small_row_sweep
        channel = scene.reader_config.channel.channel_index
        reads = list(sweep.read_log.reads)
        shuffled = list(reads)
        np.random.default_rng(3).shuffle(shuffled)
        collector = StreamingCollector(channel_index=channel)
        collector.ingest(shuffled)
        reorders = collector.reorders_by_tag()
        reads = np.bincount(collector.columns()["tag_code"], minlength=reorders.size)
        assert np.all((reorders > 0) | (reads < 2))
        # Snapshots are timestamp-sorted, so each tag's profile is identical
        # whatever the arrival order (only the first-seen *tag* order shifts).
        batch = profiles_from_read_log(sweep.read_log, channel_index=channel)
        streamed = collector.profiles()
        assert sorted(streamed.tag_ids()) == sorted(batch.tag_ids())
        for tag_id in batch.tag_ids():
            assert np.array_equal(
                streamed[tag_id].timestamps_s, batch[tag_id].timestamps_s
            )
            assert np.array_equal(
                streamed[tag_id].phases_rad, batch[tag_id].phases_rad
            )
            assert np.array_equal(
                streamed[tag_id].rssi_dbm, batch[tag_id].rssi_dbm
            )

    def test_reads_between_stale_tail_and_chunk_max_count_as_reorders(self):
        """Regression: after an internally disordered chunk, the high-water
        mark must be the chunk *max*, not its last element — otherwise a
        later read landing between the two dodges reorder detection and a
        session would never rebuild that tag's incremental state."""
        collector = StreamingCollector(channel_index=6)
        times = np.array([0.0, 1.0, 20.0, 13.0])  # disordered; max is 20.0
        collector.ingest_columns(
            times, ["t"] * 4, np.full(4, 0.5), np.full(4, -60.0)
        )
        assert collector.reorders_by_tag().tolist() == [1]
        # 14.0 precedes the already-seen 20.0: it must register as a reorder.
        collector.ingest_read(TagRead(14.0, "t", 0.5, -60.0))
        assert collector.reorders_by_tag().tolist() == [2]
        # The high-water mark is exactly 20.0: a read at it is in order.
        collector.ingest_read(TagRead(20.0, "t", 0.5, -60.0))
        assert collector.reorders_by_tag().tolist() == [2]
        assert np.array_equal(
            collector.profile("t").timestamps_s,
            np.array([0.0, 1.0, 13.0, 14.0, 20.0, 20.0]),
        )

    def test_session_converges_after_internally_disordered_chunk(self):
        """End-to-end version of the regression above: the session must
        rebuild the tag's incremental state and still match the batch
        pipeline over the same arrival order."""
        times = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 2.0, 0.5])  # 2.0 early
        phases = np.linspace(1.0, 1.6, 7)
        late_times = np.arange(0.6, 2.0, 0.1)  # all precede the seen 2.0
        late_phases = np.linspace(1.7, 3.0, late_times.size)

        session = LocalizationSession(expected_tag_ids=["t"], channel_index=6)
        session.ingest_columns(times, ["t"] * 7, phases, np.full(7, -60.0))
        session.provisional()  # builds incremental state over the prefix
        session.ingest_columns(
            late_times, ["t"] * late_times.size, late_phases,
            np.full(late_times.size, -60.0),
        )
        final = session.finalize()

        log = ReadLog()
        log.extend_columns(
            np.concatenate([times, late_times]),
            ["t"] * (7 + late_times.size),
            np.concatenate([phases, late_phases]),
            np.full(7 + late_times.size, -60.0),
            channel_index=6,
            antenna_port=1,
        )
        batch = BatchLocalizer(STPPConfig()).localize(
            profiles_from_read_log(log, channel_index=6),
            expected_tag_ids=["t"],
        )
        _assert_results_identical(final.result, batch)

    def test_out_of_order_raise_policy(self):
        collector = StreamingCollector(out_of_order="raise")
        collector.ingest_read(TagRead(1.0, "tag", 0.5, -60.0))
        with pytest.raises(ValueError, match="out-of-order"):
            collector.ingest_read(TagRead(0.5, "tag", 0.6, -61.0))
        with pytest.raises(ValueError, match="out_of_order"):
            StreamingCollector(out_of_order="banana")

    def test_refused_raise_batch_leaves_collector_unchanged(self):
        """Regression: a batch refused under "raise" used to keep the reads
        of the tags checked before the offending one (here ``a@2.0``) while
        ``read_count`` skipped them all."""
        collector = StreamingCollector(channel_index=6, out_of_order="raise")
        collector.ingest_columns(
            np.array([1.0, 1.0]), ["a", "b"], np.full(2, 0.5), np.full(2, -60.0)
        )
        before = collector.profiles()
        with pytest.raises(ValueError, match="tag b: out-of-order"):
            collector.ingest_columns(
                np.array([2.0, 0.5, 3.0]), ["a", "b", "c"],
                np.full(3, 0.5), np.full(3, -60.0),
            )
        assert collector.read_count == 2
        assert collector.tag_ids() == ["a", "b"]
        assert collector.reorders == 0
        _assert_profiles_identical(collector.profiles(), before)
        # The collector carries on as if the refused batch never came.
        collector.ingest_columns(
            np.array([2.0, 3.0]), ["c", "a"], np.full(2, 0.5), np.full(2, -60.0)
        )
        assert collector.tag_ids() == ["a", "b", "c"]
        assert collector.profile("a").timestamps_s.tolist() == [1.0, 3.0]
        assert collector.read_count == 4

    def test_mixed_channels_require_explicit_label(self):
        collector = StreamingCollector()
        collector.ingest_read(TagRead(0.0, "a", 0.5, -60.0, channel_index=6))
        collector.ingest_read(TagRead(1.0, "a", 0.6, -61.0, channel_index=7))
        with pytest.raises(ValueError, match="multiple reader channels"):
            collector.profiles()
        explicit = StreamingCollector(channel_index=6)
        explicit.ingest_read(TagRead(0.0, "a", 0.5, -60.0, channel_index=6))
        explicit.ingest_read(TagRead(1.0, "a", 0.6, -61.0, channel_index=7))
        assert explicit.profiles()["a"].channel_index == 6

    def test_empty_collector(self):
        collector = StreamingCollector()
        assert collector.read_count == 0
        assert collector.tag_ids() == []
        assert len(collector.profiles()) == 0


# ---------------------------------------------------------------------------
# Read batches and the streaming reader
# ---------------------------------------------------------------------------


class TestReadBatches:
    def test_iter_batches_round_trips(self, small_row_sweep):
        _, _, sweep = small_row_sweep
        replayed = ReadLog()
        for batch in sweep.read_log.iter_batches(33):
            assert len(batch) <= 33
            replayed.extend_batch(batch)
        assert replayed == sweep.read_log

    def test_batch_validation(self):
        with pytest.raises(ValueError, match="column lengths"):
            ReadBatch(
                timestamps_s=np.array([0.0, 1.0]),
                tag_ids=("a",),
                phases_rad=np.array([0.1]),
                rssi_dbm=np.array([-60.0]),
                channel_index=6,
            )

    def test_sweep_stream_reassembles_to_sweep_log(self):
        # Moving-tag scene so the streamed path covers the dynamic-geometry
        # branch of the round kernel too.
        batch = baggage_batch(MORNING_PEAK, bag_count=6, seed=5)
        scene = standard_tag_moving_scene(batch.tags, seed=5)

        def fresh_reader():
            # The adaptive ALOHA Q-state lives on the protocol object, so
            # each sweep needs a fresh protocol to start from the same state.
            return RFIDReader(
                config=scene.reader_config, protocol=FrameSlottedAloha()
            )

        def sweep_kwargs():
            return dict(
                tags=scene.tags,
                antenna_position=scene.scenario.antenna_position,
                duration_s=scene.scenario.duration_s,
                tag_position=scene.scenario.tag_position,
            )

        log = fresh_reader().sweep(rng=scene.rng(), **sweep_kwargs())
        streamed = ReadLog()
        rounds = 0
        for read_batch in fresh_reader().sweep_stream(
            rng=scene.rng(), **sweep_kwargs()
        ):
            assert read_batch.round_index >= rounds - 1
            assert np.all(np.diff(read_batch.timestamps_s) >= 0)
            streamed.extend_batch(read_batch)
            rounds += 1
        assert rounds > 1
        assert ReadLog(sorted(streamed.reads, key=lambda read: read.timestamp_s)) == log


# ---------------------------------------------------------------------------
# The session facade
# ---------------------------------------------------------------------------


class TestLocalizationSession:
    def test_empty_stream(self):
        expected = ["tag-a", "tag-b"]
        session = LocalizationSession(expected_tag_ids=expected)
        update = session.provisional()
        assert update.result.x_ordering.ordered_ids == ()
        assert update.result.x_ordering.unordered_ids == tuple(expected)
        assert update.ordered_fraction == 0.0
        assert update.confidence == 0.0
        final = session.finalize()
        assert final.final
        assert final.result.x_ordering.ordered_ids == ()

    def test_single_read_tag_reported_unordered(self):
        session = LocalizationSession(expected_tag_ids=["lonely"])
        session.ingest_read(TagRead(0.5, "lonely", 1.0, -55.0))
        update = session.provisional()
        assert "lonely" in update.result.x_ordering.unordered_ids
        assert update.result.x_ordering.ordered_ids == ()

    def test_requires_segmented_dtw(self):
        with pytest.raises(ValueError, match="segmented_dtw"):
            LocalizationSession(config=STPPConfig(detection_method="full_dtw"))

    def test_finalize_blocks_further_ingestion(self, small_row_sweep):
        _, _, sweep = small_row_sweep
        session = LocalizationSession()
        for batch in sweep.read_log.iter_batches(128):
            session.ingest_batch(batch)
        first = session.finalize()
        assert session.finalize() is first  # idempotent
        with pytest.raises(RuntimeError, match="finalized"):
            session.ingest_read(TagRead(99.0, "late", 0.1, -70.0))
        with pytest.raises(RuntimeError, match="finalized"):
            session.provisional()

    def test_confidence_converges_upward(self, small_row_sweep):
        tags, scene, sweep = small_row_sweep
        session = LocalizationSession(
            expected_tag_ids=tags.ids(),
            channel_index=scene.reader_config.channel.channel_index,
        )
        confidences = []
        for batch in sweep.read_log.iter_batches(120):
            session.ingest_batch(batch)
            confidences.append(session.provisional().confidence)
        final = session.finalize()
        assert final.confidence == 1.0  # all tags ordered, ordering settled
        assert confidences[-1] >= confidences[0]

    def test_gap_spanning_segment_boundary_resumes(self, small_row_sweep):
        """A quiet gap mid-stream (reader saw nothing for a while) must not
        perturb the incremental state: resuming afterwards still converges to
        the batch result, even when the pause lands inside an open segment."""
        tags, scene, sweep = small_row_sweep
        channel = scene.reader_config.channel.channel_index
        reads = sweep.read_log.reads
        # Split at an uneven index so tags pause mid-segment.
        split = len(reads) // 2 + 3
        session = LocalizationSession(
            expected_tag_ids=tags.ids(), channel_index=channel
        )
        ingest_reads(session, reads[:split])
        session.provisional()  # forces segmentation state over the prefix
        ingest_reads(session, reads[split:])
        final = session.finalize()
        batch = BatchLocalizer(STPPConfig()).localize(
            profiles_from_read_log(sweep.read_log, channel_index=channel),
            expected_tag_ids=tags.ids(),
        )
        _assert_results_identical(final.result, batch)

    def test_out_of_order_stream_converges_after_rebuild(self, small_row_sweep):
        tags, scene, sweep = small_row_sweep
        channel = scene.reader_config.channel.channel_index
        reads = list(sweep.read_log.reads)
        shuffled = list(reads)
        np.random.default_rng(13).shuffle(shuffled)
        session = LocalizationSession(
            expected_tag_ids=tags.ids(), channel_index=channel
        )
        chunk = max(1, len(shuffled) // 7)
        for start in range(0, len(shuffled), chunk):
            ingest_reads(session, shuffled[start : start + chunk])
            session.provisional()
        final = session.finalize()
        # The convergence contract is "same reads in the same arrival order":
        # the batch comparator consumes a log holding the shuffled order (the
        # per-tag profiles are identical either way — both paths stable-sort
        # by timestamp — but the default Y pivot is the first-seen tag, which
        # legitimately follows arrival order in both paths).
        batch = BatchLocalizer(STPPConfig()).localize(
            profiles_from_read_log(ReadLog(shuffled), channel_index=channel),
            expected_tag_ids=tags.ids(),
        )
        _assert_results_identical(final.result, batch)
        # The X ordering does not depend on arrival order at all.
        batch_sorted = BatchLocalizer(STPPConfig()).localize(
            profiles_from_read_log(sweep.read_log, channel_index=channel),
            expected_tag_ids=tags.ids(),
        )
        assert final.result.x_ordering == batch_sorted.x_ordering


# ---------------------------------------------------------------------------
# The "dedupe" ingest policy
# ---------------------------------------------------------------------------


class TestDedupePolicy:
    def test_exact_duplicates_dropped_and_counted(self):
        collector = StreamingCollector(out_of_order="dedupe")
        read = TagRead(1.0, "tag", 0.5, -60.0, channel_index=6)
        collector.ingest_read(read)
        collector.ingest_read(read)  # exact duplicate: dropped
        collector.ingest_read(TagRead(1.0, "tag", 0.6, -60.0, channel_index=6))
        assert collector.read_count == 2
        assert collector.duplicates_dropped == 1
        assert collector.duplicates_dropped_by_tag().tolist() == [1]

    def test_signal_bearing_differences_are_kept(self):
        # The duplicate key is (timestamp, wrapped phase, channel): a read
        # differing in either is a legitimate re-observation and is kept.
        collector = StreamingCollector(out_of_order="dedupe")
        collector.ingest_read(TagRead(1.0, "tag", 0.5, -60.0))
        collector.ingest_read(TagRead(1.001, "tag", 0.5, -60.0))  # new time
        collector.ingest_read(TagRead(1.0, "tag", 0.6, -60.0))  # new phase
        assert collector.read_count == 3
        assert collector.duplicates_dropped == 0

    def test_wrapped_phase_aliases_count_as_duplicates(self):
        # Phases are wrapped before comparison, so a 2π alias of an already
        # ingested read is signal-wise the same observation.
        collector = StreamingCollector(out_of_order="dedupe")
        collector.ingest_read(TagRead(1.0, "tag", 0.5, -60.0))
        collector.ingest_read(TagRead(1.0, "tag", 0.5 + 2.0 * np.pi, -60.0))
        assert collector.read_count == 1
        assert collector.duplicates_dropped == 1

    def test_reorder_policy_keeps_duplicates(self):
        collector = StreamingCollector(out_of_order="reorder")
        read = TagRead(1.0, "tag", 0.5, -60.0)
        collector.ingest_read(read)
        collector.ingest_read(read)
        assert collector.read_count == 2
        assert collector.duplicates_dropped == 0

    def test_dedupe_recovers_the_clean_result_under_duplication(self, small_row_sweep):
        """A duplicated feed through a dedupe session finalizes to exactly
        the clean batch result: the duplicates are provably removed, and
        only the quality/confidence grade records that they ever existed."""
        from repro.faults import FaultSpec

        tags, scene, sweep = small_row_sweep
        channel = scene.reader_config.channel.channel_index
        pipeline = FaultSpec.from_json(
            {"seed": 3, "injectors": [{"kind": "duplicate", "rate": 0.15}]}
        ).build()
        session = LocalizationSession(
            expected_tag_ids=tags.ids(),
            channel_index=channel,
            out_of_order="dedupe",
        )
        for batch in pipeline.apply(sweep.read_log.iter_batches(100)):
            session.ingest_batch(batch)
        duplicated = pipeline.counters()["reads_duplicated"]
        assert duplicated > 0
        assert session.collector.duplicates_dropped == duplicated
        final = session.finalize()

        batch_result = BatchLocalizer(STPPConfig()).localize(
            profiles_from_read_log(sweep.read_log, channel_index=channel),
            expected_tag_ids=tags.ids(),
        )
        _assert_results_identical(final.result, batch_result)
        # The anomaly evidence is surfaced, and only through quality.
        quality = session.stream_quality()
        assert quality["duplicates_dropped"] == duplicated
        assert 0.0 < final.quality < 1.0
        assert final.confidence == pytest.approx(
            final.ordered_fraction * final.agreement * final.quality
        )


# ---------------------------------------------------------------------------
# Batch-equivalence pin across the three workloads
# ---------------------------------------------------------------------------


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


@pytest.mark.parametrize(
    "case", [_library_case, _airport_case, _warehouse_case],
    ids=["library", "airport", "warehouse"],
)
def test_streaming_final_ordering_is_bit_identical_to_batch(case):
    """The acceptance pin: across all three workloads, a session fed the
    completed stream produces exactly the batch pipeline's orderings."""
    tags, scene = case()
    sweep = collect_sweep(scene)
    channel = scene.reader_config.channel.channel_index

    batch_result = BatchLocalizer(STPPConfig()).localize(
        profiles_from_read_log(sweep.read_log, channel_index=channel),
        expected_tag_ids=tags.ids(),
    )

    session = LocalizationSession(
        expected_tag_ids=tags.ids(), channel_index=channel
    )
    for read_batch in sweep.read_log.iter_batches(100):
        session.ingest_batch(read_batch)
        session.provisional()  # exercise the mid-stream path, not just finalize
    final = session.finalize()

    assert final.final
    _assert_results_identical(final.result, batch_result)
    assert final.result.x_ordering.ordered_ids  # non-degenerate sweep


# ---------------------------------------------------------------------------
# Live streaming portal (warehouse conveyor)
# ---------------------------------------------------------------------------


class TestConveyorPortal:
    def test_portal_streams_and_converges(self):
        from repro.workloads import ConveyorConfig, conveyor_portal

        portal = conveyor_portal(
            config=ConveyorConfig(lanes=2, cartons_per_lane=3),
            seed=31,
            update_every_rounds=20,
        )
        updates = list(portal.updates())
        assert len(updates) >= 2
        assert not updates[0].final and updates[-1].final
        # Reads flowed in while updates were being emitted.
        assert updates[-1].reads_ingested > updates[0].reads_ingested
        # Confidence is 1.0 once every carton is ordered and the ordering
        # has stopped moving; the full sweep must get there.
        assert updates[-1].confidence == 1.0
        assert portal.belt_order_accuracy() >= 0.5

        # The final update equals the batch pipeline over the session's reads
        # (the portal's convergence guarantee, on live-streamed data).
        channel = portal.scene.reader_config.channel.channel_index
        collector = portal.session.collector
        tag_ids = collector.tag_ids()
        columns = collector.columns()
        log = ReadLog()
        log.extend_columns(
            columns["timestamp_s"],
            [tag_ids[code] for code in columns["tag_code"].tolist()],
            columns["phase_rad"],
            columns["rssi_dbm"],
            channel_index=channel,
            antenna_port=1,
        )
        batch = BatchLocalizer(STPPConfig()).localize(
            profiles_from_read_log(log, channel_index=channel),
            expected_tag_ids=portal.batch.tags.ids(),
        )
        assert updates[-1].result.x_ordering.ordered_ids == batch.x_ordering.ordered_ids
        assert updates[-1].result.x_ordering.scores == batch.x_ordering.scores

    def test_portal_validates_update_cadence(self):
        from repro.workloads import conveyor_portal

        with pytest.raises(ValueError, match="update_every_rounds"):
            conveyor_portal(update_every_rounds=0)


# ---------------------------------------------------------------------------
# Ordering agreement metric
# ---------------------------------------------------------------------------


class TestOrderingAgreement:
    def test_identical_orders_agree_fully(self):
        assert ordering_agreement(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_reversed_orders_fully_disagree(self):
        assert ordering_agreement(["a", "b", "c"], ["c", "b", "a"]) == 0.0

    def test_partial_overlap_counts_common_pairs_only(self):
        # Common tags: a, b (in order) and c missing from previous.
        assert ordering_agreement(["a", "b"], ["a", "c", "b"]) == 1.0
        assert ordering_agreement(["a", "b"], ["b", "c", "a"]) == 0.0

    def test_fewer_than_two_common_tags_is_vacuously_stable(self):
        assert ordering_agreement([], ["a", "b"]) == 1.0
        assert ordering_agreement(["a"], ["a"]) == 1.0
        assert ordering_agreement(["a", "b"], ["c"]) == 1.0
