"""The streaming localization service (facade over the incremental engines).

A :class:`LocalizationSession` multiplexes many concurrent tag streams: reads
are ingested as they arrive (singly, or as columnar
:class:`~repro.rfid.reading.ReadBatch` batches straight from
:meth:`RFIDReader.sweep_stream <repro.rfid.reader.RFIDReader.sweep_stream>`),
and at any instant the session can emit a **provisional** ordering of the
tags seen so far, together with a confidence grade.  Three incremental
engines make a refresh cheap:

* the :class:`~repro.simulation.streaming.StreamingCollector` keeps every
  read in one columnar store with amortized O(1) appends, and snapshots it
  through the batch path's lexsort-and-slice;
* one columnar :class:`~repro.core.segmentation.IncrementalSegmenter`
  keeps every tag's coarse segmentation and, per refresh, segments the new
  samples of every stale tag in one vectorized pass instead of recomputing
  them;
* a :class:`~repro.core.dtw.ResumableSegmentAligner` per tag reuses the
  cached DTW accumulation prefix over the segments that can no longer change,
  so each refresh pays only for the columns that grew — and every tag of a
  refresh resumes in one :func:`~repro.core.dtw.align_resumable_batch` call.

**Convergence guarantee**: every engine above is bit-identical to its batch
counterpart, so once the stream ends, :meth:`LocalizationSession.finalize`
produces exactly the ordering the batch pipeline
(:class:`~repro.core.localizer.BatchLocalizer` over
:func:`~repro.simulation.collector.profiles_from_read_log`) computes from the
same reads — pinned across the library, airport, and warehouse workloads by
``tests/test_streaming.py``.
"""

from __future__ import annotations

import io
import pickle
import time
from dataclasses import dataclass

import numpy as np

from ..core.dtw import ResumableSegmentAligner, align_resumable_batch
from ..core.localizer import STPPConfig, STPPLocalizer
from ..core.ordering_x import order_tags_x
from ..core.ordering_y import order_tags_y
from ..core.phase_profile import PhaseProfile
from ..core.result import LocalizationResult
from ..core.segmentation import IncrementalSegmenter
from ..core.vzone import VZone
from ..evaluation.metrics import ordering_agreement
from ..rfid.reading import ReadBatch, TagRead
from ..simulation.streaming import StreamingCollector
from .cache import ProfileCacheRegistry

CHECKPOINT_VERSION = 3
"""Format version stamped into every :meth:`LocalizationSession.checkpoint`."""

GAP_FACTOR = 16.0
"""A silence on the session's pooled read timeline longer than this many
times the median inter-read interval counts as a coverage hole (a reader
stall or disconnect window).  The *global* timeline is the right signal: a
stalled reader silences every tag at once, while per-tag cadences vary wildly
on belt workloads (a tag is only read near the antenna).  Calibrated against
the clean library/airport/warehouse leaderboard streams, whose worst global
gap is ~7x the median (their ~10% random dropout included) versus >100x for
a 0.4 s stall — clean streams must report **zero** holes so the zero-fault
confidence stays bit-identical to pre-robustness behaviour."""

_MIN_GAP_SAMPLES = 16
"""Minimum pooled reads before the stream cadence is considered estimable."""


@dataclass(frozen=True)
class StreamingUpdate:
    """One provisional (or final) localization emitted by a session."""

    update_index: int
    """Sequence number of this update within the session (0-based)."""

    reads_ingested: int
    """Total reads the session had consumed when the update was computed."""

    batches_ingested: int
    """Total read batches (e.g. inventory rounds) consumed so far."""

    result: LocalizationResult
    """Orderings over the tags seen so far (the final batch result once the
    stream has completed and :meth:`LocalizationSession.finalize` ran)."""

    ordered_fraction: float
    """Fraction of the expected population that received an X rank."""

    agreement: float
    """Pairwise agreement of this X ordering with the previous update's
    (1.0 for the first update)."""

    confidence: float
    """``ordered_fraction * agreement * quality`` — 1.0 means every expected
    tag is ordered, the ordering has stopped moving between refreshes, and
    the stream shows no hard degradation evidence."""

    elapsed_s: float
    """Wall-clock cost of computing this update (not of ingestion)."""

    quality: float = 1.0
    """Stream-health grade in [0, 1]: exactly 1.0 on a clean stream, degraded
    by hard anomaly evidence only — duplicates dropped at ingest, out-of-order
    acceptances, and per-tag coverage holes (see
    :meth:`LocalizationSession.stream_quality`)."""

    final: bool = False
    """True for the update returned by :meth:`LocalizationSession.finalize`."""


class _MissingClass:
    """Stands in for a class or function a checkpoint names but this build
    lacks, so that the payload's version can be read and reported."""

    def __init__(self, *args, **kwargs) -> None:
        pass

    def __setstate__(self, state) -> None:
        pass


def _resolve_or_stand_in(unpickler: "_CheckpointUnpickler", module: str, name: str):
    try:
        return pickle.Unpickler.find_class(unpickler, module, name)
    except (AttributeError, ImportError):
        unpickler.missing.append(f"{module}.{name}")
        return _MissingClass


class _CheckpointUnpickler(pickle.Unpickler):
    """Unpickles a checkpoint whatever classes it names, listing those this
    build lacks in ``missing``: an older payload's version is read before
    any of its classes has to exist."""

    find_class = _resolve_or_stand_in

    def __init__(self, data: bytes) -> None:
        super().__init__(io.BytesIO(data))
        self.missing: list[str] = []


@dataclass
class _TagPipeline:
    """Incremental per-tag state beside the session's segmenter: resumable
    DTW alignment and the latest detection."""

    aligner: ResumableSegmentAligner
    generation: int = 0
    vzone: VZone | None = None
    vzone_sample_count: int = -1


class LocalizationSession:
    """Streaming relative localization of many concurrent tag streams.

    Parameters
    ----------
    config:
        STPP pipeline parameters.  Streaming requires the paper's default
        ``detection_method="segmented_dtw"`` — the other strategies have no
        incremental alignment state (see ``docs/streaming.md``).
    expected_tag_ids:
        The full tag population, when known up front.  Tags outside it are
        ignored (e.g. Landmarc reference tags sharing the air interface);
        expected tags never seen are reported in ``unordered_ids`` and hold
        the ``ordered_fraction`` below 1.  Defaults to "whatever has been
        seen so far".
    pivot_tag_id:
        Optional pivot for the Y-axis comparison (as in
        :meth:`~repro.core.localizer.STPPLocalizer.localize`).
    channel_index:
        Channel label for profiles; derived from the reads when omitted.
    out_of_order:
        ``"reorder"`` (default), ``"dedupe"`` or ``"raise"`` — what to do
        with a read whose timestamp precedes its tag's latest.  Reordering is
        deterministic (stable sort by timestamp, matching the batch path) but
        rebuilds the affected tag's incremental state; ``"dedupe"`` reorders
        too and also drops exact duplicate reads (see
        :class:`~repro.simulation.streaming.StreamingCollector`).
    profile_cache:
        Optional shared :class:`~repro.service.cache.ProfileCacheRegistry`.
        When given, the session's reference profile comes from the registry
        (keyed by ``facility_id`` and the config's reference parameters)
        instead of being built per session — many sessions of one facility
        then share a single immutable template.  Reference construction is
        deterministic, so results are bit-identical either way; sharing only
        removes redundant builds.  Omitted, the session falls back to the
        process-wide :func:`~repro.core.reference.shared_canonical_reference`.
    facility_id:
        The cache key namespace for ``profile_cache`` (ignored without one).
    """

    def __init__(
        self,
        config: STPPConfig | None = None,
        expected_tag_ids: "list[str] | None" = None,
        pivot_tag_id: str | None = None,
        channel_index: int | None = None,
        out_of_order: str = "reorder",
        profile_cache: "ProfileCacheRegistry | None" = None,
        facility_id: str = "default",
    ) -> None:
        config = config if config is not None else STPPConfig()
        if config.detection_method != "segmented_dtw":
            raise ValueError(
                "streaming sessions require detection_method='segmented_dtw' "
                f"(got {config.detection_method!r}); the other strategies have "
                "no incremental alignment state — run them through "
                "BatchLocalizer instead"
            )
        self.config = config
        self.facility_id = facility_id
        reference = (
            None
            if profile_cache is None
            else profile_cache.reference_for(facility_id, config)
        )
        self._localizer = STPPLocalizer(config, reference=reference)
        self._detector = self._localizer.detector
        self._expected = None if expected_tag_ids is None else list(expected_tag_ids)
        self._pivot_tag_id = pivot_tag_id
        self.collector = StreamingCollector(
            channel_index=channel_index, out_of_order=out_of_order
        )
        self._segmenter = IncrementalSegmenter(config.window_size)
        self._pipelines: dict[str, _TagPipeline] = {}
        self._batches = 0
        self._updates = 0
        self._previous_x: tuple[str, ...] | None = None
        self._finalized: StreamingUpdate | None = None

    # -- ingestion ---------------------------------------------------------

    @property
    def reads_ingested(self) -> int:
        """Total reads consumed so far."""
        return self.collector.read_count

    @property
    def batches_ingested(self) -> int:
        """Total read batches consumed so far."""
        return self._batches

    def _check_open(self) -> None:
        if self._finalized is not None:
            raise RuntimeError("session already finalized; no further ingestion")

    def ingest_batch(self, batch: ReadBatch) -> None:
        """Ingest one columnar read batch (e.g. one inventory round)."""
        self._check_open()
        self.collector.ingest_batch(batch)
        self._batches += 1

    def ingest_columns(
        self,
        timestamps_s: np.ndarray,
        tag_ids: "tuple[str, ...] | list[str]",
        phases_rad: np.ndarray,
        rssi_dbm: np.ndarray,
        channel_index: int = 6,
    ) -> None:
        """Ingest parallel read columns sharing one reader channel."""
        self._check_open()
        self.collector.ingest_columns(
            timestamps_s, tag_ids, phases_rad, rssi_dbm, channel_index=channel_index
        )
        self._batches += 1

    def ingest_read(self, read: TagRead) -> None:
        """Ingest one decoded reply."""
        self._check_open()
        self.collector.ingest_read(read)

    # -- incremental detection --------------------------------------------

    def _pipeline_for(self, tag_id: str) -> _TagPipeline:
        pipeline = self._pipelines.get(tag_id)
        if pipeline is None:
            pipeline = _TagPipeline(
                aligner=ResumableSegmentAligner(self._detector.reference_segmentation()),
            )
            self._pipelines[tag_id] = pipeline
        return pipeline

    def _detect_all(
        self, profile_map: dict[str, PhaseProfile], generations: dict[str, int]
    ) -> dict[str, VZone]:
        """Incremental V-zone detection for every usable profile.

        Every tag whose sample count moved since its last detection is
        stale: one :meth:`~repro.core.segmentation.IncrementalSegmenter.extend`
        call segments the new samples of all of them, all of them resume in
        one :func:`~repro.core.dtw.align_resumable_batch` call and are fitted
        in one staged
        :meth:`~repro.core.vzone.VZoneDetector.detect_from_segmented_alignments`
        call — provisionals and finalize alike; the others keep their
        detection.  ``generations`` holds each tag's reorder count in the
        collector.
        """
        segmenter = self._segmenter
        usable: list[tuple[str, _TagPipeline]] = []
        stale: list[tuple[str, _TagPipeline, PhaseProfile]] = []
        for tag_id, profile in profile_map.items():
            if len(profile) < self.config.min_profile_samples:
                continue
            pipeline = self._pipeline_for(tag_id)
            if pipeline.generation != generations[tag_id]:
                # A late read re-sorted this tag's samples: the incremental
                # prefix is void, rebuild it from the (deterministically
                # re-sorted) stream.
                segmenter.discard(tag_id)
                pipeline.aligner.reset()
                pipeline.generation = generations[tag_id]
                pipeline.vzone_sample_count = -1
            usable.append((tag_id, pipeline))
            if pipeline.vzone_sample_count != len(profile):
                stale.append((tag_id, pipeline, profile))
        seen = [segmenter.sample_count(tag_id) for tag_id, _, _ in stale]
        segmenter.extend(
            [profile.timestamps_s[s:] for (_, _, profile), s in zip(stale, seen)],
            [profile.phases_rad[s:] for (_, _, profile), s in zip(stale, seen)],
            keys=[tag_id for tag_id, _, _ in stale],
        )
        segmentations = [segmenter.segments(tag_id) for tag_id, _, _ in stale]
        results = align_resumable_batch(
            [pipeline.aligner for _, pipeline, _ in stale],
            segmentations,
            [segmenter.stable_count(tag_id) for tag_id, _, _ in stale],
        )
        vzones = self._detector.detect_from_segmented_alignments(
            [profile for _, _, profile in stale], segmentations, results
        )
        for (_, pipeline, profile), vzone in zip(stale, vzones):
            pipeline.vzone = vzone
            pipeline.vzone_sample_count = len(profile)
        return {
            tag_id: pipeline.vzone
            for tag_id, pipeline in usable
            if pipeline.vzone is not None
        }

    def _localize(self) -> LocalizationResult:
        """Run the ordering stages over the current incremental detections.

        Mirrors :meth:`STPPLocalizer.localize` exactly — same profile order,
        same expected-population filtering, same ordering calls — with V-zone
        detection served from the per-tag incremental pipelines.
        """
        expected_set = None if self._expected is None else set(self._expected)
        profiles = self.collector.profiles()
        profile_map = {
            tag_id: profile
            for tag_id, profile in profiles.profiles.items()
            if expected_set is None or tag_id in expected_set
        }
        expected = self._expected if self._expected is not None else list(profile_map)

        generations = dict(
            zip(self.collector.tag_ids(), self.collector.reorders_by_tag().tolist())
        )
        vzones = self._detect_all(profile_map, generations)
        x_ordering = order_tags_x(vzones, all_tag_ids=expected)
        y_ordering = order_tags_y(
            profile_map,
            vzones,
            config=self.config.y_config(),
            all_tag_ids=expected,
            pivot_tag_id=self._pivot_tag_id,
        )
        return LocalizationResult(
            x_ordering=x_ordering,
            y_ordering=y_ordering,
            vzones=vzones,
            metadata={
                "detection_method": self.config.detection_method,
                "window_size": self.config.window_size,
                "y_value_mode": self.config.y_value_mode,
                "profile_count": len(profile_map),
                "streaming": True,
                "reads_ingested": self.reads_ingested,
            },
        )

    # -- stream health -----------------------------------------------------

    def stream_quality(self) -> dict:
        """Hard-evidence degradation report over the expected streams.

        Inspects only what the stream itself proves — no model of what the
        feed *should* look like:

        * ``duplicates_dropped`` — exact duplicates removed at ingest (the
          ``"dedupe"`` policy);
        * ``reorders`` — out-of-order acceptances (late reads);
        * ``gap_seconds`` — coverage holes on the **pooled** timeline of all
          expected tags: silences longer than :data:`GAP_FACTOR` x the median
          inter-read interval (reader stalls, disconnect windows, deep loss
          bursts — anything that silences the whole feed at once).

        ``quality = (1 - anomaly_fraction) * (1 - gap_fraction)``, where
        ``anomaly_fraction`` is anomalous reads over total and
        ``gap_fraction`` is hole time over covered time.  On a clean stream
        every term is identically zero and quality is **exactly** 1.0, which
        keeps the zero-fault confidence bit-identical.
        """
        collector = self.collector
        expected_set = None if self._expected is None else set(self._expected)
        expected_tags = np.array(
            [
                expected_set is None or tag_id in expected_set
                for tag_id in collector.tag_ids()
            ],
            dtype=bool,
        )
        columns = collector.columns()
        expected_rows = expected_tags[columns["tag_code"]]
        reads = int(np.count_nonzero(expected_rows))
        duplicates = int(collector.duplicates_dropped_by_tag()[expected_tags].sum())
        reorders = int(collector.reorders_by_tag()[expected_tags].sum())
        gap_seconds = 0.0
        span_seconds = 0.0
        pooled = np.sort(columns["timestamp_s"][expected_rows])
        if pooled.shape[0] >= _MIN_GAP_SAMPLES:
            diffs = np.diff(pooled)
            median = float(np.median(diffs))
            if median > 0.0:
                span_seconds = float(pooled[-1] - pooled[0])
                holes = diffs[diffs > GAP_FACTOR * median]
                if holes.size:
                    gap_seconds = float(np.sum(holes - median))
        anomalous = duplicates + reorders
        anomaly_fraction = (
            anomalous / (reads + anomalous) if (reads + anomalous) else 0.0
        )
        gap_fraction = gap_seconds / span_seconds if span_seconds > 0.0 else 0.0
        quality = (1.0 - anomaly_fraction) * (1.0 - min(gap_fraction, 1.0))
        return {
            "reads": reads,
            "duplicates_dropped": duplicates,
            "reorders": reorders,
            "gap_seconds": gap_seconds,
            "span_seconds": span_seconds,
            "anomaly_fraction": anomaly_fraction,
            "gap_fraction": gap_fraction,
            "quality": quality,
        }

    # -- updates -----------------------------------------------------------

    def _update(self, final: bool) -> StreamingUpdate:
        started = time.perf_counter()
        result = self._localize()
        elapsed = time.perf_counter() - started

        expected_count = (
            len(self._expected)
            if self._expected is not None
            else max(len(self.collector.tag_ids()), 1)
        )
        ordered_fraction = (
            len(result.x_ordering.ordered_ids) / expected_count
            if expected_count
            else 0.0
        )
        agreement = (
            1.0
            if self._previous_x is None
            else ordering_agreement(self._previous_x, result.x_ordering.ordered_ids)
        )
        self._previous_x = result.x_ordering.ordered_ids
        quality = self.stream_quality()["quality"]

        update = StreamingUpdate(
            update_index=self._updates,
            reads_ingested=self.reads_ingested,
            batches_ingested=self._batches,
            result=result,
            ordered_fraction=ordered_fraction,
            agreement=agreement,
            confidence=ordered_fraction * agreement * quality,
            elapsed_s=elapsed,
            quality=quality,
            final=final,
        )
        self._updates += 1
        return update

    def provisional(self) -> StreamingUpdate:
        """Compute a provisional ordering over everything ingested so far."""
        self._check_open()
        return self._update(final=False)

    def finalize(self) -> StreamingUpdate:
        """Close the stream and return the converged (batch-exact) result.

        Idempotent: repeated calls return the same update.  After
        finalization further ingestion raises ``RuntimeError``.
        """
        if self._finalized is None:
            self._finalized = self._update(final=True)
        return self._finalized

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> bytes:
        """Serialize the session's resumable state to bytes.

        The payload captures everything the incremental engines have built —
        the collector's read columns and per-tag counters, the segmenter's
        columns (each tag's segments and open tail), the resumable aligner's cached
        DTW accumulation prefix, and the session's update history — but *not*
        the localizer or reference profile, which :meth:`restore` rebuilds
        deterministically from the config.  **Contract** (pinned by ``tests/test_checkpoint.py``): a
        session restored from a checkpoint and fed the remaining batches
        finalizes bit-identically to the uninterrupted session.

        Raises ``RuntimeError`` after :meth:`finalize` — a finalized session
        has nothing left to resume.
        """
        if self._finalized is not None:
            raise RuntimeError("session already finalized; nothing left to resume")
        collector = self.collector
        pipelines = {}
        for tag_id, pipeline in self._pipelines.items():
            aligner = pipeline.aligner
            pipelines[tag_id] = {
                "aligner": {
                    "cached_cols": aligner._cached_cols,
                    "cost_prefix": aligner._cost[:, : aligner._cached_cols].copy(),
                },
                "generation": pipeline.generation,
            }
        state = {
            "version": CHECKPOINT_VERSION,
            "config": self.config,
            "expected": None if self._expected is None else list(self._expected),
            "pivot": self._pivot_tag_id,
            "channel_index": collector._explicit_channel,
            "out_of_order": collector.out_of_order,
            "facility_id": self.facility_id,
            "collector": collector.state(),
            "segmenter": self._segmenter.state(),
            "pipelines": pipelines,
            "batches": self._batches,
            "updates": self._updates,
            "previous_x": self._previous_x,
        }
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def restore(
        cls, data: bytes, profile_cache: "ProfileCacheRegistry | None" = None
    ) -> "LocalizationSession":
        """Rebuild a session from :meth:`checkpoint` bytes.

        The restored session continues exactly where the checkpointed one
        stood: ingesting the remaining batches and finalizing produces output
        bit-identical to the uninterrupted run.  The localizer, detector, and
        reference profile are rebuilt from the checkpointed config (pass
        ``profile_cache`` to share the facility's cached reference); V-zone
        detections are deterministically recomputed at the next update rather
        than serialized.

        Always returns a base :class:`LocalizationSession`, regardless of the
        class the checkpoint was taken from — subclass wrappers (e.g. fleet
        ``session_factory`` test doubles) do not survive a restart, which is
        exactly the semantics a crash-recovery path wants.

        Raises ``ValueError`` naming the payload's version when it is not
        :data:`CHECKPOINT_VERSION`, and so does a payload without one:
        bytes that are no pickle, empty bytes, or a pickle of anything but a
        checkpoint's dict (its version reads ``None``).  The version is read
        before any class the payload names has to exist, so an older payload
        that pickled a class this build deleted is refused by its version
        too.  A payload of this version naming a class this build lacks
        raises ``ValueError`` naming the class.
        """
        unpickler = _CheckpointUnpickler(data)
        cause = None
        try:
            state = unpickler.load()
        except Exception as error:
            # Bytes that are no pickle at all (empty ones included) carry no
            # version: the gate below refuses them.  Unpickling garbage can
            # raise nearly any exception type (the pickle docs name
            # AttributeError, EOFError, ImportError and IndexError besides
            # UnpicklingError), so none narrower is caught.
            state, cause = None, error
        version = state.get("version") if isinstance(state, dict) else None
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            ) from cause
        if unpickler.missing:
            raise ValueError(
                f"checkpoint names {', '.join(unpickler.missing)}, "
                "missing from this build"
            )
        session = LocalizationSession(
            config=state["config"],
            expected_tag_ids=state["expected"],
            pivot_tag_id=state["pivot"],
            channel_index=state["channel_index"],
            out_of_order=state["out_of_order"],
            profile_cache=profile_cache,
            facility_id=state["facility_id"],
        )
        session.collector.load_state(state["collector"])
        session._segmenter.load_state(state["segmenter"])
        for tag_id, saved in state["pipelines"].items():
            pipeline = session._pipeline_for(tag_id)
            aligner_state = saved["aligner"]
            cached = aligner_state["cached_cols"]
            aligner = pipeline.aligner
            aligner._ensure_capacity(max(cached, 1))
            if cached:
                aligner._cost[:, :cached] = aligner_state["cost_prefix"]
            aligner._cached_cols = cached
            pipeline.generation = saved["generation"]
            pipeline.vzone = None
            pipeline.vzone_sample_count = -1
        session._batches = state["batches"]
        session._updates = state["updates"]
        session._previous_x = state["previous_x"]
        return session
