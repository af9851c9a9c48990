"""Multi-portal fleet service: concurrent session multiplexing.

A real STPP deployment is not one portal — a facility runs readers at every
library shelf row, airport belt, and warehouse conveyor lane, all streaming
reads at once.  :class:`FleetService` is the serving front end over the
streaming engine: it multiplexes many concurrent
:class:`~repro.service.session.LocalizationSession` instances behind
queue-based ingest, routing reads by ``(facility_id, portal_id)``.

Design (see ``docs/service.md`` for the lifecycle and decision tables):

* **Per-portal routing.**  Every portal owns one session, one bounded FIFO
  queue of :class:`~repro.rfid.reading.ReadBatch` objects, and its own
  lock/condition — portals never contend with each other on the hot path.
* **Bounded queues with explicit shed policies.**  When a portal's queue is
  full, the configured policy decides: ``"block"`` applies backpressure to
  the producer (no read is ever lost), ``"drop_oldest"`` evicts the oldest
  queued batch and counts it as shed, ``"reject"`` refuses the new batch
  with :class:`PortalOverloadError`.  Shed counters are per portal.
* **Worker-pool dispatch.**  A small thread pool drains dirty portals.  Each
  portal is serviced by **at most one worker at a time** and its batches are
  ingested in arrival order — which is what makes the fleet's core contract
  hold: for every portal, :meth:`FleetService.finalize` returns output
  bit-identical to a standalone session fed the same batches.  Concurrency
  never changes results, only wall clock.
* **Fault isolation with recovery.**  A session that raises mid-ingest is
  first *classified*: a *transient* fault (``TransientFaultError``,
  ``TimeoutError``, ``ConnectionError`` — configurable via
  ``FleetConfig.transient_errors``) triggers seeded exponential-backoff
  retries, each of which **restarts the session from its last checkpoint**
  (:meth:`LocalizationSession.restore`), replays the journal of batches
  ingested since, and re-attempts the failed batch — restart-then-replay is
  the only retry that preserves bit-identity, because a half-ingested batch
  cannot simply be fed again.  Only when retries are exhausted (or the fault
  is fatal) is the portal *quarantined*: the error is captured, the queue
  discarded, and further ingest/finalize raise
  :class:`PortalQuarantinedError` carrying the original exception.  Sibling
  portals keep ingesting and finalize bit-identically either way.
* **Fault injection seam.**  ``open_portal(..., fault_spec=FaultSpec(...))``
  arms a portal with a seeded :class:`~repro.faults.FaultPipeline` applied
  to every batch *before* it is queued — the deterministic degraded-feed
  harness the robustness benchmark and chaos tests drive; the per-portal
  ``faults_injected`` counter reports what the pipeline actually did.
* **Lifecycle + stats.**  Portals are opened, finalized (drain, then the
  session's batch-exact :meth:`~LocalizationSession.finalize`), and evicted;
  :meth:`evict_idle` finalizes-and-evicts portals that stopped receiving
  traffic.  :meth:`stats` reports per-portal and fleet-wide counters
  (sessions by state, reads ingested, shed, queue depths, p95 provisional
  latency).

All sessions share one :class:`~repro.service.cache.ProfileCacheRegistry`,
so a facility's reference profile is built once no matter how many of its
portals open.
"""

from __future__ import annotations

import queue
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..core.localizer import STPPConfig
from ..faults import FaultPipeline, FaultSpec
from ..rfid.reading import ReadBatch
from .cache import DEFAULT_CACHE_CAPACITY, ProfileCacheRegistry
from .session import LocalizationSession, StreamingUpdate

SHED_POLICIES: tuple[str, ...] = ("block", "drop_oldest", "reject")
"""Queue-full behaviours a portal can be opened with."""

# Portal lifecycle states (PortalStats.state / FleetStats.sessions keys).
STATE_OPEN = "open"
STATE_FINALIZED = "finalized"
STATE_QUARANTINED = "quarantined"


class FleetError(RuntimeError):
    """Base class for fleet-service errors."""


class UnknownPortalError(FleetError):
    """The ``(facility_id, portal_id)`` key is not an open portal."""


class PortalStateError(FleetError):
    """An operation is illegal in the portal's current lifecycle state
    (ingest after finalize, double finalize, duplicate open)."""


class PortalOverloadError(FleetError):
    """A ``"reject"``-policy portal refused a batch because its queue is full."""


class PortalQuarantinedError(FleetError):
    """The portal's session raised; the original exception is ``__cause__``."""


class TransientFaultError(FleetError):
    """A session fault known to be recoverable (a glitching reader link, a
    momentary resource failure).  Raising it from a session's ingest path
    asks the fleet for a retry with restart-from-checkpoint instead of
    immediate quarantine; it is also the conventional type for injected
    transient faults in chaos tests."""


DEFAULT_TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (
    TransientFaultError,
    TimeoutError,
    ConnectionError,
)
"""Exception types the fleet treats as transient (retry before quarantine)."""


@dataclass(frozen=True, slots=True)
class PortalKey:
    """Routing key of one portal: a reader position within a facility."""

    facility_id: str
    portal_id: str

    def __str__(self) -> str:  # "library-north/shelf-07" in errors and logs
        return f"{self.facility_id}/{self.portal_id}"


@dataclass(frozen=True, slots=True)
class FleetConfig:
    """Fleet-wide defaults (per-portal knobs can override at ``open_portal``)."""

    queue_capacity: int = 64
    """Maximum queued (not yet ingested) batches per portal."""

    shed_policy: str = "block"
    """Queue-full behaviour: one of :data:`SHED_POLICIES`."""

    worker_count: int = 4
    """Dispatch threads draining portal queues."""

    idle_timeout_s: float = 300.0
    """Default idleness threshold for :meth:`FleetService.evict_idle`."""

    cache_capacity: int = DEFAULT_CACHE_CAPACITY
    """Capacity of the shared reference-profile cache (when fleet-built)."""

    max_latency_samples: int = 512
    """Provisional-latency samples retained per portal (ring buffer)."""

    block_poll_s: float = 0.1
    """Condition re-check period for blocked producers (bounds shutdown lag)."""

    session_factory: Callable[..., LocalizationSession] | None = None
    """Override how portal sessions are built (fault-injection seam for
    tests).  Called as ``factory(key=PortalKey, **session_kwargs)``; the
    default builds a plain :class:`LocalizationSession`.  Note that a session
    recovered by restart-from-checkpoint is always rebuilt as a base
    :class:`LocalizationSession` (see :meth:`LocalizationSession.restore`)."""

    max_retries: int = 2
    """Retry attempts (each a restart-from-checkpoint) granted to a transient
    ingest fault before the portal is quarantined.  0 disables recovery."""

    retry_backoff_s: float = 0.05
    """Base of the exponential retry backoff: attempt ``n`` sleeps
    ``retry_backoff_s * 2**(n-1)`` scaled by a seeded jitter in [0.5, 1.5)."""

    retry_seed: int = 0
    """Seed of the per-portal backoff-jitter RNG (mixed with the portal key),
    so chaos runs sleep reproducibly."""

    checkpoint_every: int = 16
    """Checkpoint cadence in successfully ingested batches.  Between
    checkpoints the portal journals its batches, so a restart replays at most
    this many; smaller values cheapen recovery, larger cheapen the happy
    path."""

    transient_errors: tuple[type[BaseException], ...] = DEFAULT_TRANSIENT_ERRORS
    """Exception types classified transient (retried); anything else raised
    by a session is fatal and quarantines the portal immediately."""

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, got {self.shed_policy!r}"
            )
        if self.worker_count < 1:
            raise ValueError(f"worker_count must be >= 1, got {self.worker_count}")
        if self.idle_timeout_s <= 0:
            raise ValueError(f"idle_timeout_s must be positive, got {self.idle_timeout_s}")
        if self.max_latency_samples < 1:
            raise ValueError(
                f"max_latency_samples must be >= 1, got {self.max_latency_samples}"
            )
        if self.block_poll_s <= 0:
            raise ValueError(f"block_poll_s must be positive, got {self.block_poll_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        for entry in self.transient_errors:
            if not (isinstance(entry, type) and issubclass(entry, BaseException)):
                raise ValueError(
                    f"transient_errors must hold exception types, got {entry!r}"
                )


@dataclass(frozen=True)
class PortalStats:
    """Counter snapshot of one portal (a point-in-time copy, never live)."""

    key: PortalKey
    state: str
    shed_policy: str
    queue_capacity: int
    queue_depth: int
    reads_enqueued: int
    reads_ingested: int
    batches_enqueued: int
    batches_ingested: int
    shed_batches: int
    shed_reads: int
    provisional_count: int
    provisional_latency_p95_s: float | None
    """p95 of the portal's provisional-refresh latencies; ``None`` (never a
    crash) while the portal has zero provisional samples."""
    idle_s: float
    retries: int = 0
    """Transient-fault retry attempts performed for this portal."""
    restarts: int = 0
    """Successful restart-from-checkpoint recoveries (session replaced)."""
    faults_injected: int = 0
    """Fault events applied by the portal's armed injection pipeline."""


@dataclass(frozen=True)
class FleetStats:
    """Fleet-wide roll-up plus the per-portal snapshots it was built from."""

    sessions: Mapping[str, int]
    """Portal count per lifecycle state (open / finalized / quarantined)."""

    evicted: int
    """Portals evicted over the fleet's lifetime (no longer routable)."""

    reads_ingested: int
    shed_reads: int
    queue_depth: int
    provisional_latency_p95_s: float | None
    retries: int = 0
    restarts: int = 0
    faults_injected: int = 0
    portals: Mapping[PortalKey, PortalStats] = field(default_factory=dict)


class _Portal:
    """Internal per-portal state; all mutation happens under ``cond``'s lock
    except session calls, which serialize on ``session_lock``."""

    __slots__ = (
        "key", "session", "cond", "session_lock", "queue", "state",
        "shed_policy", "queue_capacity", "error", "scheduled", "in_flight",
        "reads_enqueued", "reads_ingested", "batches_enqueued",
        "batches_ingested", "shed_batches", "shed_reads", "latencies",
        "provisional_count", "last_activity", "final_update",
        "session_kwargs", "checkpoint", "journal", "since_checkpoint",
        "retries", "restarts", "fault_pipeline", "retry_rng",
    )

    def __init__(
        self,
        key: PortalKey,
        session: LocalizationSession,
        shed_policy: str,
        queue_capacity: int,
        max_latency_samples: int,
        session_kwargs: dict[str, Any] | None = None,
        fault_pipeline: FaultPipeline | None = None,
        retry_seed: int = 0,
    ) -> None:
        self.key = key
        self.session = session
        self.cond = threading.Condition()
        self.session_lock = threading.Lock()
        self.queue: deque[ReadBatch] = deque()
        self.state = STATE_OPEN
        self.shed_policy = shed_policy
        self.queue_capacity = queue_capacity
        self.error: BaseException | None = None
        self.scheduled = False   # key is in (or headed to) the dispatch queue
        self.in_flight = False   # a worker is mid-ingest on a popped batch
        self.reads_enqueued = 0
        self.reads_ingested = 0
        self.batches_enqueued = 0
        self.batches_ingested = 0
        self.shed_batches = 0
        self.shed_reads = 0
        self.latencies: deque[float] = deque(maxlen=max_latency_samples)
        self.provisional_count = 0
        self.last_activity = time.monotonic()
        self.final_update: StreamingUpdate | None = None
        self.session_kwargs = dict(session_kwargs or {})
        self.checkpoint: bytes | None = None  # last durable session state
        self.journal: list[ReadBatch] = []    # ingested since the checkpoint
        self.since_checkpoint = 0
        self.retries = 0
        self.restarts = 0
        self.fault_pipeline = fault_pipeline
        # Seeded per portal (key-mixed) so backoff jitter is reproducible.
        self.retry_rng = np.random.default_rng(
            [retry_seed, zlib.crc32(str(key).encode())]
        )

    def snapshot(self, now: float) -> PortalStats:
        latencies = tuple(self.latencies)
        p95 = (
            float(np.percentile(np.asarray(latencies), 95)) if latencies else None
        )
        return PortalStats(
            key=self.key,
            state=self.state,
            shed_policy=self.shed_policy,
            queue_capacity=self.queue_capacity,
            queue_depth=len(self.queue),
            reads_enqueued=self.reads_enqueued,
            reads_ingested=self.reads_ingested,
            batches_enqueued=self.batches_enqueued,
            batches_ingested=self.batches_ingested,
            shed_batches=self.shed_batches,
            shed_reads=self.shed_reads,
            provisional_count=self.provisional_count,
            provisional_latency_p95_s=p95,
            idle_s=max(0.0, now - self.last_activity),
            retries=self.retries,
            restarts=self.restarts,
            faults_injected=(
                self.fault_pipeline.faults_injected if self.fault_pipeline else 0
            ),
        )


class FleetService:
    """Concurrent multiplexer of streaming localization sessions.

    Open portals, route read batches to them, finalize for batch-exact
    results::

        fleet = FleetService()
        key = fleet.open_portal("library-north", "shelf-07",
                                expected_tag_ids=tags.ids(), channel_index=6)
        for batch in reader_stream:
            fleet.ingest(key, batch)          # queued; workers drain it
        final = fleet.finalize(key)           # == standalone session's finalize()
        fleet.evict(key)

    The service is a context manager; leaving the ``with`` block (or calling
    :meth:`close`) stops the worker pool.  Thread-safe throughout: producers,
    workers, and control calls may run concurrently.
    """

    def __init__(
        self,
        config: FleetConfig | None = None,
        profile_cache: ProfileCacheRegistry | None = None,
    ) -> None:
        self.config = config if config is not None else FleetConfig()
        self.profile_cache = (
            profile_cache
            if profile_cache is not None
            else ProfileCacheRegistry(self.config.cache_capacity)
        )
        self._lock = threading.Lock()
        self._portals: dict[PortalKey, _Portal] = {}
        self._evicted = 0
        self._closed = False
        self._resume = threading.Event()
        self._resume.set()
        self._dispatch: "queue.SimpleQueue[PortalKey | None]" = queue.SimpleQueue()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"fleet-worker-{i}", daemon=True
            )
            for i in range(self.config.worker_count)
        ]
        for worker in self._workers:
            worker.start()

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def open_portal(
        self,
        facility_id: str,
        portal_id: str,
        config: STPPConfig | None = None,
        expected_tag_ids: "list[str] | None" = None,
        pivot_tag_id: str | None = None,
        channel_index: int | None = None,
        shed_policy: str | None = None,
        queue_capacity: int | None = None,
        fault_spec: FaultSpec | None = None,
        out_of_order: str = "reorder",
    ) -> PortalKey:
        """Open a session for one portal and return its routing key.

        Per-portal ``shed_policy`` / ``queue_capacity`` override the fleet
        defaults.  Re-opening a live key raises :class:`PortalStateError`
        (evict the old portal first); an evicted key may be reused.

        ``fault_spec`` arms the portal with a seeded fault-injection pipeline
        (:meth:`FaultSpec.build`, seed-offset mixed from the portal key):
        every batch routed to this portal is degraded *before* it is queued.
        ``None`` (the default) injects nothing and leaves the ingest path
        byte-for-byte untouched.  ``out_of_order`` selects the session's
        collector policy (``"dedupe"`` drops exact duplicate reads).
        """
        self._check_running()
        policy = shed_policy if shed_policy is not None else self.config.shed_policy
        if policy not in SHED_POLICIES:
            raise ValueError(f"shed_policy must be one of {SHED_POLICIES}, got {policy!r}")
        capacity = (
            queue_capacity if queue_capacity is not None else self.config.queue_capacity
        )
        if capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {capacity}")
        key = PortalKey(str(facility_id), str(portal_id))
        session_kwargs: dict[str, Any] = dict(
            config=config,
            expected_tag_ids=expected_tag_ids,
            pivot_tag_id=pivot_tag_id,
            channel_index=channel_index,
            out_of_order=out_of_order,
            profile_cache=self.profile_cache,
            facility_id=key.facility_id,
        )
        factory = self.config.session_factory
        session = (
            LocalizationSession(**session_kwargs)
            if factory is None
            else factory(key=key, **session_kwargs)
        )
        pipeline = (
            None
            if fault_spec is None
            else fault_spec.build(seed_offset=zlib.crc32(str(key).encode()))
        )
        portal = _Portal(
            key=key,
            session=session,
            shed_policy=policy,
            queue_capacity=capacity,
            max_latency_samples=self.config.max_latency_samples,
            session_kwargs=session_kwargs,
            fault_pipeline=pipeline,
            retry_seed=self.config.retry_seed,
        )
        with self._lock:
            if key in self._portals:
                raise PortalStateError(f"portal {key} is already open")
            self._portals[key] = portal
        return key

    def ingest(self, key: PortalKey, batch: ReadBatch) -> None:
        """Route one read batch to its portal's queue.

        If the portal was opened with a ``fault_spec``, the batch first
        passes through the portal's fault pipeline and only the surviving
        (possibly degraded) batches are queued — ``reads_enqueued`` counts
        what was actually accepted, and the ``faults_injected`` counter in
        the portal's stats accounts for the difference.  Fault-free portals
        take a byte-identical fast path.

        Queue-full behaviour follows the portal's shed policy.  Raises
        :class:`PortalStateError` once the portal is finalized,
        :class:`PortalQuarantinedError` once it is quarantined, and
        :class:`UnknownPortalError` for unknown/evicted keys.
        """
        portal = self._portal(key)
        if portal.fault_pipeline is None:
            self._enqueue(portal, batch)
            return
        with portal.cond:
            self._check_ingestible(portal)
            # A fully-dropped batch still counts as reader contact.
            portal.last_activity = time.monotonic()
        for degraded in portal.fault_pipeline.push(batch):
            self._enqueue(portal, degraded)

    def _enqueue(self, portal: _Portal, batch: ReadBatch) -> None:
        """Queue one (post-fault) batch under the portal's shed policy."""
        with portal.cond:
            self._check_ingestible(portal)
            if len(portal.queue) >= portal.queue_capacity:
                if portal.shed_policy == "reject":
                    portal.shed_batches += 1
                    portal.shed_reads += len(batch)
                    raise PortalOverloadError(
                        f"portal {portal.key} queue full "
                        f"({portal.queue_capacity} batches); batch rejected"
                    )
                if portal.shed_policy == "drop_oldest":
                    while len(portal.queue) >= portal.queue_capacity:
                        dropped = portal.queue.popleft()
                        portal.shed_batches += 1
                        portal.shed_reads += len(dropped)
                else:  # block: backpressure the producer until space frees
                    while (
                        len(portal.queue) >= portal.queue_capacity
                        and portal.state == STATE_OPEN
                        and not self._closed
                    ):
                        portal.cond.wait(self.config.block_poll_s)
                    if self._closed:
                        raise FleetError("fleet service is closed")
                    self._check_ingestible(portal)
            portal.queue.append(batch)
            portal.reads_enqueued += len(batch)
            portal.batches_enqueued += 1
            portal.last_activity = time.monotonic()
            schedule = not portal.scheduled
            if schedule:
                portal.scheduled = True
        if schedule:
            self._dispatch.put(portal.key)

    def provisional(self, key: PortalKey) -> StreamingUpdate:
        """Compute a provisional ordering over what the portal ingested so far.

        Runs in the caller's thread (serialized with worker ingest on the
        session lock); the update's latency is recorded in the portal's
        p95 window.  Batches still queued are *not* reflected — this is the
        low-latency "what do we know now" call, not a drain.
        """
        portal = self._portal(key)
        with portal.cond:
            self._check_ingestible(portal)
        try:
            with portal.session_lock:
                update = portal.session.provisional()
        except BaseException as exc:
            self._quarantine(portal, exc)
            raise PortalQuarantinedError(
                f"portal {key} quarantined: provisional ordering failed"
            ) from exc
        with portal.cond:
            portal.latencies.append(update.elapsed_s)
            portal.provisional_count += 1
        return update

    def finalize(self, key: PortalKey) -> StreamingUpdate:
        """Drain the portal's queue, then return the batch-exact final update.

        Blocks until every accepted batch has been ingested (workers drain
        the queue; the caller waits).  The result is bit-identical to a
        standalone :class:`LocalizationSession` fed the same batches — the
        fleet contract pinned by ``tests/test_fleet_service.py``.  A second
        finalize raises :class:`PortalStateError`; a portal quarantined
        mid-drain raises :class:`PortalQuarantinedError`.
        """
        portal = self._portal(key)
        if portal.fault_pipeline is not None:
            with portal.cond:
                flushable = portal.state == STATE_OPEN
            if flushable:
                # End of stream: release anything injectors still buffer.
                for released in portal.fault_pipeline.flush():
                    self._enqueue(portal, released)
        with portal.cond:
            if portal.state == STATE_FINALIZED:
                raise PortalStateError(f"portal {key} is already finalized")
            if portal.state == STATE_QUARANTINED:
                raise PortalQuarantinedError(
                    f"portal {key} is quarantined"
                ) from portal.error
            while portal.queue or portal.in_flight or portal.scheduled:
                if self._closed:
                    raise FleetError("fleet service is closed")
                portal.cond.wait(self.config.block_poll_s)
                if portal.state == STATE_QUARANTINED:
                    raise PortalQuarantinedError(
                        f"portal {key} quarantined while draining"
                    ) from portal.error
        try:
            with portal.session_lock:
                update = portal.session.finalize()
        except BaseException as exc:
            self._quarantine(portal, exc)
            raise PortalQuarantinedError(
                f"portal {key} quarantined: finalize failed"
            ) from exc
        with portal.cond:
            portal.state = STATE_FINALIZED
            portal.final_update = update
            portal.last_activity = time.monotonic()
            portal.cond.notify_all()
        return update

    def evict(self, key: PortalKey, force: bool = False) -> None:
        """Remove a portal from the routing table.

        Only finalized or quarantined portals are evictable unless ``force``
        — evicting an open portal silently discards its queued reads, which
        must be an explicit decision.
        """
        with self._lock:
            portal = self._portals.get(key)
            if portal is None:
                raise UnknownPortalError(f"no open portal {key}")
            with portal.cond:
                if portal.state == STATE_OPEN and not force:
                    raise PortalStateError(
                        f"portal {key} is still open; finalize it or pass force=True"
                    )
                portal.queue.clear()
                portal.cond.notify_all()
            del self._portals[key]
            self._evicted += 1

    def evict_idle(
        self, idle_timeout_s: float | None = None
    ) -> dict[PortalKey, StreamingUpdate | None]:
        """Finalize-and-evict portals idle longer than the timeout.

        Returns the evicted keys mapped to their final updates (``None`` for
        quarantined portals, whose sessions have no trustworthy result).
        Open portals are finalized first so their converged ordering is not
        lost; a portal with queued or in-flight work is never considered
        idle.
        """
        timeout = (
            idle_timeout_s if idle_timeout_s is not None else self.config.idle_timeout_s
        )
        now = time.monotonic()
        with self._lock:
            candidates = list(self._portals.values())
        evicted: dict[PortalKey, StreamingUpdate | None] = {}
        for portal in candidates:
            with portal.cond:
                busy = portal.queue or portal.in_flight or portal.scheduled
                idle = (now - portal.last_activity) >= timeout
                state = portal.state
            if busy or not idle:
                continue
            if state == STATE_OPEN:
                try:
                    evicted[portal.key] = self.finalize(portal.key)
                except FleetError:
                    evicted[portal.key] = None
            elif state == STATE_FINALIZED:
                evicted[portal.key] = portal.final_update
            else:
                evicted[portal.key] = None
            try:
                self.evict(portal.key)
            except UnknownPortalError:  # concurrently evicted by another caller
                evicted.pop(portal.key, None)
        return evicted

    def close(self) -> None:
        """Stop the worker pool; idempotent.  Queued-but-uningested batches
        are abandoned (finalize portals first for batch-exact results)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            portals = list(self._portals.values())
        self._resume.set()
        for portal in portals:  # release blocked producers and finalize waiters
            with portal.cond:
                portal.cond.notify_all()
        for _ in self._workers:
            self._dispatch.put(None)
        for worker in self._workers:
            worker.join(timeout=5.0)

    # -- observability -----------------------------------------------------

    def portal_keys(self) -> tuple[PortalKey, ...]:
        """Currently routable portal keys."""
        with self._lock:
            return tuple(self._portals)

    def portal_stats(self, key: PortalKey) -> PortalStats:
        """Counter snapshot of one portal."""
        portal = self._portal(key)
        now = time.monotonic()
        with portal.cond:
            return portal.snapshot(now)

    def portal_error(self, key: PortalKey) -> BaseException | None:
        """The exception that quarantined the portal (None while healthy)."""
        portal = self._portal(key)
        with portal.cond:
            return portal.error

    def stats(self) -> FleetStats:
        """Fleet-wide roll-up across every routable portal."""
        with self._lock:
            portals = list(self._portals.values())
            evicted = self._evicted
        now = time.monotonic()
        snapshots: dict[PortalKey, PortalStats] = {}
        latencies: list[float] = []
        sessions = {STATE_OPEN: 0, STATE_FINALIZED: 0, STATE_QUARANTINED: 0}
        for portal in portals:
            with portal.cond:
                snapshots[portal.key] = portal.snapshot(now)
                latencies.extend(portal.latencies)
        for snap in snapshots.values():
            sessions[snap.state] += 1
        p95 = (
            float(np.percentile(np.asarray(latencies), 95)) if latencies else None
        )
        return FleetStats(
            sessions=sessions,
            evicted=evicted,
            reads_ingested=sum(s.reads_ingested for s in snapshots.values()),
            shed_reads=sum(s.shed_reads for s in snapshots.values()),
            queue_depth=sum(s.queue_depth for s in snapshots.values()),
            provisional_latency_p95_s=p95,
            retries=sum(s.retries for s in snapshots.values()),
            restarts=sum(s.restarts for s in snapshots.values()),
            faults_injected=sum(s.faults_injected for s in snapshots.values()),
            portals=snapshots,
        )

    # -- test/maintenance seams --------------------------------------------

    def pause(self) -> None:
        """Suspend the worker pool (queues fill; shed policies engage).

        A maintenance/test seam: with workers paused, queue-full behaviour is
        deterministic.  Batches already popped finish ingesting.
        """
        self._resume.clear()

    def resume(self) -> None:
        """Resume a paused worker pool."""
        self._resume.set()

    # -- internals ---------------------------------------------------------

    def _check_running(self) -> None:
        if self._closed:
            raise FleetError("fleet service is closed")

    @staticmethod
    def _check_ingestible(portal: _Portal) -> None:
        # Callers hold portal.cond.
        if portal.state == STATE_FINALIZED:
            raise PortalStateError(
                f"portal {portal.key} is finalized; no further ingestion"
            )
        if portal.state == STATE_QUARANTINED:
            raise PortalQuarantinedError(
                f"portal {portal.key} is quarantined"
            ) from portal.error

    def _portal(self, key: PortalKey) -> _Portal:
        with self._lock:
            portal = self._portals.get(key)
        if portal is None:
            raise UnknownPortalError(f"no open portal {key}")
        return portal

    def _quarantine(self, portal: _Portal, error: BaseException) -> None:
        with portal.cond:
            if portal.state != STATE_QUARANTINED:
                portal.state = STATE_QUARANTINED
                portal.error = error
            portal.queue.clear()
            portal.in_flight = False
            portal.cond.notify_all()

    def _worker_loop(self) -> None:
        while True:
            key = self._dispatch.get()
            if key is None:
                return
            self._resume.wait()
            with self._lock:
                portal = self._portals.get(key)
            if portal is not None:
                self._service_portal(portal)

    def _service_portal(self, portal: _Portal) -> None:
        """Drain one portal's queue in FIFO order.

        The ``scheduled`` flag guarantees at most one worker runs this per
        portal at a time, so batches are ingested exactly in arrival order —
        the property behind the fleet's bit-identity contract.
        """
        while True:
            if not self._resume.is_set():
                # Paused mid-drain: park the key back in the dispatch queue
                # (scheduled stays True, so producers don't double-enqueue);
                # the next worker to pick it up blocks on the resume gate.
                self._dispatch.put(portal.key)
                return
            with portal.cond:
                if portal.state == STATE_QUARANTINED or not portal.queue:
                    portal.scheduled = False
                    portal.cond.notify_all()
                    return
                batch = portal.queue.popleft()
                portal.in_flight = True
                portal.cond.notify_all()  # queue space freed: wake producers
            try:
                with portal.session_lock:
                    portal.session.ingest_batch(batch)
            except BaseException as exc:
                if not self._recover(portal, batch, exc):
                    return
            # Journal + checkpoint cadence: only this worker touches these
            # (the ``scheduled`` flag serializes draining per portal).
            portal.journal.append(batch)
            portal.since_checkpoint += 1
            if portal.since_checkpoint >= self.config.checkpoint_every:
                try:
                    with portal.session_lock:
                        portal.checkpoint = portal.session.checkpoint()
                except BaseException as exc:
                    self._quarantine(portal, exc)
                    return
                portal.journal.clear()
                portal.since_checkpoint = 0
            with portal.cond:
                portal.reads_ingested += len(batch)
                portal.batches_ingested += 1
                portal.in_flight = False
                portal.last_activity = time.monotonic()
                portal.cond.notify_all()

    def _recover(
        self, portal: _Portal, batch: ReadBatch, exc: BaseException
    ) -> bool:
        """Attempt transient-fault recovery; True iff the batch was ingested.

        Exceptions listed in ``config.transient_errors`` are retried up to
        ``max_retries`` times with seeded exponential backoff; anything else
        is fatal and quarantines immediately.  A failed ``ingest_batch`` may
        have left partial per-tag appends behind, so a retry never re-feeds
        the same session: each attempt rebuilds the session from the last
        checkpoint (or from scratch), replays the journal of batches ingested
        since, and re-attempts the failed batch — the only retry shape that
        preserves the fleet's bit-identity contract.
        """
        if not isinstance(exc, self.config.transient_errors):
            self._quarantine(portal, exc)
            return False
        error = exc
        for attempt in range(1, self.config.max_retries + 1):
            with portal.cond:
                portal.retries += 1
            delay = (
                self.config.retry_backoff_s
                * (2.0 ** (attempt - 1))
                * float(portal.retry_rng.uniform(0.5, 1.5))
            )
            if delay > 0.0:
                time.sleep(delay)
            try:
                session = self._restart_session(portal)
                session.ingest_batch(batch)
            except BaseException as retry_exc:
                error = retry_exc
                if isinstance(retry_exc, self.config.transient_errors):
                    continue
                break
            with portal.session_lock:
                portal.session = session
            with portal.cond:
                portal.restarts += 1
            return True
        self._quarantine(portal, error)
        return False

    def _restart_session(self, portal: _Portal) -> LocalizationSession:
        """Rebuild the portal's session state up to the last ingested batch.

        Restores from the latest checkpoint when one exists, otherwise
        constructs a fresh base session, then replays the journal.  The
        result is always a plain :class:`LocalizationSession` — factory
        wrappers do not survive a restart, which is exactly what clears
        faults injected by a wrapper.
        """
        if portal.checkpoint is not None:
            session = LocalizationSession.restore(
                portal.checkpoint, profile_cache=self.profile_cache
            )
        else:
            session = LocalizationSession(**portal.session_kwargs)
        for replay in portal.journal:
            session.ingest_batch(replay)
        return session
