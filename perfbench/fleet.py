"""The portal workloads: ``portal_cold`` and ``portal_warm``.

Both replay a small library of pre-simulated library, airport and warehouse
streams in batches of :data:`BATCH_READS` reads, in a closed loop.

``portal_cold`` drives one :class:`~repro.service.FleetService`
(``worker_count`` = the host's CPU count, every other setting at its
default) with waves of :data:`WAVE_PORTALS` portals.  A wave opens its
portals, enqueues their batches interleaved, then finalizes them in turn
while the fleet's workers drain the queues, so every close runs the full
streaming DTW once.

``portal_warm`` is a closed loop over standalone
:class:`~repro.service.LocalizationSession` objects, one per replayed stream.
It asks for a provisional ordering after every other batch and then
finalizes, so the provisionals extend the resumable DTW prefix and the
finalize reuses it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core import BatchLocalizer
from repro.service import (
    FleetConfig,
    FleetService,
    LocalizationSession,
    ProfileCacheRegistry,
)
from repro.scenarios import SEED_STRIDE, ScenarioRegistry, builders, load_builtin_specs
from repro.simulation.collector import profiles_from_read_log

from closed import Phase, closed_loop, percentile
from tracer import Tracer

TEMPLATES = ("library", "airport", "warehouse")
STREAMS_PER_TEMPLATE = 6
BATCH_READS = 64
"""Reads per ingested batch, about a third of a second of reader time."""
WAVE_PORTALS = 3
"""Portals open on the fleet at once in ``portal_cold``."""


@dataclass
class Stream:
    template: str
    batches: list
    reads_through: np.ndarray
    """Reads in batches ``0..i`` for each batch ``i``."""
    expected_ids: list[str]
    log: object


def simulate_streams(seed: int, lap: Callable[[], None] = lambda: None) -> dict:
    """The portal workloads' inputs: :data:`STREAMS_PER_TEMPLATE` sweeps of
    each template, repetition ``rep`` at the leaderboard's seed for it.
    ``lap`` is called after each sweep."""
    registry = ScenarioRegistry()
    registry.register_all(load_builtin_specs())
    streams = []
    for template in TEMPLATES:
        spec = registry.get(template)
        index = registry.index_of(template)
        for rep in range(STREAMS_PER_TEMPLATE):
            experiment = builders.scenario_experiment(rep, seed + SEED_STRIDE * index + rep, spec)
            log = experiment.read_log
            batches = list(log.iter_batches(BATCH_READS))
            streams.append(
                Stream(
                    template=template,
                    batches=batches,
                    reads_through=np.cumsum([len(b) for b in batches]),
                    expected_ids=list(experiment.target_ids),
                    log=log,
                )
            )
            lap()
    return {"seed": seed, "streams": streams}


def shuffled(streams: list, seed: int):
    """Stream indices in passes: each pass a seeded permutation of all."""
    rng = np.random.default_rng([seed, len(streams)])
    while True:
        yield from rng.permutation(len(streams)).tolist()


def final_of(update) -> tuple:
    """What an ordering is checked on: X and Y orderings and reads ingested."""
    result = update.result
    return (result.x_ordering.ordered_ids, result.y_ordering.ordered_ids, update.reads_ingested)


def ordering_problem(stream: Stream, batches: int, output: tuple) -> str | None:
    """An ordering must rank the stream's tags and cover the reads of its
    first ``batches`` batches."""
    xs, ys, reads = output
    expected = set(stream.expected_ids)
    for axis, ids in (("x", xs), ("y", ys)):
        if len(set(ids)) != len(ids) or not set(ids) <= expected:
            return f"{axis}-ordering is not a ranking of the portal's tags"
    due = int(stream.reads_through[batches - 1])
    if reads != due:
        return f"the ordering covers {reads} reads, {due} were due"
    return None


def expected_final(stream: Stream) -> tuple | None:
    """A standalone session's finalize on ``stream``, or ``None`` if it
    disagrees with ``BatchLocalizer`` on the stream's profiles."""
    session = LocalizationSession(expected_tag_ids=stream.expected_ids)
    for batch in stream.batches:
        session.ingest_batch(batch)
    standalone = final_of(session.finalize())
    batched = BatchLocalizer().localize(
        profiles_from_read_log(stream.log), expected_tag_ids=stream.expected_ids
    )
    agrees = standalone == (
        batched.x_ordering.ordered_ids,
        batched.y_ordering.ordered_ids,
        len(stream.log),
    )
    return standalone if agrees else None


def check_finals(phase: Phase, finals, corrupt: bool) -> None:
    """Each ``(label, stream, final)`` must match :func:`expected_final`."""
    finals = list(finals)
    if corrupt and finals:
        label, stream, (xs, ys, reads) = finals[0]
        finals[0] = (label, stream, (xs[1:2] + xs[:1] + xs[2:], ys, reads))
    expected: dict[int, tuple | None] = {}
    for label, stream, final in finals:
        if id(stream) not in expected:
            expected[id(stream)] = expected_final(stream)
        if final != expected[id(stream)]:
            phase.failed = min(phase.attempted, phase.failed + 1)
            phase.notes.append(f"{label}: finalize differs from the standalone session")


def host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# --------------------------------------------------------------------------
# portal_cold
# --------------------------------------------------------------------------


class PortalFleet:
    """One operation = one wave of :data:`WAVE_PORTALS` cold portals on the
    shared fleet.

    The wave opens a portal per stream (the next streams of a seeded
    shuffle), enqueues the streams' batches interleaved, as portals that read
    at once would, then finalizes each portal in turn and evicts it.  The
    fleet's workers ingest while the caller enqueues and finalizes, and each
    finalize first waits for its portal's queue to drain.
    """

    name = "portal_cold"
    finalize_span = "service.finalize_cold"

    def setup(self, seed: int, lap: Callable[[], None] = lambda: None) -> dict:
        return simulate_streams(seed, lap)

    def measure(self, inputs: dict, seconds: float, tracer: Tracer | None):
        streams = inputs["streams"]
        order = shuffled(streams, inputs["seed"])
        fleet = FleetService(FleetConfig(worker_count=host_cpus()))
        closes_ms: list[float] = []
        depth_max = [0]
        waves: list[list[tuple[str, Stream]]] = []

        def prepare(index: int) -> list[tuple[str, Stream]]:
            waves.append(
                [(f"portal-{index}-{slot}", streams[next(order)]) for slot in range(WAVE_PORTALS)]
            )
            return waves[index]

        def operate(wave) -> list[tuple]:
            keys = [
                fleet.open_portal(stream.template, name, expected_tag_ids=stream.expected_ids)
                for name, stream in wave
            ]
            for batch in range(max(len(stream.batches) for _, stream in wave)):
                for key, (_, stream) in zip(keys, wave):
                    if batch < len(stream.batches):
                        fleet.ingest(key, stream.batches[batch])
            if tracer is not None:
                depth_max[0] = max(depth_max[0], fleet.stats().queue_depth)
            finals = []
            for key in keys:
                tick = time.perf_counter()
                finals.append(final_of(fleet.finalize(key)))
                closes_ms.append((time.perf_counter() - tick) * 1e3)
                stats = fleet.portal_stats(key)
                if stats.shed_batches or stats.state != "finalized":
                    raise RuntimeError(
                        f"portal {key} ended {stats.state}, {stats.shed_batches} batches shed"
                    )
                fleet.evict(key)
            return finals

        def check(index: int, wave, finals) -> str | None:
            for (name, stream), final in zip(wave, finals):
                problem = ordering_problem(stream, len(stream.batches), final)
                if problem is not None:
                    return f"op {index}, {name}: {problem}"
            return None

        try:
            phase, outputs = closed_loop(seconds, prepare, operate, check, tracer)
        finally:
            fleet.close()
        # Waves differ in cost with their mix of templates; a pass over the
        # shuffle has the same mix at every seed.
        phase.pass_size = len(streams) // WAVE_PORTALS
        phase.extra.update(
            {
                "service.queue_depth_max": float(depth_max[0]),
                "loadgen.close_p50_ms": percentile(closes_ms, 50),
                "loadgen.close_p90_ms": percentile(closes_ms, 90),
            }
        )
        return phase, list(zip(waves, outputs))

    def verify(self, inputs: dict, phase: Phase, done: list, corrupt=False) -> None:
        """Every fleet finalize must equal a standalone session fed the same
        batches, and ``BatchLocalizer`` on the stream's profiles."""
        check_finals(
            phase,
            (
                (f"op {index}, {name}", stream, final)
                for index, (wave, finals) in enumerate(done)
                if finals is not None
                for (name, stream), final in zip(wave, finals)
            ),
            corrupt,
        )


# --------------------------------------------------------------------------
# portal_warm
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    portal: int
    stream: Stream
    batches: range
    """The batches this step ingests before it asks for an ordering."""

    @property
    def final(self) -> bool:
        return self.batches.stop == len(self.stream.batches)


def portal_steps(portal: int, stream: Stream) -> list[Step]:
    """Two batches and a provisional at a time; the rest and the finalize last."""
    count = len(stream.batches)
    asks = list(range(2, count, 2)) + [count]
    return [
        Step(portal, stream, range(begin, end)) for begin, end in zip([0] + asks[:-1], asks)
    ]


class PortalWarm:
    """One operation = one step of a watched portal.

    A step ingests the batches that fell due since the portal's previous
    request into the portal's standalone session, then asks for an ordering:
    a provisional after every other batch, the finalize after the last one.
    Portals replay the streams one after another in a seeded shuffle.  Each
    opens a new session, untimed, and the sessions share one profile cache,
    as a fleet's do.
    """

    name = "portal_warm"
    finalize_span = "service.finalize_warm"

    def setup(self, seed: int, lap: Callable[[], None] = lambda: None) -> dict:
        return simulate_streams(seed, lap)

    def measure(self, inputs: dict, seconds: float, tracer: Tracer | None):
        streams = inputs["streams"]
        order = shuffled(streams, inputs["seed"])
        cache = ProfileCacheRegistry()
        steps: list[Step] = []
        session: list[LocalizationSession | None] = [None]

        def prepare(index: int):
            while index >= len(steps):
                portal = steps[-1].portal + 1 if steps else 0
                steps.extend(portal_steps(portal, streams[next(order)]))
            step = steps[index]
            if step.batches.start == 0:
                session[0] = LocalizationSession(
                    expected_tag_ids=step.stream.expected_ids,
                    profile_cache=cache,
                    facility_id=step.stream.template,
                )
            return step, session[0]

        def operate(item) -> tuple:
            step, open_session = item
            for batch in step.batches:
                open_session.ingest_batch(step.stream.batches[batch])
            if step.final:
                return final_of(open_session.finalize())
            return final_of(open_session.provisional())

        phase, outputs = closed_loop(seconds, prepare, operate, self.check, tracer)
        done = list(zip(steps, outputs))
        closes_ms = [ms for ms, (step, _) in zip(phase.latencies_ms, done) if step.final]
        provisional_ms = [ms for ms, (step, _) in zip(phase.latencies_ms, done) if not step.final]
        phase.extra.update(
            {
                "loadgen.close_p50_ms": percentile(closes_ms, 50),
                "loadgen.close_p90_ms": percentile(closes_ms, 90),
                "loadgen.provisional_p50_ms": percentile(provisional_ms, 50),
                "loadgen.provisional_p95_ms": percentile(provisional_ms, 95),
            }
        )
        return phase, done

    @staticmethod
    def check(index: int, item, output: tuple) -> str | None:
        """An ordering must rank the portal's tags and cover every read due."""
        step, _ = item
        problem = ordering_problem(step.stream, step.batches.stop, output)
        return None if problem is None else f"op {index}: {problem}"

    def verify(self, inputs: dict, phase: Phase, done: list, corrupt=False) -> None:
        """Every finalize must equal a standalone session that asked for no
        provisional, and ``BatchLocalizer`` on the stream's profiles."""
        check_finals(
            phase,
            (
                (f"portal {step.portal}", step.stream, output)
                for step, output in done
                if step.final and output is not None
            ),
            corrupt,
        )
