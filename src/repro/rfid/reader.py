"""COTS RFID reader simulator.

:class:`RFIDReader` reproduces, in simulation, what an ImpinJ R420-class
reader does during a sweep: it runs back-to-back inventory rounds (frame
slotted ALOHA by default), and for every successful slot it attempts to decode
the reply of the winning tag over the backscatter channel.  Each decoded reply
becomes a :class:`~repro.rfid.reading.TagRead` carrying timestamp, phase,
RSSI, and channel — the exact observables the paper's algorithms consume.

The reader is agnostic to *why* geometry changes over time: callers provide
callables mapping time to antenna position and to tag positions, so the same
reader serves the antenna-moving case (librarian pushing a cart) and the
tag-moving case (baggage on a conveyor belt).

A sweep runs in two phases: a scheduling pass runs the one sequential round
loop (zone membership, MAC slotting, per-event noise draws) and emits the
whole sweep as a structure-of-arrays
:class:`~repro.rfid.event_table.SweepEventTable`; a physics pass then
evaluates every round's events in one fused NumPy call
(:meth:`RFIDReader._sweep_physics`).  Because the dropout draw is conditional
on deep multipath fades, the scheduler draws optimistically and the physics
pass verifies.  After a mis-guess the same loop resumes from the first
mis-guessed round in verified blocks of :data:`VERIFY_BLOCK_ROUNDS` rounds:
each block's events are evaluated with the same helper before the schedule
runs past it, and a closing physics pass confirms the whole table — see
:meth:`RFIDReader.sweep_events`.

Zone membership is not re-evaluated from geometry every round.  After the
first checkpoint block, the scheduler reads it off a **membership calendar**:
one batched evaluation samples every tag's exact membership about once per
elapsed round, over a look-ahead as long as the sweep so far, and the
calendar is extended whenever the round clock runs past its end.  Between
two samples, a tag with the same membership at both is predicted to keep it;
a tag whose membership differs is evaluated exactly at the round's clock.
Before any physics runs on scheduled rounds (the optimistic pass's whole
table, or a verified block) one batched exact evaluation verifies every
predicted (round, tag) cell among them; a wrong cell is demoted to exact
evaluation and the schedule resumes from that round's checkpoint, as for a
deep-fade mis-guess.  ``last_sweep_stats["zone_corrections"]`` counts these
membership corrections.

The read log is **bit-identical** to the read-at-a-time reference loop kept
in ``tests/oracles/scalar_sweep.py``, which consumes the random generator in
the same order (one ``rng.integers`` per round, then the fixed per-event
noise-draw sequence) — pinned by ``tests/test_fused_sweep.py``.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..motion.scenarios import StaticTagPositions
from ..rf.antenna import ReadingZone
from ..rf.channel import BackscatterChannel, SweepPhysics
from ..rf.geometry import Point3D, euclidean_distances
from ..rf.phase_model import DeviceOffsets
from .aloha import FrameSlottedAloha
from .coupling import NeighborGrid
from .event_table import SweepEventTable
from .reading import ReadLog
from .tag import TagCollection, TagModel

AntennaPositionFn = Callable[[float], Point3D]
"""Maps time (seconds) to the antenna position."""

TagPositionFn = Callable[[str, float], Point3D]
"""Maps (tag id, time in seconds) to that tag's position."""

_CHUNK_CELLS = 262_144
"""Cell budget (rows x population) per chunk of the dense evaluations: the
moving-tag coupling filter and the zone-calendar verification."""

_PROVIDER_CONTRACT = ("is_static", "rows_for", "positions_at", "positions_paired")
"""What a tag-position provider implements (see :mod:`repro.motion.scenarios`)."""


@dataclass(slots=True)
class _SweepSetup:
    """Per-sweep invariants shared by the scheduling and physics passes."""

    ids: tuple[str, ...]
    mu_by_tag: np.ndarray
    provider: object
    rows: np.ndarray | None
    """The provider row of each population index; ``None`` when they agree."""
    static_layout: bool
    antenna_positions_at: object
    antenna_position_row: object
    coupling_on: bool
    radius: float
    base_positions: np.ndarray | None
    grid: NeighborGrid | None


@dataclass(slots=True)
class _Calendar:
    """One stretch of the zone-membership calendar.

    ``members[k]`` is the exact membership of every tag at ``clocks[k]``;
    the clocks run evenly from the round that opened the stretch to its
    look-ahead ``clocks[-1]``.  Within one interval between samples, a tag
    whose membership is the same at both ends is predicted to keep it
    (``agree``); the others are evaluated exactly at each round's clock.  A
    membership correction clears ``agree`` for the cells that were wrong.
    """

    clocks: list[float]
    members: np.ndarray
    agree: np.ndarray
    clean: list[bool]
    """Per interval: every tag is predicted."""
    run_start: list[int]
    """Per interval: the first interval of its run of equal member rows,
    which keys :attr:`in_zone`."""
    in_zone: tuple[int, np.ndarray | None] = (-1, None)
    """The last clean run's members, as (run start, indices)."""

    def demote(self, intervals: np.ndarray, tags: np.ndarray) -> None:
        """Evaluate ``tags[i]`` exactly in ``intervals[i]`` from now on."""
        self.agree[intervals, tags] = False
        for interval in intervals.tolist():
            self.clean[interval] = False


class _SweepScheduler:
    """Phase 1 of the fused sweep: the rng-owning round loop, resumable.

    Runs the sequential inventory loop — zone membership, MAC slotting (via
    :meth:`~repro.rfid.aloha.FrameSlottedAloha.run_round_schedule`), the
    per-event noise draws — and emits the whole sweep as a
    :class:`~repro.rfid.event_table.SweepEventTable`.  Deep-fade booleans for
    the draws come from :attr:`corrections` where a physics evaluation
    computed them, and are assumed ``False`` elsewhere.

    Entry state (clock, protocol Q, rng state) is checkpointed every
    :attr:`CHECKPOINT_STRIDE` rounds.  :meth:`run` schedules the whole sweep
    optimistically.  When the physics pass finds a mis-guessed round,
    :meth:`resume_verified` replays from that round's checkpoint — the long
    unchanged prefix is kept, not replayed — in verified mode: each block of
    :data:`VERIFY_BLOCK_ROUNDS` rounds has its calendar and then its physics
    checked before the schedule runs past it, and a mis-guessed round in it
    is corrected and the block replayed from that round's checkpoint.

    Zone membership comes from a calendar (:class:`_Calendar`) rather than a
    geometry evaluation per round.  The first checkpoint block is evaluated
    exactly, round by round; after it, whenever the round clock runs past the
    calendar's end, :meth:`_open_calendar` extends it with one batched
    evaluation.  :meth:`verify_calendar` then checks every predicted cell
    exactly; a wrong one is demoted to exact evaluation and the schedule
    resumes from that round's checkpoint.
    """

    CHECKPOINT_STRIDE = 8
    """Rounds between state snapshots, and the rounds evaluated exactly
    before the zone calendar opens.  A resume replays forward from the
    nearest snapshot at or before the corrected round — replayed rounds
    consume the generator identically, so the stride only trades a few
    microseconds of capture per round against a bounded replay on
    rollback."""

    def __init__(
        self,
        reader: "RFIDReader",
        setup: _SweepSetup,
        antenna_position: AntennaPositionFn,
        duration_s: float,
        rng: np.random.Generator,
    ) -> None:
        self._reader = reader
        self._setup = setup
        self._antenna_position = antenna_position
        self._duration_s = duration_s
        self._rng = rng
        # One entry per event-bearing round: (round id, times, tag indices,
        # dropped, phase noise, rssi noise, assumed deep).
        self._parts: list[tuple] = []
        # Snapshot per CHECKPOINT_STRIDE-th round: round index -> (clock,
        # protocol q_fp, rng state, the calendar in force).
        self._checkpoints: dict[int, tuple[float, float, dict, _Calendar | None]] = {}
        # Calendars by the round that opened them.  A replay reopens the same
        # round at the same clock, and reuses the calendar with its demotions.
        self._calendars: dict[int, _Calendar] = {}
        # The rounds that used the calendar's predictions: (round index,
        # clock, calendar, interval), in round order.
        self._predicted: list[tuple[int, float, _Calendar, int]] = []
        # Predicted rounds below this index are verified.
        self._verified_through = 0
        # Verified mode: rounds below this index drew their noise under
        # booleans a physics evaluation confirmed.  None in the optimistic
        # pass.
        self._confirmed: int | None = None
        self.corrections: dict[int, np.ndarray] = {}
        """Exact deep-fade booleans of the corrected rounds, by round index."""
        self.zone_corrections = 0
        """Zone-calendar corrections, across passes."""
        self.physics_s = 0.0
        """Wall time of the verified blocks' physics."""

    def run(self) -> SweepEventTable:
        """Pass 1: schedule the whole sweep optimistically, calendar verified."""
        table = self._run_from(0, 0.0, None)
        while (wrong_round := self.verify_calendar()) is not None:
            self.zone_corrections += 1
            table = self._run_from(*self._rewind(wrong_round))
        return table

    def resume_verified(self, round_index: int, exact: np.ndarray) -> SweepEventTable:
        """Pass 2: correct ``round_index`` and finish the sweep in verified mode.

        ``round_index`` is the first mis-guessed round and ``exact`` its
        events' deep-fade booleans.  Its events are fixed by its pre-noise
        slotting draw, so everything up to it replays identically from its
        checkpoint; from it on, every block of :data:`VERIFY_BLOCK_ROUNDS`
        rounds (ends aligned to multiples of it) is checked before the
        schedule runs past it (:meth:`_check_block`).
        """
        self.corrections[round_index] = exact
        self._confirmed = round_index + 1
        self.mark_verified(round_index)
        return self._run_from(*self._rewind(round_index))

    def _rewind(self, round_index: int) -> tuple[int, float, _Calendar | None]:
        """Restore the state of ``round_index``'s nearest checkpoint.

        Restores the generator and protocol state captured at the last
        snapshot at or before ``round_index`` and drops what was scheduled
        from it on; returns the snapshot's (round, clock, calendar) for
        :meth:`_run_from`.  The replayed rounds consume the generator exactly
        as before (corrections included), so only the corrected round's
        draws actually change.
        """
        base = (round_index // self.CHECKPOINT_STRIDE) * self.CHECKPOINT_STRIDE
        clock, q_fp, rng_state, calendar = self._checkpoints[base]
        self._rng.bit_generator.state = rng_state
        self._reader.protocol.restore_scheduling_checkpoint(q_fp)
        for stale in [key for key in self._checkpoints if key >= base]:
            del self._checkpoints[stale]
        while self._parts and self._parts[-1][0] >= base:
            self._parts.pop()
        while self._predicted and self._predicted[-1][0] >= base:
            self._predicted.pop()
        return base, clock, calendar

    def _check_block(self, round_index: int) -> int | None:
        """Verify the rounds from the confirmed mark up to ``round_index``.

        First the zone calendar, so membership is checked before any
        physics; then one physics evaluation of the unconfirmed rounds'
        events.  Returns the first wrong round, whose correction is already
        applied (demoted calendar cells, or exact booleans in
        :attr:`corrections`), or ``None`` once every round before
        ``round_index`` is confirmed.
        """
        wrong_round = self.verify_calendar()
        if wrong_round is not None:
            self.zone_corrections += 1
            return wrong_round
        parts = self._parts
        start = len(parts)
        while start and parts[start - 1][0] >= self._confirmed:
            start -= 1
        pending = parts[start:]
        self._confirmed = round_index
        if not pending:
            return None
        tick = time.perf_counter()
        deep = self._reader._sweep_physics(
            self._setup,
            self._antenna_position,
            np.concatenate([part[1] for part in pending]),
            np.concatenate([part[2] for part in pending]),
        ).deep_fade
        self.physics_s += time.perf_counter() - tick
        misguess = _first_misguess(
            np.repeat([part[0] for part in pending], [part[1].size for part in pending]),
            deep,
            np.concatenate([part[6] for part in pending]),
        )
        if misguess is None:
            return None
        wrong_round, exact = misguess
        self.corrections[wrong_round] = exact
        self._confirmed = wrong_round + 1
        self.mark_verified(wrong_round)
        return wrong_round

    def verify_calendar(self) -> int | None:
        """Check every unverified predicted cell; the first wrong round, or None.

        One batched exact evaluation over the predicted rounds' clocks; the
        wrong cells are demoted to exact evaluation, so resuming from the
        returned round replays identically up to it and exactly from it.
        """
        predicted = self._predicted
        start = len(predicted)
        while start and predicted[start - 1][0] >= self._verified_through:
            start -= 1
        pending = predicted[start:]
        if not pending:
            return None
        exact = self._reader._zone_members(
            self._setup,
            self._antenna_position,
            np.fromiter((entry[1] for entry in pending), dtype=float, count=len(pending)),
        )
        first = 0
        while first < len(pending):
            calendar = pending[first][2]
            stop = first + 1
            while stop < len(pending) and pending[stop][2] is calendar:
                stop += 1
            intervals = np.fromiter(
                (entry[3] for entry in pending[first:stop]), dtype=np.intp, count=stop - first
            )
            wrong = exact[first:stop] != calendar.members[intervals]
            wrong &= calendar.agree[intervals]
            rows, tags = wrong.nonzero()
            if rows.size:
                calendar.demote(intervals[rows], tags)
                wrong_round = pending[first + int(rows[0])][0]
                # Rounds up to the wrong one replay identically, and the
                # wrong one is exact once its cells are demoted.
                self._verified_through = wrong_round + 1
                return wrong_round
            first = stop
        self._verified_through = pending[-1][0] + 1
        return None

    def mark_verified(self, round_index: int) -> None:
        """Rounds up to ``round_index`` replay identically from here on."""
        self._verified_through = min(self._verified_through, round_index + 1)

    def _open_calendar(self, round_index: int, clock: float) -> _Calendar:
        """Extend the calendar from the round ``round_index`` at ``clock``.

        The look-ahead is as long as the sweep so far (capped at its end),
        sampled about once per elapsed round, so a sweep opens a handful of
        stretches in all.  Every tag's exact membership is evaluated at every
        sample in one batched call; the first sample is this round's.
        """
        calendar = self._calendars.get(round_index)
        if calendar is not None and calendar.clocks[0] == clock:
            return calendar
        span = min(clock, self._duration_s - clock)
        count = max(1, math.ceil(round_index * span / clock))
        clocks = span * (np.arange(count + 1) / count)
        clocks += clock
        members = self._reader._zone_members(self._setup, self._antenna_position, clocks)
        agree = members[:-1] == members[1:]
        changed = np.ones(count, dtype=bool)
        changed[1:] = (members[1:-1] != members[:-2]).any(axis=1)
        run_start = np.maximum.accumulate(np.where(changed, np.arange(count), 0))
        calendar = self._calendars[round_index] = _Calendar(
            clocks=clocks.tolist(),
            members=members,
            agree=agree,
            clean=agree.all(axis=1).tolist(),
            run_start=run_start.tolist(),
        )
        return calendar

    def _run_from(
        self, round_index: int, clock: float, calendar: _Calendar | None
    ) -> SweepEventTable:
        reader = self._reader
        setup = self._setup
        antenna_position = self._antenna_position
        duration_s = self._duration_s
        rng = self._rng
        noise = reader.config.channel.noise
        protocol = reader.protocol
        parts = self._parts
        checkpoints = self._checkpoints
        predicted_rounds = self._predicted
        zone_members_at = reader._zone_members_at
        corrections = self.corrections
        verifying = self._confirmed is not None

        stride = self.CHECKPOINT_STRIDE
        while True:
            if (
                verifying
                and (round_index % VERIFY_BLOCK_ROUNDS == 0 or clock >= duration_s)
                and round_index > self._confirmed
            ):
                wrong_round = self._check_block(round_index)
                if wrong_round is not None:
                    round_index, clock, calendar = self._rewind(wrong_round)
                    continue
            if clock >= duration_s:
                break
            if round_index % stride == 0:
                checkpoints[round_index] = (
                    clock,
                    protocol.scheduling_checkpoint(),
                    rng.bit_generator.state,
                    calendar,
                )
            if round_index < stride:
                in_zone = zone_members_at(setup, antenna_position, clock).nonzero()[0]
            elif calendar is None or clock > calendar.clocks[-1]:
                calendar = self._open_calendar(round_index, clock)
                in_zone = calendar.members[0].nonzero()[0]
            else:
                interval = min(bisect_right(calendar.clocks, clock), len(calendar.clean)) - 1
                if calendar.clean[interval]:
                    run = calendar.run_start[interval]
                    if calendar.in_zone[0] != run:
                        calendar.in_zone = (run, calendar.members[run].nonzero()[0])
                    in_zone = calendar.in_zone[1]
                    predicted_rounds.append((round_index, clock, calendar, interval))
                else:
                    agree = calendar.agree[interval]
                    mask = calendar.members[interval] & agree
                    unstable = (~agree).nonzero()[0]
                    mask[unstable] = zone_members_at(setup, antenna_position, clock, unstable)
                    in_zone = mask.nonzero()[0]
                    if unstable.size < mask.size:
                        predicted_rounds.append((round_index, clock, calendar, interval))

            # Population indices stand in for the id strings: the round's rng
            # draw depends only on the participant count, and the winners come
            # back as positions into this array.
            success_ids, success_ends, round_time = protocol.run_round_schedule(
                in_zone, clock, rng
            )
            if len(success_ids):
                # Slot end times are monotone, so this prefix filter equals
                # the scalar loop's "first read past the deadline breaks".
                count = int(success_ends.searchsorted(duration_s, side="right"))
                if count:
                    if count < success_ends.size:
                        success_ends = success_ends[:count]
                        success_ids = success_ids[:count]
                    assumed = corrections.get(round_index)
                    if assumed is None:
                        assumed = np.zeros(count, dtype=bool)
                    dropped, phase_noise, rssi_noise = (
                        noise.draw_event_noise_scheduled(assumed, rng)
                    )
                    parts.append(
                        (
                            round_index,
                            success_ends,
                            success_ids,
                            dropped,
                            phase_noise,
                            rssi_noise,
                            assumed,
                        )
                    )

            if round_time <= 0:
                raise RuntimeError("inventory round produced non-positive duration")
            clock += round_time
            round_index += 1

        return self._build_table(round_index)

    def _build_table(self, round_count: int) -> SweepEventTable:
        parts = self._parts
        if parts:
            round_ids = np.repeat(
                np.array([part[0] for part in parts], dtype=np.intp),
                [part[1].size for part in parts],
            )
            columns = tuple(
                np.concatenate([part[position] for part in parts])
                for position in range(1, 7)
            )
        else:
            round_ids = np.empty(0, dtype=np.intp)
            columns = (
                np.empty(0),
                np.empty(0, dtype=np.intp),
                np.empty(0, dtype=bool),
                np.empty(0),
                np.empty(0),
                np.empty(0, dtype=bool),
            )
        reader = self._reader
        return SweepEventTable(
            tag_ids=list(self._setup.ids),
            channel_index=reader.config.channel.channel_index,
            antenna_port=reader.config.antenna_port,
            round_count=round_count,
            times_s=columns[0],
            tag_indices=columns[1],
            round_ids=round_ids,
            dropped=columns[2],
            phase_noise_rad=columns[3],
            rssi_noise_db=columns[4],
            assumed_deep=columns[5],
        )


def _first_misguess(
    round_ids: np.ndarray, deep_fade: np.ndarray, assumed_deep: np.ndarray
) -> tuple[int, np.ndarray] | None:
    """The first round whose events drew under wrong deep-fade booleans.

    Returns that round and its events' exact booleans, or ``None`` when
    ``assumed_deep`` agrees with ``deep_fade`` everywhere.
    """
    mistaken = deep_fade != assumed_deep
    if not mistaken.any():
        return None
    round_index = int(round_ids[int(np.argmax(mistaken))])
    return round_index, deep_fade[round_ids == round_index]


VERIFY_BLOCK_ROUNDS = 2 * _SweepScheduler.CHECKPOINT_STRIDE
"""Rounds per verified block, once a sweep has mis-guessed a deep fade.

Each block costs one zone-calendar check and one physics evaluation of its
events, and a correction inside it replays at most the block.  On the first
48 scenario-matrix operations at seed 2015 the scheduler runs 1.20x the rounds
it keeps at 16; 8 runs 1.18x at twice the physics calls, 32 and 64 run 1.23x
and 1.29x."""


@dataclass(frozen=True, slots=True)
class ReaderConfig:
    """Configuration of a simulated reader."""

    channel: BackscatterChannel = field(default_factory=BackscatterChannel)
    reading_zone: ReadingZone = field(default_factory=ReadingZone)
    antenna_port: int = 1
    reader_tx_phase_rad: float = 0.55
    """Phase rotation of the reader transmit circuit (part of ``mu`` in Eq. 1)."""

    reader_rx_phase_rad: float = 1.1
    """Phase rotation of the reader receive circuit (part of ``mu`` in Eq. 1)."""

    tag_coupling_coefficient: float = 0.75
    """Strength of mutual coupling between nearby tags (0 disables coupling).

    Each neighbouring tag is treated as a weak scatterer whose influence
    decays quickly with distance; this is what degrades ordering accuracy for
    tags packed a couple of centimetres apart (paper Figures 13/14)."""

    tag_coupling_decay_m: float = 0.022
    """Distance scale of the coupling decay."""

    tag_coupling_radius_m: float = 0.15
    """Neighbours farther than this contribute no coupling (saves computation)."""

    def __post_init__(self) -> None:
        if not 0.0 <= self.tag_coupling_coefficient <= 1.0:
            raise ValueError(
                "tag coupling coefficient must be in [0, 1], "
                f"got {self.tag_coupling_coefficient}"
            )
        if self.tag_coupling_decay_m <= 0.0:
            raise ValueError(
                f"tag coupling decay must be positive, got {self.tag_coupling_decay_m}"
            )
        if self.tag_coupling_radius_m <= 0.0:
            raise ValueError(
                "tag coupling radius must be positive "
                f"(use coefficient 0 to disable coupling), got {self.tag_coupling_radius_m}"
            )


class _CallableTagPositions:
    """Provider wrapping a plain ``(tag_id, t) -> Point3D`` callable.

    Correct for arbitrary user-supplied motion, but evaluates positions one
    call at a time; the standard scenarios install array-native providers
    (see :mod:`repro.motion.scenarios`) that vectorize these queries.  Built
    over the swept collection's own ids, so its rows are the population's.
    """

    is_static = False

    def __init__(self, fn: TagPositionFn, ids: tuple[str, ...]) -> None:
        self._fn = fn
        self.ids = ids

    def __call__(self, tag_id: str, time_s: float) -> Point3D:
        return self._fn(tag_id, time_s)

    def rows_for(self, tag_ids: Sequence[str]) -> None:
        """Always ``None``: the provider is built over the swept ids themselves."""
        return None

    def _points(self, rows: np.ndarray, times: np.ndarray) -> np.ndarray:
        """``fn(ids[rows[i]], times[i])`` as ``(M, 3)``, one call per pair."""
        ids = self.ids
        out = np.empty((rows.size, 3))
        for index, (row, time_s) in enumerate(zip(rows.tolist(), times.tolist())):
            point = self._fn(ids[row], time_s)
            out[index, 0] = point.x
            out[index, 1] = point.y
            out[index, 2] = point.z
        return out

    def positions_at(
        self, times_s: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        times = np.asarray(times_s, dtype=float)
        if rows is None:
            rows = np.arange(len(self.ids))
        pairs = self._points(np.tile(rows, times.size), np.repeat(times, rows.size))
        return pairs.reshape(times.size, rows.size, 3)

    def positions_paired(self, rows: np.ndarray, times_s: np.ndarray) -> np.ndarray:
        """Position of row ``rows[i]`` at ``times_s[i]``, as ``(M, 3)``.

        One call per pair — O(M), unlike the O(M^2) cross product
        :meth:`positions_at` would evaluate for the same pairs.
        """
        return self._points(rows, np.asarray(times_s, dtype=float))


def _provider_rows(setup: _SweepSetup, indices: np.ndarray) -> np.ndarray:
    """The provider rows of population ``indices``."""
    return indices if setup.rows is None else setup.rows[indices]


class RFIDReader:
    """Simulates continuous C1G2 inventory during a sweep."""

    def __init__(
        self,
        config: ReaderConfig | None = None,
        protocol: FrameSlottedAloha | None = None,
    ) -> None:
        self.config = config if config is not None else ReaderConfig()
        self.protocol = protocol if protocol is not None else FrameSlottedAloha()
        self.last_sweep_stats: dict = {}
        """Diagnostics of the most recent sweep, six keys: ``attempts`` (the
        whole-table physics passes: 1 for a clean sweep, 2 once a deep fade
        was mis-guessed), ``rolled_back_rounds`` (every round corrected with
        exact deep-fade booleans, the first mis-guessed one included),
        ``zone_corrections`` (zone-calendar corrections),
        ``per_round_fallback`` (always ``False``: there is no per-round
        mode any more; the key stays for readers of the old stats), and the
        wall-time split ``scheduling_s`` / ``physics_s``.  The verified
        blocks' physics runs inside the second scheduling pass but is booked
        as ``physics_s``."""

    def _device_offsets_for(self, model: TagModel) -> DeviceOffsets:
        """Eq. (1) ``mu`` components for a tag of ``model`` behind this reader."""
        return DeviceOffsets(
            theta_tx=self.config.reader_tx_phase_rad,
            theta_rx=self.config.reader_rx_phase_rad,
            theta_tag=model.reflection_phase_rad,
        )

    def _resolve_tag_positions(
        self, tag_position: TagPositionFn | None, tags: TagCollection
    ):
        """Normalise the tag-position argument into an array-native provider.

        ``None`` means the collection's own static positions, and a plain
        callable is wrapped.  An object implementing only part of the
        provider contract (:data:`_PROVIDER_CONTRACT`) is rejected.
        """
        if tag_position is None:
            return StaticTagPositions(tags.tag_ids, tags.position_array)
        missing = [name for name in _PROVIDER_CONTRACT if not hasattr(tag_position, name)]
        if not missing:
            return tag_position
        if len(missing) == len(_PROVIDER_CONTRACT):
            return _CallableTagPositions(tag_position, tags.tag_ids)
        raise TypeError(
            f"tag-position provider {type(tag_position).__name__} lacks {', '.join(missing)}"
        )

    def sweep(
        self,
        tags: TagCollection,
        antenna_position: AntennaPositionFn,
        duration_s: float,
        tag_position: TagPositionFn | None = None,
        rng: np.random.Generator | None = None,
    ) -> ReadLog:
        """Run inventory rounds for ``duration_s`` seconds and return the read log.

        Parameters
        ----------
        tags:
            The tag population.  Tags outside the reading zone at a given
            instant do not participate in that round.
        antenna_position:
            Antenna position as a function of time.
        duration_s:
            Sweep duration in seconds.
        tag_position:
            Optional tag position as a function of (tag id, time); defaults to
            the static positions stored in ``tags`` (antenna-moving case).
        rng:
            Random generator controlling slot choices, noise, and dropouts.
        """
        return self.sweep_events(
            tags, antenna_position, duration_s, tag_position, rng
        ).to_read_log()

    # ------------------------------------------------------------------
    # Shared sweep setup
    # ------------------------------------------------------------------

    def _sweep_setup(
        self,
        tags: TagCollection,
        tag_position: TagPositionFn | None,
        antenna_position: AntennaPositionFn,
    ) -> "_SweepSetup":
        """Resolve the per-sweep invariants of the scheduling and physics passes.

        Reads the collection's columns and builds no per-tag object; only the
        coupling :class:`NeighborGrid` costs time in the population size.
        """
        config = self.config
        ids = tags.tag_ids
        population = len(ids)
        # Hoist the per-tag Eq. (1) offsets: theta_TAG varies per tag model,
        # everything else about the channel is shared, so ``mu`` is worked
        # out once per distinct model and gathered by the model codes.
        mu_by_model = np.array(
            [self._device_offsets_for(model).total for model in tags.models], dtype=float
        )
        mu_by_tag = mu_by_model[tags.model_codes]

        provider = self._resolve_tag_positions(tag_position, tags)
        rows = provider.rows_for(ids)
        static_layout = bool(provider.is_static)
        antenna_positions_at = getattr(antenna_position, "positions_at", None)
        antenna_position_row = getattr(antenna_position, "position_row", None)

        coupling_on = config.tag_coupling_coefficient > 0.0 and population > 1
        radius = config.tag_coupling_radius_m
        base_positions: np.ndarray | None = None
        grid: NeighborGrid | None = None
        if static_layout:
            base_positions = np.ascontiguousarray(
                provider.positions_at(np.zeros(1), rows)[0], dtype=float
            )
            if coupling_on:
                grid = NeighborGrid(base_positions, radius)

        return _SweepSetup(
            ids=ids,
            mu_by_tag=mu_by_tag,
            provider=provider,
            rows=rows,
            static_layout=static_layout,
            antenna_positions_at=antenna_positions_at,
            antenna_position_row=antenna_position_row,
            coupling_on=coupling_on,
            radius=radius,
            base_positions=base_positions,
            grid=grid,
        )

    def _antenna_rows(
        self,
        setup: "_SweepSetup",
        antenna_position: AntennaPositionFn,
        times: np.ndarray,
    ) -> np.ndarray:
        """Antenna positions at ``times`` as ``(T, 3)``."""
        if setup.antenna_positions_at is not None:
            return np.asarray(setup.antenna_positions_at(times), dtype=float)
        return np.array(
            [(p.x, p.y, p.z) for p in (antenna_position(t) for t in times.tolist())],
            dtype=float,
        ).reshape(times.size, 3)

    def _zone_members(
        self,
        setup: "_SweepSetup",
        antenna_position: AntennaPositionFn,
        clocks: np.ndarray,
    ) -> np.ndarray:
        """Exact zone membership of every tag at each clock, as ``(T, N)``.

        The calendar's kernel: each cell depends only on its own (clock,
        tag) pair, so any batch of clocks gives the rows one-clock calls
        would.  Evaluated in chunks of :data:`_CHUNK_CELLS` cells.
        """
        zone = self.config.reading_zone
        members = np.empty((clocks.size, len(setup.ids)), dtype=bool)
        chunk = max(1, _CHUNK_CELLS // max(len(setup.ids), 1))
        for start in range(0, clocks.size, chunk):
            times = clocks[start : start + chunk]
            antenna_rows = self._antenna_rows(setup, antenna_position, times)
            if setup.static_layout:
                positions = setup.base_positions
            else:
                positions = setup.provider.positions_at(times, setup.rows)
            members[start : start + times.size] = zone.contains_many(
                antenna_rows[:, None, :], positions
            )
        return members

    def _zone_members_at(
        self,
        setup: "_SweepSetup",
        antenna_position: AntennaPositionFn,
        clock: float,
        subset: np.ndarray | None = None,
    ) -> np.ndarray:
        """Exact membership at one clock: of every tag, or of ``subset``.

        Uses the antenna's row-level query where it exists (identical
        arithmetic to its batched form).  A partial check of moving tags goes
        through the provider's paired query.
        """
        if setup.antenna_position_row is not None:
            antenna_row = setup.antenna_position_row(clock)
        else:
            antenna_row = antenna_position(clock).as_array()
        if setup.static_layout:
            positions = setup.base_positions
            if subset is not None:
                positions = positions[subset]
        elif subset is None:
            positions = setup.provider.positions_at(np.full(1, clock), setup.rows)[0]
        else:
            positions = setup.provider.positions_paired(
                _provider_rows(setup, subset), np.full(subset.size, clock)
            )
        return self.config.reading_zone.contains_many(antenna_row, positions)

    def sweep_stream(
        self,
        tags: TagCollection,
        antenna_position: AntennaPositionFn,
        duration_s: float,
        tag_position: TagPositionFn | None = None,
        rng: np.random.Generator | None = None,
    ):
        """Run a sweep and yield one :class:`~repro.rfid.reading.ReadBatch` per inventory round.

        The streaming entry point: instead of returning the finished
        :class:`ReadLog`, reads are emitted round by round — in a real
        deployment this is the LLRP report stream the reader pushes while the
        antenna is still moving.  Rounds that decode no readable reply yield
        nothing.  Reads within a batch are stable-sorted by timestamp.

        Since PR 5 the batches are *replayed* off the fused engine's
        whole-sweep event table (the simulation runs to completion on the
        first ``next()``, then yields per-round slices); the rng draw order
        is owned by the same scheduling loop as :meth:`sweep`, so
        concatenating the yielded batches reproduces the sweep's read log
        read for read (pinned by ``tests/test_streaming.py`` and the
        event-table property test in ``tests/test_fused_sweep.py``).
        """
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        rng = rng if rng is not None else np.random.default_rng()
        table = self.sweep_events(tags, antenna_position, duration_s, tag_position, rng)
        yield from table.iter_round_batches()

    # ------------------------------------------------------------------
    # Two-phase sweep
    # ------------------------------------------------------------------

    def sweep_events(
        self,
        tags: TagCollection,
        antenna_position: AntennaPositionFn,
        duration_s: float,
        tag_position: TagPositionFn | None = None,
        rng: np.random.Generator | None = None,
    ) -> SweepEventTable:
        """Run the two-phase sweep and return its completed event table.

        **Phase 1 (scheduling)** runs the sequential round loop — zone
        membership, MAC slotting, per-event noise draws, clock advance — and
        emits the whole sweep's reply attempts as a structure-of-arrays
        :class:`~repro.rfid.event_table.SweepEventTable`.  All rng
        consumption happens here, in the same order as the scalar reference
        loop.  Zone membership comes from the scheduler's calendar, which is
        verified exactly before any physics runs; a wrong cell is corrected
        and the schedule resumes from that round's checkpoint
        (``last_sweep_stats["zone_corrections"]`` counts them).  **Phase 2
        (physics)** evaluates every event's geometry, link budget, multipath,
        Eq. (1) phase, quantisation, and RSSI in one fused NumPy pass
        (:meth:`_sweep_physics`, then
        :meth:`~repro.rf.channel.BackscatterChannel.observe_scheduled`).

        The one place physics feeds back into the rng order is the dropout
        draw, which the scalar loop skips for events in a deep multipath
        fade.  Phase 1 therefore draws *optimistically* (assuming no deep
        fades — overwhelmingly the common case) and phase 2 verifies; a clean
        sweep stops there.  On a mis-guess the first mis-guessed round gets
        its exact booleans, and the same scheduler resumes from that round's
        checkpoint in verified mode (:meth:`_SweepScheduler.resume_verified`):
        each block of :data:`VERIFY_BLOCK_ROUNDS` rounds is checked — zone
        calendar, then one physics evaluation of its events — before the
        schedule runs past it, and a mis-guessed round is corrected and only
        the block replayed.  A round's noise thus stands only once a physics
        evaluation of its own events confirms the booleans it drew under.
        One closing whole-table pass then evaluates the physics again; it
        must agree with every boolean drawn, or a ``RuntimeError`` is raised
        rather than a table returned.  So a sweep takes at most two
        whole-table passes, and its read log is bit-identical to the scalar
        reference — pinned by ``tests/test_fused_sweep.py``.
        """
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        rng = rng if rng is not None else np.random.default_rng()
        setup = self._sweep_setup(tags, tag_position, antenna_position)
        stats = {
            "attempts": 0,
            "rolled_back_rounds": 0,
            "zone_corrections": 0,
            "per_round_fallback": False,
            "scheduling_s": 0.0,
            "physics_s": 0.0,
        }

        def whole_table_pass(schedule, *args) -> SweepEventTable:
            tick = time.perf_counter()
            table = schedule(*args)
            tock = time.perf_counter()
            stats["scheduling_s"] += tock - tick
            self._observe_events(setup, antenna_position, table)
            stats["physics_s"] += time.perf_counter() - tock
            stats["attempts"] += 1
            return table

        scheduler = _SweepScheduler(self, setup, antenna_position, duration_s, rng)
        table = whole_table_pass(scheduler.run)
        # Deep fades never gate a draw when dropouts are off; the schedule
        # cannot have diverged.
        if self.config.channel.noise.random_dropout_probability > 0.0:
            misguess = _first_misguess(table.round_ids, table.deep_fade, table.assumed_deep)
            if misguess is not None:
                table = whole_table_pass(scheduler.resume_verified, *misguess)
                mistaken = table.deep_fade != table.assumed_deep
                if mistaken.any():
                    raise RuntimeError(
                        "the verified schedule disagrees with the closing physics "
                        f"pass on {int(mistaken.sum())} events"
                    )

        # The verified blocks' physics ran inside the scheduling pass.
        stats["scheduling_s"] -= scheduler.physics_s
        stats["physics_s"] += scheduler.physics_s
        stats["rolled_back_rounds"] = len(scheduler.corrections)
        stats["zone_corrections"] = scheduler.zone_corrections
        self.last_sweep_stats = stats
        return table

    def _sweep_physics(
        self,
        setup: "_SweepSetup",
        antenna_position: AntennaPositionFn,
        times: np.ndarray,
        tag_indices: np.ndarray,
    ) -> SweepPhysics:
        """The rng-free physics of a batch of events, coupling included.

        Gathers each event's antenna and tag positions and its coupling
        scatterers (every one sharing the config's coefficient and decay),
        then evaluates :meth:`~repro.rf.channel.BackscatterChannel.sweep_physics`.
        Every value depends only on its own event, so the physics pass (one
        call per sweep) and the scheduler's verified blocks (one call per
        block of rounds) get the same bits.
        """
        config = self.config
        count = int(times.size)
        antenna_rows = self._antenna_rows(setup, antenna_position, times)

        extra_positions = extra_index = None
        if setup.base_positions is not None:
            event_tag_positions = setup.base_positions.take(tag_indices, axis=0)
            if setup.coupling_on and setup.grid is not None:
                event_index, flat_neighbors = setup.grid.neighbors_for_events(
                    tag_indices
                )
                if event_index.size:
                    extra_index = event_index
                    extra_positions = setup.base_positions.take(flat_neighbors, axis=0)
        elif not setup.coupling_on:
            event_tag_positions = setup.provider.positions_paired(
                _provider_rows(setup, tag_indices), times
            )
        else:
            # Moving tags with coupling: the dense per-event radius filter,
            # evaluated in event-count chunks sized to bound the (events x
            # population) distance matrix.
            population = len(setup.ids)
            chunk = max(1, _CHUNK_CELLS // max(population, 1))
            event_tag_positions = np.empty((count, 3))
            index_chunks: list[np.ndarray] = []
            position_chunks: list[np.ndarray] = []
            for start in range(0, count, chunk):
                stop = min(start + chunk, count)
                all_positions = setup.provider.positions_at(times[start:stop], setup.rows)
                indices = np.arange(stop - start)
                chunk_tags = tag_indices[start:stop]
                chunk_positions = all_positions[indices, chunk_tags]
                event_tag_positions[start:stop] = chunk_positions
                distances = euclidean_distances(
                    chunk_positions[:, None, :], all_positions
                )
                within = distances <= setup.radius
                within[indices, chunk_tags] = False
                event_index, neighbor_index = np.nonzero(within)
                if event_index.size:
                    index_chunks.append(event_index.astype(np.intp) + start)
                    position_chunks.append(all_positions[event_index, neighbor_index])
            if index_chunks:
                extra_index = np.concatenate(index_chunks)
                extra_positions = np.concatenate(position_chunks)

        return config.channel.sweep_physics(
            antenna_rows,
            event_tag_positions,
            device_offsets_total=setup.mu_by_tag[tag_indices],
            extra_positions=extra_positions,
            extra_event_index=extra_index,
            tag_coupling_coefficient=config.tag_coupling_coefficient,
            tag_coupling_decay_m=config.tag_coupling_decay_m,
        )

    def _observe_events(
        self,
        setup: "_SweepSetup",
        antenna_position: AntennaPositionFn,
        table: SweepEventTable,
    ) -> None:
        """Phase 2: physics over the whole event table, in place."""
        if len(table) == 0:
            table.phase_rad = np.empty(0)
            table.rssi_dbm = np.empty(0)
            table.readable = np.empty(0, dtype=bool)
            table.deep_fade = np.empty(0, dtype=bool)
            return
        physics = self._sweep_physics(
            setup, antenna_position, table.times_s, table.tag_indices
        )
        observation = self.config.channel.observe_scheduled(
            physics, table.dropped, table.phase_noise_rad, table.rssi_noise_db
        )
        table.phase_rad = observation.phase_rad
        table.rssi_dbm = observation.rssi_dbm
        table.readable = observation.readable
        table.deep_fade = physics.deep_fade
