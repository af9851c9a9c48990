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

A sweep runs in two phases: a scheduling pass runs the sequential round loop
(zone membership, MAC slotting, per-event noise draws) and emits the whole
sweep as a structure-of-arrays :class:`~repro.rfid.event_table.SweepEventTable`;
a physics pass then evaluates every round's events in one fused NumPy call
(:meth:`~repro.rf.channel.BackscatterChannel.observe_sweep`).  Because the
dropout draw is conditional on deep multipath fades, the scheduler draws
optimistically and the physics pass verifies, rolling the generator back on
the (rare) mis-guess — see :meth:`RFIDReader.sweep_events`.

Zone membership is not re-evaluated from geometry every round.  After the
first checkpoint block, the scheduler reads it off a **membership calendar**:
one batched evaluation samples every tag's exact membership about once per
elapsed round, over a look-ahead as long as the sweep so far, and the
calendar is extended whenever the round clock runs past its end.  Between
two samples, a tag with the same membership at both is predicted to keep it;
a tag whose membership differs is evaluated exactly at the round's clock.
After each scheduling attempt one batched exact evaluation verifies every
predicted (round, tag) cell; a wrong cell is demoted to exact evaluation and
the schedule resumes from that round's checkpoint, as for a deep-fade
mis-guess.  ``last_sweep_stats["zone_corrections"]`` counts these
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
from ..rf.channel import BackscatterChannel
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

_MAX_FUSED_ATTEMPTS = 16
"""Optimistic schedule/verify iterations before the exact per-round fallback.

Each retry replays only the schedule tail after the corrected round plus one
fused physics pass, so attempts are cheap; the cap exists to bound the truly
pathological channels (deep fades on more rounds than this), which drop to
the exact per-round mode instead."""

_CHUNK_CELLS = 262_144
"""Cell budget (rows x population) per chunk of the dense evaluations: the
moving-tag coupling filter and the zone-calendar verification."""

_PAIRED_FALLBACK_CHUNK = 512
"""Event chunk for the cross-product diagonal of paired-query-less providers."""


@dataclass(slots=True)
class _SweepSetup:
    """Per-sweep invariants shared by the scheduling and physics passes."""

    ids: list[str]
    mu_by_tag: np.ndarray
    provider: object
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
    the draws come from ``corrections`` where a prior physics pass computed
    them, and are assumed ``False`` elsewhere.

    Entry state (clock, protocol Q, rng state) is checkpointed every
    :attr:`CHECKPOINT_STRIDE` rounds, so when the physics pass finds a
    mis-guessed round the schedule is :meth:`resume`-d from the nearest
    snapshot — the long unchanged prefix is kept, not replayed.

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

    def run(self, corrections: "dict[int, np.ndarray]") -> SweepEventTable:
        """Schedule the whole sweep from the beginning."""
        self._parts.clear()
        self._checkpoints.clear()
        self._calendars.clear()
        self._predicted.clear()
        return self._run_from(0, 0.0, None, corrections)

    def restore(self, round_index: int) -> tuple[int, float, _Calendar | None]:
        """Restore the generator and protocol to ``round_index``'s checkpoint.

        Returns the checkpointed round (the last snapshot at or before
        ``round_index``), its clock and the calendar in force there.
        """
        base = (round_index // self.CHECKPOINT_STRIDE) * self.CHECKPOINT_STRIDE
        clock, q_fp, rng_state, calendar = self._checkpoints[base]
        self._rng.bit_generator.state = rng_state
        self._reader.protocol.restore_scheduling_checkpoint(q_fp)
        return base, clock, calendar

    def resume(
        self, round_index: int, corrections: "dict[int, np.ndarray]"
    ) -> SweepEventTable:
        """Replay the schedule from ``round_index``'s nearest checkpoint.

        Restores the generator and protocol state captured at the last
        snapshot at or before the corrected round; the replayed rounds
        consume the generator exactly as before (corrections included), so
        only the corrected round's draws actually change.
        """
        base, clock, calendar = self.restore(round_index)
        for stale in [key for key in self._checkpoints if key >= base]:
            del self._checkpoints[stale]
        while self._parts and self._parts[-1][0] >= base:
            self._parts.pop()
        while self._predicted and self._predicted[-1][0] >= base:
            self._predicted.pop()
        return self._run_from(base, clock, calendar, corrections)

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
        self,
        round_index: int,
        clock: float,
        calendar: _Calendar | None,
        corrections: "dict[int, np.ndarray]",
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

        stride = self.CHECKPOINT_STRIDE
        while clock < duration_s:
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
    """Fallback provider wrapping a plain ``(tag_id, t) -> Point3D`` callable.

    Correct for arbitrary user-supplied motion, but evaluates positions one
    call at a time; the standard scenarios install array-native providers
    (see :mod:`repro.motion.scenarios`) that vectorize these queries.
    """

    is_static = False

    def __init__(self, fn: TagPositionFn) -> None:
        self._fn = fn

    def __call__(self, tag_id: str, time_s: float) -> Point3D:
        return self._fn(tag_id, time_s)

    def positions_at(self, tag_ids: Sequence[str], times_s: np.ndarray) -> np.ndarray:
        times = np.asarray(times_s, dtype=float)
        out = np.empty((times.size, len(tag_ids), 3))
        for t_index, time_s in enumerate(times):
            for n_index, tag_id in enumerate(tag_ids):
                point = self._fn(tag_id, float(time_s))
                out[t_index, n_index, 0] = point.x
                out[t_index, n_index, 1] = point.y
                out[t_index, n_index, 2] = point.z
        return out

    def positions_paired(
        self, tag_ids: Sequence[str], times_s: np.ndarray
    ) -> np.ndarray:
        """Position of ``tag_ids[i]`` at ``times_s[i]``, as ``(M, 3)``.

        One call per pair — O(M), unlike the O(M^2) cross product
        :meth:`positions_at` would evaluate for the same pairs.
        """
        times = np.asarray(times_s, dtype=float)
        out = np.empty((len(tag_ids), 3))
        for index, (tag_id, time_s) in enumerate(zip(tag_ids, times)):
            point = self._fn(tag_id, float(time_s))
            out[index, 0] = point.x
            out[index, 1] = point.y
            out[index, 2] = point.z
        return out


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
        """Diagnostics of the most recent sweep: optimistic whole-sweep
        attempts, rolled-back rounds, zone-calendar corrections, whether the
        exact per-round fallback engaged, and the scheduling-vs-physics
        wall-time split (fallback included)."""

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
        """Normalise the tag-position argument into an array-native provider."""
        if tag_position is None:
            return StaticTagPositions(tags.positions())
        if hasattr(tag_position, "positions_at") and hasattr(tag_position, "is_static"):
            return tag_position
        return _CallableTagPositions(tag_position)

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
        """Resolve the per-sweep invariants of the scheduling and physics passes."""
        config = self.config
        tag_list = list(tags)
        ids = [tag.tag_id for tag in tag_list]
        population = len(ids)
        # Hoist the per-tag Eq. (1) offsets: theta_TAG varies per tag model,
        # everything else about the channel is shared, so ``mu`` is worked
        # out once per distinct model and scattered back by index.  Models
        # are told apart by identity: hashing the frozen model costs more
        # than it saves.
        models = [tag.model for tag in tag_list]
        model_keys = np.fromiter(map(id, models), dtype=np.intp, count=population)
        _, first_of_model, model_of_tag = np.unique(
            model_keys, return_index=True, return_inverse=True
        )
        mu_by_model = np.array(
            [self._device_offsets_for(models[i]).total for i in first_of_model.tolist()],
            dtype=float,
        )
        mu_by_tag = mu_by_model[model_of_tag]

        provider = self._resolve_tag_positions(tag_position, tags)
        static_layout = bool(getattr(provider, "is_static", False))
        antenna_positions_at = getattr(antenna_position, "positions_at", None)
        antenna_position_row = getattr(antenna_position, "position_row", None)

        coupling_on = config.tag_coupling_coefficient > 0.0 and population > 1
        radius = config.tag_coupling_radius_m
        base_positions: np.ndarray | None = None
        grid: NeighborGrid | None = None
        if static_layout:
            base_positions = provider.positions_at(ids, np.zeros(1))[0]
            # Copy: the provider may hand out a broadcast view of its cache.
            base_positions = np.array(base_positions, dtype=float)
            if coupling_on:
                grid = NeighborGrid(base_positions, radius)

        return _SweepSetup(
            ids=ids,
            mu_by_tag=mu_by_tag,
            provider=provider,
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
                positions = setup.provider.positions_at(setup.ids, times)
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

        Uses the providers' row-level queries where they exist (identical
        arithmetic to their batched forms).  A partial check of moving tags
        goes through the paired query, so it leaves the provider's
        full-population cache in place.
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
            positions = setup.provider.positions_at(setup.ids, np.full(1, clock))[0]
        else:
            times = np.full(subset.size, clock)
            paired = getattr(setup.provider, "positions_paired", None)
            if paired is not None:
                positions = paired([setup.ids[i] for i in subset.tolist()], times)
            else:
                positions = setup.provider.positions_at(setup.ids, times[:1])[0][subset]
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
        (:meth:`~repro.rf.channel.BackscatterChannel.observe_sweep`).

        The one place physics feeds back into the rng order is the dropout
        draw, which the scalar loop skips for events in a deep multipath
        fade.  Phase 1 therefore draws *optimistically* (assuming no deep
        fades — overwhelmingly the common case) and phase 2 verifies; on a
        mis-guess the generator and protocol state are rolled back to the
        nearest per-round checkpoint and only the schedule tail replays,
        with the exact booleans for the offending round (each retry fixes at
        least one round, so the loop terminates).  Pathological
        configurations that keep mis-guessing fall back to an exact
        per-round mode from the first mis-guessed round's checkpoint on.
        Either way the read log is bit-identical to the scalar reference —
        pinned by ``tests/test_fused_sweep.py``.
        """
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        rng = rng if rng is not None else np.random.default_rng()
        setup = self._sweep_setup(tags, tag_position, antenna_position)
        noise = self.config.channel.noise

        corrections: dict[int, np.ndarray] = {}
        stats = {
            "attempts": 0,
            "rolled_back_rounds": 0,
            "zone_corrections": 0,
            "per_round_fallback": False,
            "scheduling_s": 0.0,
            "physics_s": 0.0,
        }

        scheduler = _SweepScheduler(self, setup, antenna_position, duration_s, rng)
        table: SweepEventTable | None = None
        resume_round: int | None = None
        for attempt in range(_MAX_FUSED_ATTEMPTS):
            tick = time.perf_counter()
            if resume_round is None:
                candidate = scheduler.run(corrections)
            else:
                # Everything before the corrected round consumed the
                # generator correctly — replay only the tail from that
                # round's checkpoint.
                candidate = scheduler.resume(resume_round, corrections)
            # Verify the zone calendar before any physics runs on the
            # schedule: a wrong membership invalidates everything after it.
            while (wrong_round := scheduler.verify_calendar()) is not None:
                stats["zone_corrections"] += 1
                candidate = scheduler.resume(wrong_round, corrections)
            tock = time.perf_counter()
            stats["scheduling_s"] += tock - tick
            self._observe_events(setup, antenna_position, candidate)
            stats["physics_s"] += time.perf_counter() - tock
            stats["attempts"] = attempt + 1
            if noise.random_dropout_probability == 0.0:
                # Deep fades never gate a draw when dropouts are off; the
                # schedule cannot have diverged.
                table = candidate
                break
            mistaken = candidate.deep_fade & ~candidate.assumed_deep
            if not mistaken.any():
                table = candidate
                break
            # The first mis-guessed round: its own events are fixed by its
            # (pre-noise) slotting draw, so its exact booleans stay valid
            # across the replay — and so do its membership and everything
            # before it.
            resume_round = int(candidate.round_ids[int(np.argmax(mistaken))])
            # Each retry pins down one more round; if more rounds are wrong
            # than retries remain, optimism cannot converge — go straight to
            # the exact per-round mode instead of burning the attempts.
            mistaken_rounds = np.unique(candidate.round_ids[mistaken]).size
            if mistaken_rounds > _MAX_FUSED_ATTEMPTS - attempt - 1:
                break
            corrections[resume_round] = candidate.deep_fade[candidate.round_ids == resume_round]
            scheduler.mark_verified(resume_round)
            stats["rolled_back_rounds"] += 1

        if table is None:
            # Pathological channel (deep fades on most rounds): replay the
            # tail in exact per-round mode — physics before noise, round by
            # round — which can never mis-guess.  Rows before the first
            # mis-guessed round's checkpoint are exact already, physics
            # included, so they are kept.
            base, clock, _ = scheduler.restore(resume_round)
            stats["per_round_fallback"] = True
            table = self._sweep_table_per_round(
                setup, antenna_position, duration_s, rng, candidate, base, clock, stats
            )

        self.last_sweep_stats = stats
        return table

    def _event_geometry(
        self,
        setup: "_SweepSetup",
        antenna_position: AntennaPositionFn,
        times: np.ndarray,
        tag_indices: np.ndarray,
    ):
        """Geometry and coupling scatterers for a batch of events.

        Returns ``(antenna_rows, event_tag_positions, extra_positions,
        extra_event_index)``; every coupling scatterer shares the config's
        coefficient and decay.  Shared by
        the physics pass (one call per sweep) and the exact per-round
        fallback (one call per round).
        """
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
            event_ids = [setup.ids[i] for i in tag_indices]
            paired = getattr(setup.provider, "positions_paired", None)
            if paired is not None:
                event_tag_positions = paired(event_ids, times)
            else:
                # Exotic provider without a paired query: fall back to the
                # cross-product diagonal in bounded chunks (each cell depends
                # only on its own pair, so chunking preserves bit-identity).
                event_tag_positions = np.empty((count, 3))
                for start in range(0, count, _PAIRED_FALLBACK_CHUNK):
                    stop = min(start + _PAIRED_FALLBACK_CHUNK, count)
                    rows = setup.provider.positions_at(
                        event_ids[start:stop], times[start:stop]
                    )
                    indices = np.arange(stop - start)
                    event_tag_positions[start:stop] = rows[indices, indices]
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
                all_positions = setup.provider.positions_at(
                    setup.ids, times[start:stop]
                )
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

        return antenna_rows, event_tag_positions, extra_positions, extra_index

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
        antenna_rows, event_tag_positions, extra_positions, extra_index = (
            self._event_geometry(
                setup, antenna_position, table.times_s, table.tag_indices
            )
        )
        observation, deep_fade = self.config.channel.observe_sweep(
            antenna_rows,
            event_tag_positions,
            dropped=table.dropped,
            phase_noise=table.phase_noise_rad,
            rssi_noise=table.rssi_noise_db,
            device_offsets_total=setup.mu_by_tag[table.tag_indices],
            extra_positions=extra_positions,
            extra_event_index=extra_index,
            tag_coupling_coefficient=self.config.tag_coupling_coefficient,
            tag_coupling_decay_m=self.config.tag_coupling_decay_m,
        )
        table.phase_rad = observation.phase_rad
        table.rssi_dbm = observation.rssi_dbm
        table.readable = observation.readable
        table.deep_fade = deep_fade

    def _sweep_table_per_round(
        self,
        setup: "_SweepSetup",
        antenna_position: AntennaPositionFn,
        duration_s: float,
        rng: np.random.Generator,
        candidate: SweepEventTable,
        round_index: int,
        clock: float,
        stats: dict,
    ) -> SweepEventTable:
        """Exact per-round mode from ``round_index`` on: physics before noise.

        The last-resort path for channels whose deep fades keep invalidating
        the optimistic schedule: within each round the physics runs first, so
        the noise draws always use the exact booleans — the same draw order as
        the scalar loop, with none of the fused pass's whole-sweep batching.
        ``candidate``'s rows before ``round_index`` (observed, and exact) are
        kept; the generator and protocol must already be at that round's
        checkpoint, whose clock is ``clock``.  The time spent is added to
        ``stats``' scheduling and physics counters.
        """
        tick = time.perf_counter()
        physics_s = 0.0
        channel = self.config.channel
        noise = channel.noise
        protocol = self.protocol

        kept = int(np.searchsorted(candidate.round_ids, round_index, side="left"))
        parts: list[tuple] = [
            (
                candidate.times_s[:kept],
                candidate.tag_indices[:kept],
                candidate.round_ids[:kept],
                candidate.dropped[:kept],
                candidate.phase_noise_rad[:kept],
                candidate.rssi_noise_db[:kept],
                candidate.deep_fade[:kept],
                candidate.phase_rad[:kept],
                candidate.rssi_dbm[:kept],
                candidate.readable[:kept],
            )
        ]
        while clock < duration_s:
            in_zone = self._zone_members_at(setup, antenna_position, clock).nonzero()[0]
            success_ids, success_ends, round_time = protocol.run_round_schedule(
                in_zone, clock, rng
            )
            if len(success_ids):
                count = int(success_ends.searchsorted(duration_s, side="right"))
                if count:
                    physics_tick = time.perf_counter()
                    times = success_ends[:count]
                    tag_indices = success_ids[:count]
                    antenna_rows, event_tag_positions, extra_positions, extra_index = (
                        self._event_geometry(setup, antenna_position, times, tag_indices)
                    )
                    physics = channel.sweep_physics(
                        antenna_rows,
                        event_tag_positions,
                        device_offsets_total=setup.mu_by_tag[tag_indices],
                        extra_positions=extra_positions,
                        extra_event_index=extra_index,
                        tag_coupling_coefficient=self.config.tag_coupling_coefficient,
                        tag_coupling_decay_m=self.config.tag_coupling_decay_m,
                    )
                    physics_tock = time.perf_counter()
                    dropped, phase_noise, rssi_noise = (
                        noise.draw_event_noise_scheduled(physics.deep_fade, rng)
                    )
                    observe_tick = time.perf_counter()
                    observation = channel.observe_scheduled(
                        physics, dropped, phase_noise, rssi_noise
                    )
                    physics_s += (physics_tock - physics_tick) + (
                        time.perf_counter() - observe_tick
                    )
                    parts.append(
                        (
                            times,
                            tag_indices,
                            np.full(count, round_index, dtype=np.intp),
                            dropped,
                            phase_noise,
                            rssi_noise,
                            physics.deep_fade,
                            observation.phase_rad,
                            observation.rssi_dbm,
                            observation.readable,
                        )
                    )

            if round_time <= 0:
                raise RuntimeError("inventory round produced non-positive duration")
            clock += round_time
            round_index += 1

        columns = [np.concatenate([part[position] for part in parts]) for position in range(10)]
        stats["physics_s"] += physics_s
        stats["scheduling_s"] += (time.perf_counter() - tick) - physics_s
        return SweepEventTable(
            tag_ids=list(setup.ids),
            channel_index=channel.channel_index,
            antenna_port=self.config.antenna_port,
            round_count=round_index,
            times_s=columns[0],
            tag_indices=columns[1],
            round_ids=columns[2],
            dropped=columns[3],
            phase_noise_rad=columns[4],
            rssi_noise_db=columns[5],
            assumed_deep=columns[6],
            deep_fade=columns[6],
            phase_rad=columns[7],
            rssi_dbm=columns[8],
            readable=columns[9],
        )
