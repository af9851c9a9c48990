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

The read log is **bit-identical** to the read-at-a-time reference loop kept
in ``tests/oracles/scalar_sweep.py``, which consumes the random generator in
the same order (one ``rng.integers`` per round, then the fixed per-event
noise-draw sequence) — pinned by ``tests/test_fused_sweep.py``.
"""

from __future__ import annotations

import time
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

_COUPLING_CHUNK_CELLS = 262_144
"""Cell budget (events x population) per chunk of the dense coupling filter."""

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
    """

    CHECKPOINT_STRIDE = 8
    """Rounds between state snapshots.  A resume replays forward from the
    nearest snapshot at or before the corrected round — replayed rounds
    consume the generator identically, so the stride only trades a few
    microseconds of capture per round against a bounded replay on rollback."""

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
        # Snapshot per CHECKPOINT_STRIDE-th round:
        # round index -> (clock, protocol q_fp, rng state).
        self._checkpoints: dict[int, tuple[float, float, dict]] = {}

    def run(self, corrections: "dict[int, np.ndarray]") -> SweepEventTable:
        """Schedule the whole sweep from the beginning."""
        self._parts.clear()
        self._checkpoints.clear()
        return self._run_from(0, 0.0, corrections)

    def resume(
        self, round_index: int, corrections: "dict[int, np.ndarray]"
    ) -> SweepEventTable:
        """Replay the schedule from ``round_index``'s nearest checkpoint.

        Restores the generator and protocol state captured at the last
        snapshot at or before the corrected round; the replayed rounds
        consume the generator exactly as before (corrections included), so
        only the mis-guessed round's noise actually changes.
        """
        base = (round_index // self.CHECKPOINT_STRIDE) * self.CHECKPOINT_STRIDE
        clock, q_fp, rng_state = self._checkpoints[base]
        self._rng.bit_generator.state = rng_state
        self._reader.protocol.restore_scheduling_checkpoint(q_fp)
        for stale in [key for key in self._checkpoints if key >= base]:
            del self._checkpoints[stale]
        while self._parts and self._parts[-1][0] >= base:
            self._parts.pop()
        return self._run_from(base, clock, corrections)

    def _run_from(
        self, round_index: int, clock: float, corrections: "dict[int, np.ndarray]"
    ) -> SweepEventTable:
        reader = self._reader
        setup = self._setup
        antenna_position = self._antenna_position
        duration_s = self._duration_s
        rng = self._rng
        zone = reader.config.reading_zone
        noise = reader.config.channel.noise
        protocol = reader.protocol
        parts = self._parts
        checkpoints = self._checkpoints
        clock_buffer = np.empty(1)

        stride = self.CHECKPOINT_STRIDE
        while clock < duration_s:
            if round_index % stride == 0:
                checkpoints[round_index] = (
                    clock,
                    protocol.scheduling_checkpoint(),
                    rng.bit_generator.state,
                )
            antenna_row, round_positions = reader._round_start_geometry(
                setup, antenna_position, clock, clock_buffer
            )
            in_zone_mask = zone.contains_many(antenna_row, round_positions)
            # Population indices stand in for the id strings: run_round's rng
            # draw depends only on the participant count, and the winners come
            # back as positions into this array.
            in_zone = np.nonzero(in_zone_mask)[0]

            success_ids, success_ends, round_time = protocol.run_round_schedule(
                in_zone, clock, rng
            )
            if len(success_ids):
                # Slot end times are monotone, so this prefix filter equals
                # the scalar loop's "first read past the deadline breaks".
                count = int(np.searchsorted(success_ends, duration_s, side="right"))
                if count:
                    assumed = corrections.get(round_index)
                    if assumed is None:
                        assumed = np.zeros(count, dtype=bool)
                    dropped, phase_noise, rssi_noise = (
                        noise.draw_event_noise_scheduled(assumed, rng)
                    )
                    parts.append(
                        (
                            round_index,
                            success_ends[:count],
                            np.asarray(success_ids[:count], dtype=np.intp),
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
            round_ids = np.concatenate(
                [np.full(part[1].size, part[0], dtype=np.intp) for part in parts]
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
        """Diagnostics of the most recent sweep: optimistic attempts,
        rolled-back rounds, whether the per-round fallback engaged, and the
        scheduling-vs-physics wall-time split."""

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

    def _round_start_geometry(
        self,
        setup: "_SweepSetup",
        antenna_position: AntennaPositionFn,
        clock: float,
        clock_buffer: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(antenna row, tag rows) at a round's start — the zone-check inputs.

        Shared by every round loop.  Uses the providers' row-level queries
        when available (identical arithmetic to the ``Point3D`` forms) and a
        caller-owned one-element time buffer, so the per-round geometry costs
        no wrapper objects or allocations beyond the providers' own outputs.
        """
        if setup.antenna_position_row is not None:
            antenna_row = setup.antenna_position_row(clock)
        else:
            antenna_row = antenna_position(clock).as_array()
        if setup.static_layout:
            round_positions = setup.base_positions
        else:
            clock_buffer[0] = clock
            round_positions = setup.provider.positions_at(setup.ids, clock_buffer)[0]
        return antenna_row, round_positions

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
        loop.  **Phase 2 (physics)** evaluates every event's
        geometry, link budget, multipath, Eq. (1) phase, quantisation, and
        RSSI in one fused NumPy pass
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
        per-round mode.  Either way the
        read log is bit-identical to the scalar reference — pinned by
        ``tests/test_fused_sweep.py``.
        """
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        rng = rng if rng is not None else np.random.default_rng()
        setup = self._sweep_setup(tags, tag_position, antenna_position)
        noise = self.config.channel.noise

        rng_checkpoint = rng.bit_generator.state
        protocol_checkpoint = self.protocol.scheduling_checkpoint()
        corrections: dict[int, np.ndarray] = {}
        stats = {
            "attempts": 0,
            "rolled_back_rounds": 0,
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
            # Each retry pins down one more round; if more rounds are wrong
            # than retries remain, optimism cannot converge — go straight to
            # the exact per-round mode instead of burning the attempts.
            mistaken_rounds = np.unique(candidate.round_ids[mistaken]).size
            if mistaken_rounds > _MAX_FUSED_ATTEMPTS - attempt - 1:
                break
            # The first mis-guessed round: its own events are fixed by its
            # (pre-noise) slotting draw, so its exact booleans stay valid
            # across the replay.
            first_round = int(candidate.round_ids[int(np.argmax(mistaken))])
            round_rows = candidate.round_ids == first_round
            corrections[first_round] = candidate.deep_fade[round_rows].copy()
            resume_round = first_round
            stats["rolled_back_rounds"] += 1

        if table is None:
            # Pathological channel (deep fades on most rounds): replay once
            # more in exact per-round mode — physics before noise, round by
            # round — which can never mis-guess.
            rng.bit_generator.state = rng_checkpoint
            self.protocol.restore_scheduling_checkpoint(protocol_checkpoint)
            stats["per_round_fallback"] = True
            table = self._sweep_table_per_round(
                setup, antenna_position, duration_s, rng
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
        extra_coefficients, extra_decays, extra_event_index)``.  Shared by
        the physics pass (one call per sweep) and the exact per-round
        fallback (one call per round).
        """
        count = int(times.size)
        if setup.antenna_positions_at is not None:
            antenna_rows = np.asarray(setup.antenna_positions_at(times), dtype=float)
        else:
            antenna_rows = np.array(
                [
                    (p.x, p.y, p.z)
                    for p in (antenna_position(t) for t in times.tolist())
                ],
                dtype=float,
            ).reshape(count, 3)

        extra_positions = extra_index = None
        if setup.base_positions is not None:
            event_tag_positions = setup.base_positions[tag_indices]
            if setup.coupling_on and setup.grid is not None:
                event_index, flat_neighbors = setup.grid.neighbors_for_events(
                    tag_indices
                )
                if event_index.size:
                    extra_index = event_index
                    extra_positions = setup.base_positions[flat_neighbors]
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
            chunk = max(1, _COUPLING_CHUNK_CELLS // max(population, 1))
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

        extra_coefficients = extra_decays = None
        if extra_positions is not None:
            extra_coefficients = np.full(
                len(extra_positions), self.config.tag_coupling_coefficient
            )
            extra_decays = np.full(
                len(extra_positions), self.config.tag_coupling_decay_m
            )
        return (
            antenna_rows,
            event_tag_positions,
            extra_positions,
            extra_coefficients,
            extra_decays,
            extra_index,
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
        (
            antenna_rows,
            event_tag_positions,
            extra_positions,
            extra_coefficients,
            extra_decays,
            extra_index,
        ) = self._event_geometry(
            setup, antenna_position, table.times_s, table.tag_indices
        )
        observation, deep_fade = self.config.channel.observe_sweep(
            antenna_rows,
            event_tag_positions,
            dropped=table.dropped,
            phase_noise=table.phase_noise_rad,
            rssi_noise=table.rssi_noise_db,
            device_offsets_total=setup.mu_by_tag[table.tag_indices],
            extra_positions=extra_positions,
            extra_coefficients=extra_coefficients,
            extra_decays=extra_decays,
            extra_event_index=extra_index,
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
    ) -> SweepEventTable:
        """Exact per-round mode: physics before noise, round by round.

        The last-resort path for channels whose deep fades keep invalidating
        the optimistic schedule: within each round the physics runs first, so
        the noise draws always use the exact booleans — the same draw order as
        the scalar loop, with none of the fused pass's whole-sweep batching.
        """
        zone = self.config.reading_zone
        channel = self.config.channel
        noise = channel.noise
        protocol = self.protocol
        ids = setup.ids
        clock_buffer = np.empty(1)

        parts: list[tuple] = []
        round_index = 0
        clock = 0.0
        while clock < duration_s:
            antenna_row, round_positions = self._round_start_geometry(
                setup, antenna_position, clock, clock_buffer
            )
            in_zone_mask = zone.contains_many(antenna_row, round_positions)
            in_zone = np.nonzero(in_zone_mask)[0]

            success_ids, success_ends, round_time = protocol.run_round_schedule(
                in_zone, clock, rng
            )
            if len(success_ids):
                count = int(np.searchsorted(success_ends, duration_s, side="right"))
                if count:
                    times = success_ends[:count]
                    tag_indices = np.asarray(success_ids[:count], dtype=np.intp)
                    (
                        antenna_rows,
                        event_tag_positions,
                        extra_positions,
                        extra_coefficients,
                        extra_decays,
                        extra_index,
                    ) = self._event_geometry(setup, antenna_position, times, tag_indices)
                    physics = channel.sweep_physics(
                        antenna_rows,
                        event_tag_positions,
                        device_offsets_total=setup.mu_by_tag[tag_indices],
                        extra_positions=extra_positions,
                        extra_coefficients=extra_coefficients,
                        extra_decays=extra_decays,
                        extra_event_index=extra_index,
                    )
                    dropped, phase_noise, rssi_noise = (
                        noise.draw_event_noise_scheduled(physics.deep_fade, rng)
                    )
                    observation = channel.observe_scheduled(
                        physics, dropped, phase_noise, rssi_noise
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

        def _column(position: int, dtype=None, default_dtype=float) -> np.ndarray:
            if parts:
                return np.concatenate([part[position] for part in parts])
            return np.empty(0, dtype=dtype if dtype is not None else default_dtype)

        deep = _column(6, dtype=bool)
        return SweepEventTable(
            tag_ids=list(ids),
            channel_index=channel.channel_index,
            antenna_port=self.config.antenna_port,
            round_count=round_index,
            times_s=_column(0),
            tag_indices=_column(1, dtype=np.intp),
            round_ids=_column(2, dtype=np.intp),
            dropped=_column(3, dtype=bool),
            phase_noise_rad=_column(4),
            rssi_noise_db=_column(5),
            assumed_deep=deep,
            deep_fade=deep,
            phase_rad=_column(7),
            rssi_dbm=_column(8),
            readable=_column(9, dtype=bool),
        )
