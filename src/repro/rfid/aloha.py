"""Frame-slotted ALOHA (C1G2 Q protocol) inventory simulation.

The EPC Class-1 Generation-2 air interface inventories tags in rounds.  In
every round the reader announces a frame of ``2**Q`` slots; every energised
tag in the reading zone draws a slot uniformly at random and replies in it.
Slots with exactly one reply are successful reads; slots with two or more
replies collide; empty slots are skipped quickly.  The reader adapts Q between
rounds to keep the collision/empty balance near the optimum (the standard's
"Q algorithm").

Two consequences matter for the paper:

* the **identification order is random** (Section 2.1) — it carries no spatial
  information, which is why STPP needs phase profiles in the first place;
* the **per-tag read rate drops as the population grows**, because a frame can
  deliver at most one successful read per occupied slot.  This produces the
  undersampling that degrades ordering accuracy in Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


SCALAR_ROUND_LIMIT = 128
"""Largest frame, and largest member count, of a round that
:meth:`FrameSlottedAloha.run_round_schedule` schedules on Python scalars;
larger rounds take the array form.  A scalar round costs a little per slot
and per member, an array round about a dozen NumPy calls plus its Q walk
over runs.  Per round in µs, adaptive Q, scalar against array (2-CPU x86-64
Xeon, numpy 2.4.6, best of 9):

* members at 0.7x / 1x the frame: 32 slots 8.8 / 9.6 against 18.9 / 20.3;
  64 slots 13.6 / 16.2 against 24.4 / 26.8; 128 slots 23.6 / 27.5 against
  31.9 / 37.5; 256 slots 42.9 / 69.5 against 46.3 / 57.4, where they cross;
* crowded frames, which a round starts with when Q has not caught up with
  the population: 128 members in 16 / 32 slots 28.3 / 29.3 against 31.9 /
  39.7; 256 members 46.1 / 47.9 against 33.6 / 41.9; 1,500 members in 16
  slots 250 against 45.

Of the scenario matrix's rounds (≤ 36 members) 99.96% run scalar, those of
more than 128 slots on arrays; the dense hall's (16, 512 and 32k slots for
1,050-1,570 members) all run on arrays."""

_LOW_HALF = 0xFFFFFFFF


class SlotSource:
    """The ALOHA slot draws of one generator, read off its raw PCG64 words.

    A draw of ``count`` slots in a ``2**q``-slot frame returns what
    ``rng.integers(0, 2**q, size=count, dtype=np.int32)`` returns and leaves
    the generator where that call leaves it, without its fixed per-call
    cost:

    * numpy's bounded sampler (Lemire's multiply-shift) maps a 32-bit draw
      ``x`` into ``2**q`` slots as ``(x * 2**q) >> 32``, the top ``q`` bits
      of ``x``.  The rejection threshold ``(2**32 - 2**q) % 2**q`` is 0, so
      nothing is ever redrawn, and a one-slot frame (``q == 0``) draws
      nothing at all;
    * PCG64's 32-bit draw returns the low half of a fresh 64-bit word and
      holds the high half for the next 32-bit draw (``has_uint32`` and
      ``uinteger`` in ``bit_generator.state``).  ``random()`` and
      ``normal()`` take whole words and never touch the held half.

    The source draws whole words with ``bit_generator.random_raw`` and keeps
    the held half itself.  Between :meth:`reload` and :meth:`sync` the
    generator's own held half is stale: a caller syncs before anything else
    can draw 32 bits from the generator or read its state, and reloads after
    it restores a state.  ``tests/test_slot_source.py`` checks every draw
    and state against ``Generator.integers``.
    """

    __slots__ = ("_bit_generator", "_random_raw", "_has_uint32", "_uinteger")

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise TypeError(
                "slot draws follow PCG64's 32-bit draw; got a "
                f"{type(bit_generator).__name__} generator"
            )
        self._bit_generator = bit_generator
        self._random_raw = bit_generator.random_raw
        self.reload()

    def reload(self) -> None:
        """Take over the generator's held half-word, after a state restore."""
        state = self._bit_generator.state
        self._has_uint32 = state["has_uint32"]
        self._uinteger = state["uinteger"]

    def sync(self) -> dict:
        """Write the held half-word back into the generator and return its state.

        The state returned is the one set, so it doubles as a checkpoint.
        """
        bit_generator = self._bit_generator
        state = bit_generator.state
        state["has_uint32"] = self._has_uint32
        state["uinteger"] = self._uinteger
        bit_generator.state = state
        return state

    def _words(self, count: int) -> tuple[int | None, np.ndarray]:
        """Consume ``count`` 32-bit draws: the held half (or None), then words.

        The draws are the held half when there is one, then each word's low
        and high halves in turn.  As in PCG64, the last word's high half
        stays in ``uinteger`` whether it was drawn or is held back.
        """
        held = None
        if self._has_uint32 and count:
            held = self._uinteger
            self._has_uint32 = 0
            count -= 1
        words = self._random_raw((count + 1) >> 1)
        if count:
            self._has_uint32 = count & 1
            self._uinteger = int(words[-1]) >> 32
        return held, words

    def draw(self, count: int, frame_size: int) -> list[int]:
        """``count`` slots of a ``frame_size``-slot frame, as Python ints.

        ``frame_size`` is a power of two, at most ``2**31``.
        """
        if frame_size == 1:
            return [0] * count
        shift = 33 - frame_size.bit_length()
        high = 32 + shift
        held, words = self._words(count)
        slots = [] if held is None else [held >> shift]
        for word in words.tolist():
            slots.append((word & _LOW_HALF) >> shift)
            slots.append(word >> high)
        del slots[count:]
        return slots

    def draw_array(self, count: int, frame_size: int) -> np.ndarray:
        """:meth:`draw`'s slots as an index array."""
        if frame_size == 1:
            return np.zeros(count, dtype=np.intp)
        held, words = self._words(count)
        halves = np.stack((words & _LOW_HALF, words >> 32), axis=1).ravel()
        if held is not None:
            halves = np.concatenate((np.array([held], dtype=np.uint64), halves))
        return (halves[:count] >> (33 - frame_size.bit_length())).astype(np.intp)


@dataclass(frozen=True, slots=True)
class AlohaTimings:
    """Air-interface timing of the three slot outcomes, in seconds.

    Values approximate a C1G2 link at Miller-4 / 250 kHz backscatter link
    frequency, giving an aggregate rate of a few hundred successful reads per
    second — consistent with the profile lengths the paper reports
    (roughly 400 samples per tag over a sweep).
    """

    empty_slot_s: float = 0.00035
    collision_slot_s: float = 0.0011
    success_slot_s: float = 0.0025
    round_overhead_s: float = 0.001
    """Per-round overhead (Query command, frequency dwell bookkeeping)."""

    def __post_init__(self) -> None:
        for name in ("empty_slot_s", "collision_slot_s", "success_slot_s", "round_overhead_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class QAlgorithm:
    """The C1G2 adaptive Q algorithm (floating-point variant).

    ``q_fp`` is nudged up on collisions and down on empty slots; the rounded
    value is the frame-size exponent used for the next round.
    """

    q_fp: float = 4.0
    c: float = 0.3
    q_min: float = 0.0
    q_max: float = 15.0

    def __post_init__(self) -> None:
        # A negative step would walk away from the clamp on empty slots.  The
        # array form of FrameSlottedAloha.run_round_schedule stops walking a
        # run of empty slots once q_fp reaches q_min, which assumes it never
        # does.
        if not self.c >= 0:
            raise ValueError(f"c must be non-negative, got {self.c}")
        if self.q_min > self.q_max:
            raise ValueError(f"q_min must not exceed q_max, got {self.q_min} > {self.q_max}")

    @property
    def q(self) -> int:
        """The integer Q for the next round."""
        return int(round(self.q_fp))

    @property
    def frame_size(self) -> int:
        """The number of slots in the next round."""
        return 1 << self.q


@dataclass
class FrameSlottedAloha:
    """Simulates C1G2 inventory rounds over a (possibly changing) tag set."""

    timings: AlohaTimings = field(default_factory=AlohaTimings)
    initial_q: float = 4.0
    adaptive: bool = True
    """If False, Q stays at ``initial_q`` (useful for deterministic tests)."""

    def __post_init__(self) -> None:
        self._q_algorithm = QAlgorithm(q_fp=self.initial_q)
        # Slot duration by occupancy class: 0 empty, 1 success, 2+ collision.
        self._duration_lut = np.array(
            [
                self.timings.empty_slot_s,
                self.timings.success_slot_s,
                self.timings.collision_slot_s,
            ]
        )
        self._round_buffers: dict[int, tuple[np.ndarray, ...]] = {}

    def scheduling_checkpoint(self) -> float:
        """The protocol's mutable state (the floating-point Q) as a snapshot.

        The fused sweep engine checkpoints this together with the rng state so
        a mis-guessed noise schedule can be rolled back and replayed exactly.
        """
        return self._q_algorithm.q_fp

    def restore_scheduling_checkpoint(self, q_fp: float) -> None:
        """Restore the state captured by :meth:`scheduling_checkpoint`."""
        self._q_algorithm.q_fp = q_fp

    def run_round_schedule(
        self,
        tag_ids: np.ndarray,
        start_time_s: float,
        slots: SlotSource,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Simulate one inventory round over ``tag_ids`` from ``start_time_s``.

        ``tag_ids`` is an index array (population positions, in the fused
        scheduler).  Returns ``(success_tag_ids, success_end_times,
        round_duration_s)``: the entries of ``tag_ids`` that replied alone in
        their slot, in slot order, and the end time of each winning slot.
        Tags that collide do not produce a read this round; the C1G2
        session/inventoried-flag machinery is not modelled because the
        paper's readers run in a mode where tags keep replying every round
        (required to accumulate a phase profile).  The round draws one slot
        per tag from ``slots`` (``Generator.integers``'s draw, see
        :class:`SlotSource`):

        * slot end times accumulate left to right, the same float adds as a
          slot-by-slot ``clock += duration`` loop;
        * the adaptive Q walk applies the C1G2 rule per slot
          (collision: ``q_fp = min(q_max, q_fp + c)``; empty:
          ``q_fp = max(q_min, q_fp - c)``).

        Rounds of up to :data:`SCALAR_ROUND_LIMIT` slots and members run as
        one loop over Python scalars in slot order.  Larger rounds run on
        arrays, and their Q walk steps over runs of empty slots rather than
        slots: once ``q_fp`` sits at ``q_min`` the rest of a run cannot move
        it, so a run costs at most about ``(q_max - q_min) / c`` steps however
        long it is.

        ``tests/test_fused_sweep.py`` pins the equivalence against the
        slot-by-slot oracle in ``tests/oracles/scalar_sweep.py``.
        """
        timings = self.timings
        first_slot_start = start_time_s + timings.round_overhead_s
        algorithm = self._q_algorithm
        frame_size = algorithm.frame_size
        tag_count = len(tag_ids)

        if tag_count == 0:
            # An empty round still burns one empty slot of air time and
            # skips the Q update.
            end = first_slot_start + timings.empty_slot_s
            duration = (end - first_slot_start) + timings.round_overhead_s
            return tag_ids[:0], np.empty(0), duration
        if frame_size > SCALAR_ROUND_LIMIT or tag_count > SCALAR_ROUND_LIMIT:
            chosen = slots.draw_array(tag_count, frame_size)
            return self._run_array_round(tag_ids, first_slot_start, frame_size, chosen)

        # Slot -> the position of its lone replier, or -1 (empty) or -2
        # (collision).
        owners = [-1] * frame_size
        for position, slot in enumerate(slots.draw(tag_count, frame_size)):
            owners[slot] = position if owners[slot] == -1 else -2
        empty_s = timings.empty_slot_s
        success_s = timings.success_slot_s
        collision_s = timings.collision_slot_s
        q_fp = algorithm.q_fp
        c = algorithm.c
        q_min = algorithm.q_min
        q_max = algorithm.q_max
        clock = first_slot_start
        winners: list[int] = []
        win_ends: list[float] = []
        # The Q rule spelled out: ``max(q_min, x)`` is ``x if x > q_min else
        # q_min`` and ``min(q_max, x)`` is ``x if x < q_max else q_max``.
        for owner in owners:
            if owner >= 0:
                clock += success_s
                winners.append(owner)
                win_ends.append(clock)
            elif owner == -1:
                clock += empty_s
                stepped = q_fp - c
                q_fp = stepped if stepped > q_min else q_min
            else:
                clock += collision_s
                stepped = q_fp + c
                q_fp = stepped if stepped < q_max else q_max
        if self.adaptive:
            algorithm.q_fp = q_fp
        duration = (clock - first_slot_start) + timings.round_overhead_s
        return tag_ids.take(winners), np.array(win_ends), duration

    def _run_array_round(
        self,
        tag_ids: np.ndarray,
        first_slot_start: float,
        frame_size: int,
        chosen: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """:meth:`run_round_schedule`'s array form, for large frames."""
        buffers = self._round_buffers.get(frame_size)
        if buffers is None:
            # Per frame size (at most 16 while Q walks): the slot classes,
            # the slot clock (and its view from the first slot's end) and
            # the slot -> owner map.  Nothing below escapes them except
            # fancy-indexed copies.
            ends = np.empty(frame_size + 1)
            buffers = self._round_buffers[frame_size] = (
                np.empty(frame_size, np.uint8),
                ends,
                ends[1:],
                np.empty(frame_size, np.intp),
            )
        classes, ends, slot_ends, owners = buffers
        # One byte per slot: 0 empty, 1 success, 2+ collision.  The class
        # indexes the duration table and, as bytes, splits into the Q walk's
        # runs below.
        np.minimum(
            np.bincount(chosen, minlength=frame_size), 2, out=classes, casting="unsafe"
        )
        # ends[0] is the first slot's start; ends[k + 1] is slot k's end.
        # In-place left-to-right accumulate == the scalar loop's sequential
        # ``clock += duration`` float-for-float.
        ends[0] = first_slot_start
        self._duration_lut.take(classes, out=slot_ends)
        np.add.accumulate(ends, out=ends)

        if self.adaptive:
            algorithm = self._q_algorithm
            q_fp = algorithm.q_fp
            c = algorithm.c
            q_min = algorithm.q_min
            q_max = algorithm.q_max
            # Successful slots never move Q, so dropping them leaves the empty
            # and collision slots in slot order; splitting at the collisions
            # leaves the runs of empty slots between them.  An empty slot at
            # q_min leaves q_fp at q_min (c >= 0), so each run stops there.
            runs = classes.tobytes().replace(b"\x01", b"").split(b"\x02")
            for index, run in enumerate(runs):
                if index:
                    q_fp = min(q_max, q_fp + c)
                for _ in range(len(run)):
                    if q_fp == q_min:
                        break
                    q_fp = max(q_min, q_fp - c)
            algorithm.q_fp = q_fp

        # Winners in slot order: a success slot has exactly one writer in the
        # slot -> owner scatter, so reading it back names the winner.
        win_slots = (classes == 1).nonzero()[0]
        owners[chosen] = tag_ids
        duration = (float(ends[-1]) - first_slot_start) + self.timings.round_overhead_s
        return owners[win_slots], slot_ends[win_slots], duration
