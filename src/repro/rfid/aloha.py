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
from typing import Sequence

import numpy as np


_SLOT_DTYPE = np.int32
"""Dtype of the per-round slot draw.  Frames never exceed ``2**15`` slots, and
for a range that fits 32 bits ``Generator.integers`` draws int32 and its
default int64 through the same 32-bit bounded sampler: the same values from
the same generator words.  The int32 form only costs less per call."""


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
        # A negative step would walk away from the clamp on empty slots, which
        # the run-skipping walk of FrameSlottedAloha.run_round_schedule
        # assumes never happens.
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
        tag_ids: Sequence[str],
        start_time_s: float,
        rng: np.random.Generator,
    ) -> "tuple[list[str] | np.ndarray, np.ndarray, float]":
        """Simulate one inventory round over ``tag_ids`` from ``start_time_s``.

        Returns ``(success_tag_ids, success_end_times, round_duration_s)``:
        the tags that replied alone in their slot, in slot order, and the end
        time of each winning slot.  When ``tag_ids`` is an index array (the
        fused scheduler's form) the winners come back as an array too.  Tags
        that collide do not produce a read this round; the C1G2
        session/inventoried-flag machinery is not modelled because the
        paper's readers run in a mode where tags keep replying every round
        (required to accumulate a phase profile).  The round draws one
        ``rng.integers`` slot per tag:

        * slot end times accumulate left to right, the same float adds as a
          slot-by-slot ``clock += duration`` loop;
        * the adaptive Q walk applies the C1G2 rule per slot
          (collision: ``q_fp = min(q_max, q_fp + c)``; empty:
          ``q_fp = max(q_min, q_fp - c)``) on outcome codes.  It steps over
          runs of empty slots rather than slots: once ``q_fp`` sits at
          ``q_min`` the rest of a run cannot move it, so a run costs at most
          about ``(q_max - q_min) / c`` steps however long it is.

        ``tests/test_fused_sweep.py`` pins the equivalence against the
        slot-by-slot oracle in ``tests/oracles/scalar_sweep.py``.
        """
        timings = self.timings
        first_slot_start = start_time_s + timings.round_overhead_s
        frame_size = self._q_algorithm.frame_size

        if len(tag_ids) == 0:
            # An empty round still burns one empty slot of air time and
            # skips the Q update.
            end = first_slot_start + timings.empty_slot_s
            duration = (end - first_slot_start) + timings.round_overhead_s
            return [], np.empty(0), duration

        chosen = rng.integers(0, frame_size, size=len(tag_ids), dtype=_SLOT_DTYPE)
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
        np.take(self._duration_lut, classes, out=slot_ends)
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
        if isinstance(tag_ids, np.ndarray):
            # Index-array form (the fused scheduler): winners gather in one
            # fancy index, no per-winner Python objects.
            owners[chosen] = tag_ids
            success_ids = owners[win_slots]
        else:
            owners[chosen] = np.arange(len(tag_ids))
            success_ids = [tag_ids[i] for i in owners[win_slots].tolist()]
        success_ends = slot_ends[win_slots]
        duration = (float(ends[-1]) - first_slot_start) + timings.round_overhead_s
        return success_ids, success_ends, duration
