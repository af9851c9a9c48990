"""The scheduler's zone-membership calendar against the read-at-a-time oracle.

After its first checkpoint block the fused engine no longer evaluates the
reading zone every round: it predicts membership from a batched calendar and
verifies every predicted cell afterwards.  These tests pin that the read log
stays bit-identical to ``tests/oracles/scalar_sweep.py`` on generated
layouts built to stress the calendar — a waypoint path with a corner, tags on
the range and beam edges, tags in the zone for only a few rounds, static and
moving populations — and that a wrong prediction is corrected and counted.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.motion.scenarios import (
    ConstantVelocityTagPositions,
    StaticAntennaPosition,
    StaticTagPositions,
    TrajectoryAntennaPosition,
)
from repro.motion.speed_profiles import ConstantSpeedProfile
from repro.motion.trajectory import LinearTrajectory
from repro.rf.antenna import DirectionalAntenna, ReadingZone
from repro.rf.geometry import Point3D
from repro.rfid.aloha import FrameSlottedAloha
from repro.rfid.reader import RFIDReader, _SweepScheduler
from repro.rfid.tag import make_tags
from repro.simulation.presets import standard_reader_config

from oracles.scalar_sweep import scalar_sweep


class CornerTrajectory:
    """Constant-speed motion along straight legs through ``waypoints``.

    A path that turns, which no ``LinearTrajectory`` gives the calendar.
    ``position`` is a batch of one of ``positions_at``, so the oracle's
    scalar samples and the fused engine's batched ones agree bit for bit.
    """

    def __init__(self, waypoints: list[Point3D], speed_mps: float) -> None:
        self._points = np.array([p.as_array() for p in waypoints])
        self._lengths = np.linalg.norm(np.diff(self._points, axis=0), axis=1)
        self._cumulative = np.concatenate([[0.0], np.cumsum(self._lengths)])
        self._speed = speed_mps
        self.duration_s = float(self._cumulative[-1] / speed_mps)

    def positions_at(self, times_s) -> np.ndarray:
        total = self._cumulative[-1]
        distances = np.clip(np.asarray(times_s, dtype=float) * self._speed, 0.0, total)
        leg = np.searchsorted(self._cumulative, distances, side="right") - 1
        leg = np.clip(leg, 0, self._lengths.size - 1)
        fraction = (distances - self._cumulative[leg]) / self._lengths[leg]
        start = self._points[leg]
        return start + fraction[:, None] * (self._points[leg + 1] - start)

    def position(self, time_s: float) -> Point3D:
        return Point3D(*self.positions_at([time_s])[0].tolist())


@dataclasses.dataclass
class CalendarCase:
    """One generated sweep: what both engines are run on."""

    positions: list[Point3D]
    zone: ReadingZone
    antenna_position: object
    tag_position: object
    duration_s: float
    seed: int

    def reader(self) -> RFIDReader:
        tags = make_tags(self.positions, seed=self.seed)
        config = standard_reader_config(tags, seed=self.seed)
        config = dataclasses.replace(config, reading_zone=self.zone)
        return RFIDReader(config=config, protocol=FrameSlottedAloha())

    def sweep_args(self) -> tuple:
        tags = make_tags(self.positions, seed=self.seed)
        tag_position = self.tag_position(tags) if self.tag_position else None
        return (
            tags,
            self.antenna_position,
            self.duration_s,
            tag_position,
            np.random.default_rng(self.seed),
        )


@st.composite
def calendar_cases(draw):
    """Static tags under a straight or cornered antenna path, or a belt."""
    height = draw(st.floats(0.2, 0.45))
    beamwidth = draw(st.sampled_from([25.0, 45.0, 70.0]))
    max_range = draw(st.floats(height + 0.05, 1.0))
    zone = ReadingZone(
        max_range_m=max_range,
        antenna=DirectionalAntenna(beamwidth_deg=beamwidth, boresight=(0.0, 0.0, -1.0)),
        beam_limited=draw(st.booleans()),
    )
    # Lateral offsets at which the closest approach sits exactly on the
    # range sphere and on the beam cone; a tag just inside one is in the
    # zone for only a short window of the pass.
    range_edge = math.sqrt(max_range**2 - height**2)
    beam_edge = height * math.tan(math.radians(min(beamwidth, 89.0)))
    offsets = [
        range_edge,
        beam_edge,
        range_edge * draw(st.floats(0.999, 1.0)),
        beam_edge * draw(st.floats(0.999, 1.0)),
    ]
    offsets += draw(st.lists(st.floats(-0.4, 0.4), min_size=1, max_size=4))
    xs = draw(st.lists(st.floats(0.0, 1.0), min_size=len(offsets), max_size=len(offsets)))
    speed = draw(st.floats(0.3, 3.0))
    seed = draw(st.integers(0, 2**16))
    motion = draw(st.sampled_from(["line", "corner", "belt"]))

    if motion == "belt":
        antenna = Point3D(0.0, 0.0, height)
        positions = [Point3D(0.2 + x, y, 0.0) for x, y in zip(xs, offsets)]
        return CalendarCase(
            positions=positions,
            zone=zone,
            antenna_position=StaticAntennaPosition(antenna),
            tag_position=lambda tags: ConstantVelocityTagPositions(
                tags.positions(), (-speed, 0.0, 0.0)
            ),
            duration_s=min(2.0, 1.6 / speed),
            seed=seed,
        )

    if motion == "line":
        trajectory = LinearTrajectory(
            Point3D(-0.3, 0.0, height),
            Point3D(1.3, 0.0, height),
            ConstantSpeedProfile(speed),
        )
        positions = [Point3D(x, y, 0.0) for x, y in zip(xs, offsets)]
    else:
        corner = Point3D(0.5, 0.25, height)
        trajectory = CornerTrajectory(
            [Point3D(-0.3, -0.2, height), corner, Point3D(1.3, -0.2, height)], speed
        )
        # Tags around the corner, plus one right under it.
        positions = [Point3D(x, corner.y - y, 0.0) for x, y in zip(xs, offsets)]
        positions.append(Point3D(corner.x, corner.y, 0.0))
    return CalendarCase(
        positions=positions,
        zone=zone,
        antenna_position=TrajectoryAntennaPosition(trajectory),
        tag_position=lambda tags: StaticTagPositions(tags.positions()),
        duration_s=min(2.0, trajectory.duration_s),
        seed=seed,
    )


def fused_and_oracle(case: CalendarCase):
    reader = case.reader()
    table = reader.sweep_events(*case.sweep_args())
    oracle = scalar_sweep(case.reader(), *case.sweep_args())
    return reader, table, oracle


def hide_first_transition(monkeypatch: pytest.MonkeyPatch) -> dict[int, int]:
    """Corrupt the first calendar stretch in which a tag changes membership.

    That tag's samples are all overwritten with its first one, so the
    calendar predicts it keeps its membership past the change.  The
    corruption is deterministic, like a real misprediction: reopening the
    same stretch corrupts it again.  Returns {opening round: corrupted tag}.
    """
    corrupted: dict[int, int] = {}
    members_of = RFIDReader._zone_members
    open_calendar = _SweepScheduler._open_calendar

    def opening(scheduler, round_index, clock):
        def hiding(reader, setup, antenna_position, clocks):
            members = members_of(reader, setup, antenna_position, clocks)
            changing = (members != members[0]).any(axis=0).nonzero()[0]
            if not corrupted and changing.size:
                corrupted[round_index] = int(changing[0])
            tag = corrupted.get(round_index)
            if tag is not None:
                members[:, tag] = members[0, tag]
            return members

        monkeypatch.setattr(RFIDReader, "_zone_members", hiding)
        try:
            return open_calendar(scheduler, round_index, clock)
        finally:
            monkeypatch.setattr(RFIDReader, "_zone_members", members_of)

    monkeypatch.setattr(_SweepScheduler, "_open_calendar", opening)
    return corrupted


class TestCalendarMatchesOracle:
    @settings(max_examples=30, deadline=None)
    @given(case=calendar_cases())
    def test_fused_equals_oracle(self, case):
        reader, table, oracle = fused_and_oracle(case)
        assert table.to_read_log().reads == oracle.reads
        assert table.round_count > _SweepScheduler.CHECKPOINT_STRIDE

    @settings(max_examples=15, deadline=None)
    @given(case=calendar_cases())
    def test_corrupted_calendar_still_equals_oracle(self, case):
        oracle = scalar_sweep(case.reader(), *case.sweep_args())
        with pytest.MonkeyPatch.context() as monkeypatch:
            hide_first_transition(monkeypatch)
            table = case.reader().sweep_events(*case.sweep_args())
        assert table.to_read_log().reads == oracle.reads


class TestForcedMisprediction:
    def case(self) -> CalendarCase:
        trajectory = LinearTrajectory(
            Point3D(-0.3, 0.0, 0.3), Point3D(1.3, 0.0, 0.3), ConstantSpeedProfile(0.8)
        )
        return CalendarCase(
            positions=[Point3D(0.1 * i, 0.05 * (i % 3), 0.0) for i in range(10)],
            zone=ReadingZone(
                max_range_m=0.45,
                antenna=DirectionalAntenna(beamwidth_deg=45.0, boresight=(0.0, 0.0, -1.0)),
            ),
            antenna_position=TrajectoryAntennaPosition(trajectory),
            tag_position=None,
            duration_s=trajectory.duration_s,
            seed=17,
        )

    def test_clean_calendar_needs_no_correction(self):
        reader, table, oracle = fused_and_oracle(self.case())
        assert table.to_read_log().reads == oracle.reads
        assert reader.last_sweep_stats["zone_corrections"] == 0

    def test_wrong_cell_is_corrected_and_counted(self, monkeypatch):
        case = self.case()
        oracle = scalar_sweep(case.reader(), *case.sweep_args())
        corrupted = hide_first_transition(monkeypatch)
        reader = case.reader()
        table = reader.sweep_events(*case.sweep_args())
        assert corrupted, "no calendar stretch saw a membership change"
        assert reader.last_sweep_stats["zone_corrections"] >= 1
        assert table.to_read_log().reads == oracle.reads
