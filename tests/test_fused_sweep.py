"""Equivalence, property, and rollback tests for the fused two-phase sweep.

The fused engine (phase 1: rng-owning scheduling loop emitting a whole-sweep
event table; phase 2: one fused physics pass) must be **bit-identical** to
the read-at-a-time oracle (``tests/oracles/scalar_sweep.py``) on every
workload — including the leaderboard scenarios at their leaderboard seeds,
and channels whose deep fades defeat the optimistic noise schedule, so the
scheduler finishes the sweep in verified blocks (a hypothesis property draws
clean and verified sweeps, pathological channels included).  A seeded golden
trace pins the fused output independently, a property test pins the
``sweep_stream`` ↔ event-table replay contract, and another pins that the
physics of contiguous event blocks concatenates to the whole table's, which
the verified blocks rely on.
"""

import dataclasses
import time
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.motion.scenarios import StaticAntennaPosition, SweepScenario
from repro.rf.geometry import Point3D
from repro.rf.noise import NOISELESS, NoiseModel
from repro.rfid.aloha import FrameSlottedAloha, QAlgorithm
from repro.rfid.coupling import NeighborGrid
from repro.rfid.reader import VERIFY_BLOCK_ROUNDS, RFIDReader
from repro.rfid.reading import ReadLog
from repro.rfid.tag import make_tags
from repro.scenarios import DEFAULT_SEED, SEED_STRIDE, default_registry
from repro.scenarios.builders import scenario_experiment
from repro.simulation.collector import collect_sweep, profiles_from_read_log
from repro.simulation.presets import (
    standard_antenna_moving_scene,
    standard_reader_config,
    standard_tag_moving_scene,
)
from repro.simulation.scene import Scene
from repro.workloads.airport import MORNING_PEAK, baggage_batch
from repro.workloads.library import generate_bookshelf
from repro.workloads.warehouse import ConveyorConfig, conveyor_batch, conveyor_scene

from oracles.positions import ConstantVelocityTagPositions, diagonal_positions
from oracles.scalar_sweep import (
    SlotOutcome,
    on_slot,
    round_duration_s,
    run_round,
    scalar_scene_log,
)


def assert_identical(fused: ReadLog, oracle: ReadLog) -> None:
    assert len(oracle) > 0
    assert len(fused) == len(oracle)
    for index, (a, b) in enumerate(zip(fused.reads, oracle.reads)):
        assert a == b, f"read {index} diverged: {a} vs {b}"


def assert_matches_oracle(make_scene) -> None:
    """The fused sweep of a fresh scene equals the oracle's, read for read."""
    assert_identical(collect_sweep(make_scene()).read_log, scalar_scene_log(make_scene()))


class TestFusedOracleEquivalence:
    """fused == scalar oracle, field for field, on every workload."""

    def test_library_workload(self):
        shelf = generate_bookshelf(levels=2, books_per_level=6, seed=21)
        tags = shelf.to_tags(seed=21)
        assert_matches_oracle(lambda: standard_antenna_moving_scene(tags, seed=21))

    def test_airport_workload(self):
        batch = baggage_batch(MORNING_PEAK, bag_count=6, seed=22)
        assert_matches_oracle(lambda: standard_tag_moving_scene(batch.tags, seed=22))

    def test_warehouse_workload(self):
        config = ConveyorConfig(lanes=2, cartons_per_lane=3)
        assert_matches_oracle(
            lambda: conveyor_scene(conveyor_batch(config, seed=23), seed=23)
        )

    def test_moving_tags_with_coupling_disabled(self):
        batch = baggage_batch(MORNING_PEAK, bag_count=5, seed=31)

        def make_scene():
            scene = standard_tag_moving_scene(batch.tags, seed=31)
            return dataclasses.replace(
                scene,
                reader_config=dataclasses.replace(
                    scene.reader_config, tag_coupling_coefficient=0.0
                ),
            )

        assert_matches_oracle(make_scene)

    def test_plain_callable_positions(self):
        tags = make_tags([Point3D(i * 0.07, 0.0, 0.0) for i in range(4)], seed=4)
        starts = tags.positions()

        def wobble(tag_id, t):
            start = starts[tag_id]
            return Point3D(start.x - 0.25 * t, start.y + 0.01 * np.sin(t), start.z)

        def make_scene():
            scenario = SweepScenario(
                antenna_position=StaticAntennaPosition(Point3D(-0.2, -0.15, 0.3)),
                tag_position=wobble,
                duration_s=3.0,
                description="custom closure",
            )
            return Scene(
                tags=tags,
                scenario=scenario,
                reader_config=standard_reader_config(tags, seed=4),
                seed=4,
            )

        assert_matches_oracle(make_scene)


class TestLeaderboardSeedsMatchOracle:
    """fused == oracle on the leaderboard's legacy trio at its exact seeds."""

    @pytest.mark.parametrize("scenario", ["library", "airport", "warehouse"])
    def test_leaderboard_scenario(self, scenario):
        registry = default_registry()
        seed = DEFAULT_SEED + SEED_STRIDE * registry.index_of(scenario)
        experiment = scenario_experiment(0, seed, registry.get(scenario))
        assert_identical(experiment.read_log, scalar_scene_log(experiment.scene))


def shortened(scene: Scene, duration_s: float) -> Scene:
    """``scene`` with its sweep cut to at most ``duration_s`` seconds."""
    scenario = dataclasses.replace(
        scene.scenario, duration_s=min(duration_s, scene.scenario.duration_s)
    )
    return dataclasses.replace(scene, scenario=scenario)


def _matrix_library() -> Scene:
    tags = generate_bookshelf(levels=1, books_per_level=5, seed=41).to_tags(seed=41)
    return shortened(standard_antenna_moving_scene(tags, seed=41), 1.2)


def _matrix_airport() -> Scene:
    batch = baggage_batch(MORNING_PEAK, bag_count=4, seed=42)
    return shortened(standard_tag_moving_scene(batch.tags, seed=42), 1.2)


def _matrix_warehouse() -> Scene:
    config = ConveyorConfig(lanes=2, cartons_per_lane=2)
    return shortened(conveyor_scene(conveyor_batch(config, seed=43), seed=43), 1.2)


def _matrix_coupling_off_moving() -> Scene:
    scene = _matrix_airport()
    config = dataclasses.replace(scene.reader_config, tag_coupling_coefficient=0.0)
    return dataclasses.replace(scene, reader_config=config)


def _matrix_deep_fades() -> Scene:
    return shortened(fused_reader_and_scene(threshold_db=-2.0)[1], 1.2)


MATRIX_SCENES = {
    "library": _matrix_library,
    "airport": _matrix_airport,
    "warehouse": _matrix_warehouse,
    "coupling_off_moving": _matrix_coupling_off_moving,
    "deep_fades": _matrix_deep_fades,
}


@lru_cache(maxsize=None)
def matrix_oracle_log(name: str) -> ReadLog:
    return scalar_scene_log(MATRIX_SCENES[name]())


def _sweep_args(scene: Scene) -> tuple:
    scenario = scene.scenario
    return (
        scene.tags,
        scenario.antenna_position,
        scenario.duration_s,
        scenario.tag_position,
        scene.rng(),
    )


def _reader(scene: Scene) -> RFIDReader:
    return RFIDReader(config=scene.reader_config, protocol=scene.protocol)


def _log_via_sweep(scene: Scene) -> ReadLog:
    return _reader(scene).sweep(*_sweep_args(scene))


def _log_via_sweep_events(scene: Scene) -> ReadLog:
    return _reader(scene).sweep_events(*_sweep_args(scene)).to_read_log()


def _log_via_sweep_stream(scene: Scene) -> ReadLog:
    log = ReadLog()
    for batch in _reader(scene).sweep_stream(*_sweep_args(scene)):
        log.extend_batch(batch)
    return log


def _log_via_collect_sweep(scene: Scene) -> ReadLog:
    result = collect_sweep(scene)
    # The profiles are the per-tag view of the same reads.
    expected = profiles_from_read_log(result.read_log)
    assert sorted(result.profiles.profiles) == sorted(expected.profiles)
    for tag_id, profile in result.profiles.profiles.items():
        other = expected.profiles[tag_id]
        assert profile.timestamps_s.tolist() == other.timestamps_s.tolist()
        assert profile.phases_rad.tolist() == other.phases_rad.tolist()
    return result.read_log


ENTRY_POINTS = {
    "sweep": _log_via_sweep,
    "sweep_events": _log_via_sweep_events,
    "sweep_stream": _log_via_sweep_stream,
    "collect_sweep": _log_via_collect_sweep,
}


class TestEntryPointsMatchOracle:
    """Every public way into the fused engine yields the oracle's read log."""

    @pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("scene_name", list(MATRIX_SCENES))
    def test_entry_point(self, scene_name, entry_point):
        log = ENTRY_POINTS[entry_point](MATRIX_SCENES[scene_name]())
        assert_identical(log, matrix_oracle_log(scene_name))


def random_scene(seed: int) -> Scene:
    """A small seeded scene with random layout, motion, noise and coupling."""
    rng = np.random.default_rng(1000 + seed)
    count = int(rng.integers(2, 7))
    xs = np.cumsum(rng.uniform(0.03, 0.15, size=count))
    ys = rng.uniform(-0.08, 0.08, size=count)
    tags = make_tags([Point3D(float(x), float(y), 0.0) for x, y in zip(xs, ys)], seed=seed)
    noise = NoiseModel(
        phase_noise_std_rad=float(rng.uniform(0.05, 0.3)),
        rssi_noise_std_db=float(rng.uniform(0.5, 2.5)),
        random_dropout_probability=float(rng.uniform(0.0, 0.15)),
        fade_dropout_threshold_db=float(rng.uniform(-12.0, -1.0)),
    )
    make_scene = (
        standard_tag_moving_scene if rng.integers(2) else standard_antenna_moving_scene
    )
    coefficient = float(rng.choice([0.0, 0.4, 0.75, 1.0]))
    scene = make_scene(tags, seed=seed, noise=noise)
    config = dataclasses.replace(
        scene.reader_config, tag_coupling_coefficient=coefficient
    )
    return shortened(dataclasses.replace(scene, reader_config=config), 1.2)


class TestRandomScenesMatchOracle:
    """Property: fused == oracle on randomly drawn small scenes."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_scene(self, seed):
        assert_matches_oracle(lambda: random_scene(seed))


class TestFusedGoldenTrace:
    """Seeded golden trace through the fused engine."""

    def test_standard_scene_trace(self):
        positions = [Point3D(i * 0.08, 0.06 * (i % 2), 0.0) for i in range(8)]
        tags = make_tags(positions, seed=2015)
        scene = standard_antenna_moving_scene(tags, seed=2015)
        log = collect_sweep(scene).read_log
        columns = log.columns()
        assert len(log) == 807
        assert len(log.tag_ids()) == 8
        assert columns["timestamp_s"][0] == pytest.approx(0.00565, abs=1e-12)
        assert columns["timestamp_s"][-1] == pytest.approx(3.79815, abs=1e-9)
        assert float(np.sum(columns["phase_rad"])) == pytest.approx(
            2705.4266922855413, rel=1e-9
        )
        assert float(np.mean(columns["rssi_dbm"])) == pytest.approx(
            -52.325700729690084, rel=1e-9
        )


def fused_reader_and_scene(
    threshold_db: float, dropout_p: float = 0.10, seed: int = 2015, tag_count: int = 8
):
    """A seeded scene whose noise model uses the given deep-fade threshold."""
    noise = NoiseModel(
        phase_noise_std_rad=0.25,
        rssi_noise_std_db=2.0,
        random_dropout_probability=dropout_p,
        fade_dropout_threshold_db=threshold_db,
    )
    positions = [Point3D(i * 0.08, 0.06 * (i % 2), 0.0) for i in range(tag_count)]
    tags = make_tags(positions, seed=seed)
    scene = standard_antenna_moving_scene(tags, seed=seed, noise=noise)
    reader = RFIDReader(config=scene.reader_config, protocol=scene.protocol)
    return reader, scene


def late_fades_reader_and_scene():
    """A seeded scene whose first deep fade comes late in the sweep.

    No reflectors and a short reading range: the lone tag read first sees
    no fade at all, and the fades only start once the antenna reaches the
    closely coupled cluster at the far end — often enough to exhaust the
    optimistic attempts.
    """
    noise = NoiseModel(
        phase_noise_std_rad=0.25,
        rssi_noise_std_db=2.0,
        random_dropout_probability=0.10,
        fade_dropout_threshold_db=-1.0,
    )
    positions = [Point3D(0.0, 0.0, 0.0)] + [
        Point3D(0.8 + 0.03 * i, 0.02 * (i % 2), 0.0) for i in range(6)
    ]
    tags = make_tags(positions, seed=2015)
    scene = standard_antenna_moving_scene(tags, seed=2015, noise=noise)
    config = standard_reader_config(
        tags, seed=2015, noise=noise, reflector_count=0, max_range_m=0.5
    )
    scene = dataclasses.replace(scene, reader_config=config)
    reader = RFIDReader(config=scene.reader_config, protocol=scene.protocol)
    return reader, scene


def record_passes(monkeypatch: pytest.MonkeyPatch, reader: RFIDReader) -> list[dict]:
    """Record every whole-table physics pass of ``reader``'s sweeps, in order.

    Each entry holds copies of the pass's event-table columns and its round
    count.
    """
    passes: list[dict] = []
    observe = reader._observe_events

    def recording(setup, antenna_position, table):
        observe(setup, antenna_position, table)
        entry = {name: getattr(table, name).copy() for name in TABLE_COLUMNS}
        entry["round_count"] = table.round_count
        passes.append(entry)

    monkeypatch.setattr(reader, "_observe_events", recording)
    return passes


TABLE_COLUMNS = (
    "round_ids",
    "times_s",
    "tag_indices",
    "dropped",
    "phase_noise_rad",
    "rssi_noise_db",
    "assumed_deep",
    "deep_fade",
    "phase_rad",
    "rssi_dbm",
    "readable",
)


def first_mistaken_round(entry: dict) -> int:
    """The first round whose drawn-under booleans a pass found wrong."""
    mistaken = entry["deep_fade"] != entry["assumed_deep"]
    assert mistaken.any()
    return int(entry["round_ids"][int(np.argmax(mistaken))])


def patch_physics(monkeypatch: pytest.MonkeyPatch, reader: RFIDReader, wrap) -> None:
    """Route ``reader._sweep_physics(*args)`` through ``wrap(physics, in_pass, *args)``.

    ``in_pass`` is true for the whole-table pass's own call and false for
    the verified blocks' calls inside a scheduling pass.
    """
    in_pass: list[bool] = []
    physics = reader._sweep_physics
    observe = reader._observe_events

    def flagged_observe(*args):
        in_pass.append(True)
        try:
            observe(*args)
        finally:
            in_pass.pop()

    monkeypatch.setattr(
        reader, "_sweep_physics", lambda *args: wrap(physics, bool(in_pass), *args)
    )
    monkeypatch.setattr(reader, "_observe_events", flagged_observe)


def run_fused(reader: RFIDReader, scene: Scene) -> ReadLog:
    return reader.sweep(
        scene.tags,
        scene.scenario.antenna_position,
        scene.scenario.duration_s,
        scene.scenario.tag_position,
        scene.rng(),
    )


class TestOptimisticScheduleRollback:
    """The optimistic schedule and its verified blocks stay exact under deep fades."""

    def test_default_channel_needs_one_attempt(self):
        reader, scene = fused_reader_and_scene(threshold_db=-10.0)
        log = run_fused(reader, scene)
        assert len(log) > 0
        stats = reader.last_sweep_stats
        assert stats["attempts"] == 1
        assert stats["rolled_back_rounds"] == 0
        assert stats["per_round_fallback"] is False
        assert stats["scheduling_s"] > 0.0
        assert stats["physics_s"] > 0.0

    @pytest.mark.parametrize("threshold_db", [-6.0, -2.0, 0.0, 3.0])
    def test_deep_fades_stay_bit_identical(self, threshold_db):
        reader, scene = fused_reader_and_scene(threshold_db)
        fused = run_fused(reader, scene)
        _, scalar_scene = fused_reader_and_scene(threshold_db)
        scalar = scalar_scene_log(scalar_scene)
        assert fused.reads == scalar.reads
        # The thresholds are deep enough into the fade distribution that the
        # optimistic first attempt cannot have been clean.
        stats = reader.last_sweep_stats
        assert stats["attempts"] == 2
        assert stats["rolled_back_rounds"] > 0
        assert stats["per_round_fallback"] is False

    def test_pathological_channel_is_verified_in_blocks(self):
        # Deep fades on many rounds: one optimistic pass, then one verified
        # pass that corrects every mis-guessed round, never a third.
        reader, scene = fused_reader_and_scene(threshold_db=3.0)
        fused = run_fused(reader, scene)
        stats = reader.last_sweep_stats
        assert stats["attempts"] == 2
        assert stats["rolled_back_rounds"] > VERIFY_BLOCK_ROUNDS
        assert stats["per_round_fallback"] is False
        _, scalar_scene = fused_reader_and_scene(threshold_db=3.0)
        scalar = scalar_scene_log(scalar_scene)
        assert fused.reads == scalar.reads

    def test_block_physics_time_is_split_into_the_counters(self, monkeypatch):
        # Every physics evaluation, the verified blocks' inside the
        # scheduling pass included, is booked as physics, never as
        # scheduling.
        reader, scene = fused_reader_and_scene(threshold_db=3.0)
        timings = {"block": [], "pass": []}

        def timed(physics, in_pass, *args):
            tick = time.perf_counter()
            result = physics(*args)
            timings["pass" if in_pass else "block"].append(time.perf_counter() - tick)
            return result

        patch_physics(monkeypatch, reader, timed)
        tick = time.perf_counter()
        run_fused(reader, scene)
        wall = time.perf_counter() - tick
        stats = reader.last_sweep_stats
        assert stats["attempts"] == 2
        # One evaluation per checked block or correction, one per pass.
        assert len(timings["block"]) > VERIFY_BLOCK_ROUNDS
        assert len(timings["pass"]) == stats["attempts"]
        assert stats["physics_s"] >= sum(timings["block"]) + sum(timings["pass"])
        assert stats["scheduling_s"] > 0.0
        assert stats["scheduling_s"] + stats["physics_s"] <= wall

    def test_late_first_misguess_keeps_the_optimistic_prefix(self, monkeypatch):
        reader, scene = late_fades_reader_and_scene()
        passes = record_passes(monkeypatch, reader)
        fused = run_fused(reader, scene)
        stats = reader.last_sweep_stats
        assert stats["attempts"] == len(passes) == 2
        # The verified pass starts at the first mis-guessed round, far into
        # the sweep.  The optimistic rows before it stand, column for
        # column, and the closing pass agrees with every boolean drawn.
        optimistic, verified = passes
        first = first_mistaken_round(optimistic)
        assert first >= 100
        before = int(np.searchsorted(optimistic["round_ids"], first))
        assert before > 0
        assert int(np.searchsorted(verified["round_ids"], first)) == before
        for name in TABLE_COLUMNS:
            assert np.array_equal(verified[name][:before], optimistic[name][:before]), name
        assert np.array_equal(verified["deep_fade"], verified["assumed_deep"])
        _, scalar_scene = late_fades_reader_and_scene()
        assert fused.reads == scalar_scene_log(scalar_scene).reads

    def test_block_evaluation_that_disagrees_with_the_closing_pass_raises(
        self, monkeypatch
    ):
        # The verified blocks correct their rounds to the booleans their own
        # evaluation gives, which the closing pass must confirm; corrupt the
        # blocks' evaluation and no table may come back.
        reader, scene = fused_reader_and_scene(threshold_db=3.0)

        def inverted_outside_pass(physics, in_pass, *args):
            result = physics(*args)
            if in_pass:
                return result
            return dataclasses.replace(result, deep_fade=~result.deep_fade)

        patch_physics(monkeypatch, reader, inverted_outside_pass)
        with pytest.raises(RuntimeError, match="closing physics pass"):
            run_fused(reader, scene)

    def test_verified_blocks_bound_the_replay(self, monkeypatch):
        # After the optimistic pass, the schedule replays the tail from the
        # first mis-guessed round once, plus at most one block per
        # correction, and evaluates physics once per block and correction
        # besides the two whole-table passes.
        reader, scene = fused_reader_and_scene(threshold_db=3.0)
        passes = record_passes(monkeypatch, reader)
        schedule = reader.protocol.run_round_schedule
        physics = reader._sweep_physics
        rounds_after_pass: list[int] = []
        physics_calls: list[int] = []

        def counting_schedule(*args):
            rounds_after_pass.append(len(passes))
            return schedule(*args)

        def counting_physics(*args):
            physics_calls.append(len(passes))
            return physics(*args)

        monkeypatch.setattr(reader.protocol, "run_round_schedule", counting_schedule)
        monkeypatch.setattr(reader, "_sweep_physics", counting_physics)
        fused = run_fused(reader, scene)
        stats = reader.last_sweep_stats
        assert stats["attempts"] == len(passes) == 2
        assert stats["zone_corrections"] == 0
        corrections = stats["rolled_back_rounds"]
        round_count = passes[-1]["round_count"]
        first = first_mistaken_round(passes[0])
        blocks = (round_count - 1) // VERIFY_BLOCK_ROUNDS - first // VERIFY_BLOCK_ROUNDS + 1
        replayed = rounds_after_pass.count(1)
        assert replayed >= round_count - first
        assert replayed <= round_count - first + VERIFY_BLOCK_ROUNDS * corrections
        assert len(physics_calls) <= blocks + corrections + 2
        _, scalar_scene = fused_reader_and_scene(threshold_db=3.0)
        assert fused.reads == scalar_scene_log(scalar_scene).reads

    def test_deep_fades_without_dropouts_never_roll_back(self):
        # With p == 0 no dropout uniform is ever drawn, so deep fades cannot
        # shift the rng stream — one attempt, with dropped |= deep applied
        # in the physics pass.
        reader, scene = fused_reader_and_scene(threshold_db=0.0, dropout_p=0.0)
        fused = run_fused(reader, scene)
        stats = reader.last_sweep_stats
        assert stats["attempts"] == 1
        assert stats["rolled_back_rounds"] == 0
        assert stats["per_round_fallback"] is False
        _, scalar_scene = fused_reader_and_scene(threshold_db=0.0, dropout_p=0.0)
        scalar = scalar_scene_log(scalar_scene)
        assert fused.reads == scalar.reads

    def test_noiseless_channel(self):
        positions = [Point3D(i * 0.08, 0.0, 0.0) for i in range(6)]
        tags = make_tags(positions, seed=11)
        assert_matches_oracle(
            lambda: standard_antenna_moving_scene(tags, seed=11, noise=NOISELESS)
        )


@dataclasses.dataclass(frozen=True)
class FadeCase:
    """One generated fade-heavy sweep: :func:`fused_reader_and_scene`'s inputs."""

    threshold_db: float
    dropout_p: float
    seed: int
    tag_count: int

    def scene(self) -> tuple[RFIDReader, Scene]:
        reader, scene = fused_reader_and_scene(
            self.threshold_db, self.dropout_p, self.seed, self.tag_count
        )
        return reader, shortened(scene, 1.2)


def sweep_mode(stats: dict) -> str:
    """Which path a sweep took: clean, or finished in verified blocks."""
    return "verified" if stats["rolled_back_rounds"] else "clean"


FADE_EXAMPLES = {
    "clean": FadeCase(threshold_db=-10.0, dropout_p=0.10, seed=2015, tag_count=8),
    "verified": FadeCase(threshold_db=-8.0, dropout_p=0.10, seed=2015, tag_count=8),
}

PATHOLOGICAL_FADES = FadeCase(threshold_db=3.0, dropout_p=0.10, seed=2015, tag_count=8)
"""Deep fades on most rounds: the verified blocks correct many of them."""

fade_cases = st.builds(
    FadeCase,
    # Sweeps with few mis-guessed rounds need a narrow band of thresholds,
    # drawn as often as the whole range.
    threshold_db=st.one_of(st.floats(-7.0, -3.0), st.floats(-14.0, 4.0)),
    # About a quarter of the draws turn dropouts off, the path that never
    # rolls back.
    dropout_p=st.floats(-0.1, 0.3).map(lambda p: max(p, 0.0)),
    seed=st.integers(0, 2**16),
    tag_count=st.integers(2, 8),
)


class TestFadeScenesMatchOracle:
    """Property: fused == oracle across clean and verified sweeps."""

    @settings(max_examples=25, deadline=None)
    @given(case=fade_cases)
    @example(case=FADE_EXAMPLES["clean"])
    @example(case=FADE_EXAMPLES["verified"])
    @example(case=PATHOLOGICAL_FADES)
    def test_fused_equals_oracle(self, case):
        reader, scene = case.scene()
        fused = run_fused(reader, scene)
        event(sweep_mode(reader.last_sweep_stats))
        assert fused.reads == scalar_scene_log(case.scene()[1]).reads

    @pytest.mark.parametrize("mode", sorted(FADE_EXAMPLES))
    def test_strategy_reaches_every_mode(self, mode):
        # The explicit examples are points of the strategy's domain, one
        # per path through the scheduler.
        reader, scene = FADE_EXAMPLES[mode].scene()
        run_fused(reader, scene)
        assert sweep_mode(reader.last_sweep_stats) == mode
        assert reader.last_sweep_stats["attempts"] == (2 if mode == "verified" else 1)


def _moving_with_coupling() -> Scene:
    """The airport scene's bags on an oblique constant-velocity track."""
    scene = _matrix_airport()
    provider = ConstantVelocityTagPositions(
        scene.tags.tag_ids, scene.tags.position_array, (-0.3, 0.02, 0.01)
    )
    scenario = dataclasses.replace(scene.scenario, tag_position=provider)
    return dataclasses.replace(scene, scenario=scenario)


BLOCK_LAYOUTS = {
    "static_coupled": _matrix_library,
    "moving_coupled": _moving_with_coupling,
    "belt": _matrix_warehouse,
}


@lru_cache(maxsize=None)
def layout_events(name: str) -> tuple:
    """A layout's swept events and their whole-table physics."""
    scene = BLOCK_LAYOUTS[name]()
    reader = _reader(scene)
    table = reader.sweep_events(*_sweep_args(scene))
    antenna = scene.scenario.antenna_position
    setup = reader._sweep_setup(scene.tags, scene.scenario.tag_position, antenna)
    assert setup.coupling_on
    assert setup.static_layout == (name == "static_coupled")
    whole = reader._sweep_physics(setup, antenna, table.times_s, table.tag_indices)
    return reader, setup, antenna, table.times_s, table.tag_indices, whole


class TestBlockPhysicsComposes:
    """Property: the physics of contiguous event blocks is the whole table's.

    The verified blocks evaluate a few rounds' events at a time and the
    closing pass the whole table; both must give the same bits.
    """

    @settings(max_examples=40, deadline=None)
    @given(layout=st.sampled_from(sorted(BLOCK_LAYOUTS)), data=st.data())
    def test_blocks_concatenate_to_the_whole_table(self, layout, data):
        reader, setup, antenna, times, tag_indices, whole = layout_events(layout)
        count = times.size
        cuts = data.draw(
            st.lists(st.integers(1, count - 1), unique=True, max_size=24).map(sorted)
        )
        bounds = [0, *cuts, count]
        blocks = [
            reader._sweep_physics(setup, antenna, times[start:stop], tag_indices[start:stop])
            for start, stop in zip(bounds, bounds[1:])
        ]
        for field in dataclasses.fields(whole):
            expected = getattr(whole, field.name)
            joined = np.concatenate([getattr(block, field.name) for block in blocks])
            assert joined.dtype == expected.dtype, field.name
            assert joined.tobytes() == expected.tobytes(), field.name


class TestEventTableContract:
    """The event table is the schema both sweep() and sweep_stream() replay."""

    def _scene(self):
        positions = [Point3D(i * 0.08, 0.06 * (i % 2), 0.0) for i in range(8)]
        tags = make_tags(positions, seed=2015)
        return standard_antenna_moving_scene(tags, seed=2015)

    def _table(self):
        scene = self._scene()
        reader = RFIDReader(config=scene.reader_config, protocol=scene.protocol)
        return reader.sweep_events(
            scene.tags,
            scene.scenario.antenna_position,
            scene.scenario.duration_s,
            scene.scenario.tag_position,
            scene.rng(),
        )

    def test_stream_batches_concatenate_to_event_table(self):
        # Property: the concatenation of sweep_stream's per-round batches is
        # exactly the table's readable rows — same timestamps, tags, phases,
        # RSSI, and per-round grouping.
        table = self._table()
        scene = self._scene()
        reader = RFIDReader(config=scene.reader_config, protocol=scene.protocol)
        batches = list(
            reader.sweep_stream(
                scene.tags,
                scene.scenario.antenna_position,
                scene.scenario.duration_s,
                scene.scenario.tag_position,
                scene.rng(),
            )
        )
        readable = np.nonzero(table.readable)[0]
        streamed_times = np.concatenate([b.timestamps_s for b in batches])
        streamed_ids = [tag_id for b in batches for tag_id in b.tag_ids]
        streamed_phases = np.concatenate([b.phases_rad for b in batches])
        streamed_rssis = np.concatenate([b.rssi_dbm for b in batches])
        # Within a round the batch is time-sorted while the table is in slot
        # order; sorting each round's table rows the same way must reproduce
        # the stream exactly.
        expected_rows = []
        for round_id in dict.fromkeys(table.round_ids[readable].tolist()):
            rows = readable[table.round_ids[readable] == round_id]
            expected_rows.extend(rows[np.argsort(table.times_s[rows], kind="stable")])
        expected_rows = np.array(expected_rows, dtype=np.intp)
        ids = table.tag_ids
        assert streamed_times.tolist() == table.times_s[expected_rows].tolist()
        assert streamed_ids == [ids[table.tag_indices[i]] for i in expected_rows]
        assert streamed_phases.tolist() == table.phase_rad[expected_rows].tolist()
        assert streamed_rssis.tolist() == table.rssi_dbm[expected_rows].tolist()
        assert len(batches) == len(set(table.round_ids[readable].tolist()))
        assert [b.round_index for b in batches] == list(range(len(batches)))

    def test_table_rows_are_round_major(self):
        table = self._table()
        assert len(table) > 0
        assert np.all(np.diff(table.round_ids) >= 0)
        # Within a round, slot end times are increasing.
        for round_id in np.unique(table.round_ids):
            times = table.times_s[table.round_ids == round_id]
            assert np.all(np.diff(times) > 0)
        assert table.round_count >= int(table.round_ids[-1]) + 1
        assert table.observed
        assert table.deep_fade.shape == table.times_s.shape
        # No deep fades in the standard scene: the drawn dropout decisions
        # are the final ones and readable == ~dropped (link budget allowing).
        assert not table.deep_fade.any()

    def test_to_read_log_matches_sweep(self):
        table = self._table()
        log = collect_sweep(self._scene()).read_log
        assert table.to_read_log() == log

    def test_unobserved_table_refuses_replay(self):
        from repro.rfid.event_table import SweepEventTable

        table = SweepEventTable(tag_ids=["a"], channel_index=6, antenna_port=1)
        with pytest.raises(ValueError, match="no observables"):
            table.to_read_log()
        with pytest.raises(ValueError, match="no observables"):
            list(table.iter_round_batches())


class TestRunRoundSchedule:
    """The array-native round is the exact twin of the slot-by-slot oracle."""

    @pytest.mark.parametrize("population", [0, 1, 3, 17, 60])
    def test_matches_run_round(self, population):
        tag_ids = [f"tag-{i:03d}" for i in range(population)]
        start = 1.2345

        reference = FrameSlottedAloha()
        rng_a = np.random.default_rng(99)
        events = run_round(reference, tag_ids, start, rng_a)
        expected_ids: list[str] = []
        expected_ends: list[float] = []
        for event in events:
            if event.outcome is SlotOutcome.SUCCESS and event.tag_id is not None:
                expected_ids.append(event.tag_id)
                expected_ends.append(event.end_time_s)
        expected_duration = round_duration_s(reference, events)

        scheduled = FrameSlottedAloha()
        rng_b = np.random.default_rng(99)
        success_ids, success_ends, duration = scheduled.run_round_schedule(
            tag_ids, start, rng_b
        )

        assert list(success_ids) == expected_ids
        assert success_ends.tolist() == expected_ends
        assert duration == expected_duration
        # Identical protocol state and rng state afterwards.
        assert scheduled.scheduling_checkpoint() == reference.scheduling_checkpoint()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_multi_round_state_walk(self):
        # Alternate implementations across rounds: every prefix through
        # either implementation leaves the same Q and rng state.
        tag_ids = [f"t{i}" for i in range(9)]
        via_events = FrameSlottedAloha()
        via_schedule = FrameSlottedAloha()
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        clock_a = clock_b = 0.0
        for _ in range(12):
            events = run_round(via_events, tag_ids, clock_a, rng_a)
            clock_a += round_duration_s(via_events, events)
            _, _, duration = via_schedule.run_round_schedule(tag_ids, clock_b, rng_b)
            clock_b += duration
            assert clock_a == clock_b
            assert (
                via_events.scheduling_checkpoint()
                == via_schedule.scheduling_checkpoint()
            )
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    # (population, starting q_fp, rounds, QAlgorithm overrides, pins to the
    # floor and collides there).  Populations and frames reach the dense
    # hall's last rounds: ~1,500 tags over up to 2**15 slots.
    DENSE_WALKS = {
        "q15-floor-then-collisions": (1540, 15.0, 2, {}, True),
        "q15-multi-round": (400, 15.0, 5, {}, True),
        "q0-climb": (2000, 0.0, 40, {}, True),
        "q11.6": (2000, 11.6, 3, {}, True),
        "q10.6-short-runs": (1500, 10.6, 3, {}, True),
        "balanced-off-the-clamps": (1174, 10.0, 2, {"c": 0.1}, False),
        "q7.4-ceiling-then-floor": (1000, 7.4, 3, {}, True),
        "narrow-range-small-step": (1200, 13.0, 3, {"c": 0.1, "q_min": 2.0, "q_max": 13.0}, True),
        "zero-step": (300, 9.0, 2, {"c": 0.0}, False),
        "start-below-floor": (50, 0.0, 6, {"c": 0.45, "q_min": 3.0}, True),
    }

    @pytest.mark.parametrize("case", sorted(DENSE_WALKS))
    def test_dense_hall_scale_walk(self, case):
        # run_round walks the Q rule slot by slot; run_round_schedule
        # steps over runs of empty slots.  Every round of both must agree
        # exactly: winners, end times, duration, q_fp and rng state.
        population, q_fp, rounds, overrides, pins_floor = self.DENSE_WALKS[case]
        tag_ids = [f"tag-{i:04d}" for i in range(population)]
        via_events = FrameSlottedAloha()
        via_schedule = FrameSlottedAloha()
        for protocol in (via_events, via_schedule):
            protocol._q_algorithm = QAlgorithm(q_fp=q_fp, **overrides)
        rng_a = np.random.default_rng(2015)
        rng_b = np.random.default_rng(2015)
        clock = 3.25
        floor_then_collision = False
        for _ in range(rounds):
            replay = dataclasses.replace(via_events._q_algorithm)
            events = run_round(via_events, tag_ids, clock, rng_a)
            success_ids, success_ends, duration = via_schedule.run_round_schedule(
                tag_ids, clock, rng_b
            )
            successes = [e for e in events if e.outcome is SlotOutcome.SUCCESS]
            assert list(success_ids) == [e.tag_id for e in successes]
            assert success_ends.tolist() == [e.end_time_s for e in successes]
            assert duration == round_duration_s(via_events, events)
            expected_q = via_events.scheduling_checkpoint()
            assert via_schedule.scheduling_checkpoint().hex() == float(expected_q).hex()
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            for event in events:
                if event.outcome is SlotOutcome.COLLISION and replay.q_fp == replay.q_min:
                    floor_then_collision = True
                on_slot(replay, event.outcome)
            clock += duration
        assert floor_then_collision == pins_floor


class TestNeighborCSR:
    """The CSR packing reproduces per-row neighbour lookups exactly."""

    def test_packed_matches_single_row_packing(self):
        rng = np.random.default_rng(3)
        positions = rng.uniform(-0.4, 0.4, size=(40, 3))
        grid = NeighborGrid(positions, 0.15)
        counts, offsets, flat = grid.packed_neighbors()
        for index in range(len(positions)):
            packed = flat[offsets[index] : offsets[index] + counts[index]]
            assert packed.tolist() == grid.packed_neighbors(np.array([index]))[2].tolist()

    def test_neighbors_for_events(self):
        rng = np.random.default_rng(4)
        positions = rng.uniform(-0.3, 0.3, size=(25, 3))
        grid = NeighborGrid(positions, 0.15)
        tag_indices = np.array([3, 3, 17, 0, 24, 3], dtype=np.intp)
        event_index, neighbor_index = grid.neighbors_for_events(tag_indices)
        expected_events: list[int] = []
        expected_neighbors: list[int] = []
        for event, tag in enumerate(tag_indices):
            for neighbor in grid.packed_neighbors(np.array([tag]))[2]:
                expected_events.append(event)
                expected_neighbors.append(int(neighbor))
        assert event_index.tolist() == expected_events
        assert neighbor_index.tolist() == expected_neighbors

    def test_no_neighbors(self):
        grid = NeighborGrid(np.array([[0.0, 0, 0], [5.0, 0, 0]]), 0.1)
        event_index, neighbor_index = grid.neighbors_for_events(
            np.array([0, 1], dtype=np.intp)
        )
        assert event_index.size == 0
        assert neighbor_index.size == 0


class TestPairedPositionQueries:
    """Native paired queries equal the cross-product diagonal bitwise."""

    def test_providers(self):
        from repro.motion.scenarios import BeltTagPositions, StaticTagPositions
        from repro.motion.speed_profiles import jittered_speed_profile

        ids = ["a", "b", "c"]
        starts = np.array([[0.0, 0.1, 0.0], [0.4, -0.1, 0.0], [-0.2, 0.05, 0.1]])
        providers = [
            StaticTagPositions(ids, starts),
            ConstantVelocityTagPositions(ids, starts, (-0.3, 0.02, 0.01)),
            BeltTagPositions(
                ids,
                starts,
                jittered_speed_profile(0.25, 5.0, rng=np.random.default_rng(9)),
            ),
        ]
        event_ids = ["a", "c", "c", "b", "a"]
        times = np.array([0.0, 0.7, 1.3, 2.9, 4.1])
        for provider in providers:
            rows = provider.rows_for(event_ids)
            assert rows.tolist() == [0, 2, 2, 1, 0]
            native = provider.positions_paired(rows, times)
            diagonal = diagonal_positions(provider, rows, times)
            assert native.shape == (5, 3)
            assert (native == diagonal).all(), type(provider).__name__
