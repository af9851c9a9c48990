"""Regression tests for the sweep's vectorized building blocks.

The structure-of-arrays RF kernel, the spatial-hash coupling lookups, the
array-native motion sampling and the columnar read log are each pinned
against their scalar forms here; the whole sweep is pinned against the
read-at-a-time oracle in ``tests/test_fused_sweep.py``.  The dense-hall
digests additionally tripwire the coupling-heavy sweep output.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.motion.scenarios import (
    BeltTagPositions,
    StaticAntennaPosition,
    StaticTagPositions,
)
from repro.motion.speed_profiles import (
    PiecewiseSpeedProfile,
    jittered_speed_profile,
)
from repro.motion.trajectory import LinearTrajectory
from repro.rf.channel import BackscatterChannel
from repro.rf.geometry import Point3D, euclidean_distances
from repro.rf.noise import NoiseModel
from repro.rf.phase_model import wrap_phase
from repro.rfid.coupling import _ROW_CHUNK, NeighborGrid
from repro.rfid.reading import ReadLog, TagRead
from repro.rfid.tag import make_tags
from repro.scenarios import showcase_registry
from repro.scenarios.builders import noise_model, scenario_positions, sweep_geometry
from repro.simulation.collector import collect_sweep
from repro.simulation.presets import (
    standard_antenna_moving_scene,
    standard_tag_moving_scene,
)
from repro.workloads.airport import MORNING_PEAK, baggage_batch
from repro.workloads.warehouse import ConveyorConfig, conveyor_batch, conveyor_scene

from oracles.positions import ConstantVelocityTagPositions
from oracles.scalar_sweep import (
    draw_event_noise,
    noisy_phase,
    noisy_rssi,
    observe,
    observe_batch,
    read_dropped,
)


class TestObserveBatchKernel:
    """A batch of reply attempts equals the same attempts observed one by one."""

    def test_sequential_observes_match_batch(self):
        channel = BackscatterChannel()
        antenna = Point3D(0.0, -0.1, 0.3)
        tag_rows = np.array([[0.1 * i, 0.0, 0.0] for i in range(6)])
        batch = observe_batch(
            channel,
            np.broadcast_to(antenna.as_array(), (6, 3)),
            tag_rows,
            np.random.default_rng(5),
        )
        rng = np.random.default_rng(5)
        for i in range(6):
            single = observe(channel, antenna, Point3D(*tag_rows[i]), rng)
            assert single.phase_rad == batch.phase_rad[i]
            assert single.rssi_dbm == batch.rssi_dbm[i]
            assert single.true_distance_m == batch.true_distance_m[i]
            assert single.readable == batch.readable[i]

    def test_coupling_scatterers_match_one_by_one(self):
        channel = BackscatterChannel(quantise=False)
        antenna = Point3D(0.0, 0.0, 0.3)
        tag_rows = np.array([[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]])
        neighbour = Point3D(0.03, 0.0, 0.0)
        batch = observe_batch(
            channel,
            np.broadcast_to(antenna.as_array(), (2, 3)),
            tag_rows,
            np.random.default_rng(6),
            extra_positions=np.array([neighbour.as_array()] * 2),
            extra_event_index=np.array([0, 1]),
            tag_coupling_coefficient=0.75,
            tag_coupling_decay_m=0.022,
        )
        rng = np.random.default_rng(6)
        for i in range(2):
            single = observe(
                channel, antenna, Point3D(*tag_rows[i]), rng, [neighbour], 0.75, 0.022
            )
            assert single.phase_rad == batch.phase_rad[i]
            assert single.rssi_dbm == batch.rssi_dbm[i]


class TestReaderConfigValidation:
    def test_rejects_nonsensical_coupling_parameters(self):
        # A non-positive radius used to crash only the batched path (the
        # NeighborGrid constructor); both paths now reject it up front.
        from repro.rfid.reader import ReaderConfig

        with pytest.raises(ValueError, match="radius"):
            ReaderConfig(tag_coupling_radius_m=0.0)
        with pytest.raises(ValueError, match="decay"):
            ReaderConfig(tag_coupling_decay_m=-0.01)
        with pytest.raises(ValueError, match="coefficient"):
            ReaderConfig(tag_coupling_coefficient=1.5)
        assert ReaderConfig(tag_coupling_coefficient=0.0) is not None


class TestNoiseDrawContract:
    """The oracle's draw_event_noise batches its scalar draws in event order,
    and production's draw_event_noise_scheduled draws the same sequence."""

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseModel(),
            NoiseModel(phase_noise_std_rad=0.0),
            NoiseModel(rssi_noise_std_db=0.0),
            NoiseModel(random_dropout_probability=0.0),
            NoiseModel(
                phase_noise_std_rad=0.0,
                rssi_noise_std_db=0.0,
                random_dropout_probability=0.0,
            ),
        ],
    )
    def test_matches_scalar_method_sequence(self, noise):
        # Fades straddling the -12 dB dropout threshold exercise both the
        # forced-drop path (no uniform draw) and the random-dropout path.
        fades = np.array([-20.0, -3.0, 0.0, -12.0, -11.9, -1.0])
        dropped, phase_noise, rssi_noise = draw_event_noise(
            noise, fades, np.random.default_rng(11)
        )
        rng = np.random.default_rng(11)
        for i, fade in enumerate(fades):
            assert read_dropped(noise, float(fade), rng) == dropped[i]
            assert noisy_phase(noise, 0.3, rng) == wrap_phase(0.3 + phase_noise[i])
            assert noisy_rssi(noise, -50.0, rng) == -50.0 + rssi_noise[i]
        scheduled = noise.draw_event_noise_scheduled(
            fades <= noise.fade_dropout_threshold_db, np.random.default_rng(11)
        )
        for ours, theirs in zip(scheduled, (dropped, phase_noise, rssi_noise)):
            assert np.array_equal(ours, theirs)


def neighbors_of(grid: NeighborGrid, index: int) -> list[int]:
    """The neighbour list of one point, as a packing of that row alone."""
    return grid.packed_neighbors(np.array([index]))[2].tolist()


class TestNeighborGrid:
    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(-0.5, 0.5, size=(60, 3))
        radius = 0.15
        grid = NeighborGrid(positions, radius)
        for index in range(len(positions)):
            brute = [
                j
                for j in range(len(positions))
                if j != index
                and not euclidean_distances(positions[index], positions[j]) > radius
            ]
            assert neighbors_of(grid, index) == brute

    def test_neighbors_sorted(self):
        positions = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.05, 0, 0], [2.0, 0, 0]])
        grid = NeighborGrid(positions, 0.15)
        assert neighbors_of(grid, 0) == [1, 2]
        assert neighbors_of(grid, 3) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            NeighborGrid(np.zeros((2, 3)), 0.0)
        with pytest.raises(ValueError):
            NeighborGrid(np.zeros((2, 2)), 0.1)
        with pytest.raises(ValueError, match="finite"):
            NeighborGrid(np.array([[0.0, np.nan, 0.0]]), 0.1)


def brute_force_neighbors(positions: np.ndarray, radius: float) -> list[list[int]]:
    """The O(N²) oracle: every other point with ``distance <= radius``."""
    distances = euclidean_distances(positions[:, None, :], positions[None, :, :])
    return [
        [j for j in np.flatnonzero(distances[i] <= radius).tolist() if j != i]
        for i in range(len(positions))
    ]


def unpack(packed, size: int) -> list[list[int]]:
    counts, offsets, flat = packed
    return [flat[offsets[k] : offsets[k] + counts[k]].tolist() for k in range(size)]


@st.composite
def grid_layouts(draw, max_points: int = 40):
    """``(positions, radius, rows, events)`` for the neighbour-grid oracle test.

    Coordinates mix exact multiples of the radius (points on cell edges,
    negative ones included) with arbitrary values; some points duplicate an
    earlier one and some sit exactly one radius from an earlier one along
    an axis.  ``rows`` and ``events`` index the points with repeats, in no
    particular order.  About half the layouts are planar, as the dense hall
    is: one shared coordinate (on any axis) and a lattice in the other two,
    queried half the time by more rows than one packing pass takes.
    """
    radius = draw(st.sampled_from([0.05, 0.1, 0.15, 0.3, 1.0]))
    coordinate = st.one_of(
        st.integers(-4, 4).map(lambda k: k * radius),
        st.floats(-1.0, 1.0, allow_nan=False),
    )
    if draw(st.booleans()):
        return draw(planar_layouts(radius, coordinate, max_points))
    points: list[list[float]] = []
    for _ in range(draw(st.integers(0, max_points))):
        kind = draw(st.sampled_from(["fresh", "fresh", "duplicate", "at_radius"]))
        if kind == "fresh" or not points:
            points.append([draw(coordinate) for _ in range(3)])
            continue
        point = list(points[draw(st.integers(0, len(points) - 1))])
        if kind == "at_radius":
            point[draw(st.integers(0, 2))] += draw(st.sampled_from([-radius, radius]))
        points.append(point)
    positions = np.array(points, dtype=float).reshape(-1, 3)
    index = st.integers(0, max(len(points) - 1, 0))
    indices = st.lists(index, max_size=3 * len(points)) if points else st.just([])
    return positions, radius, draw(indices), draw(indices)


@st.composite
def planar_layouts(draw, radius: float, coordinate, max_points: int):
    """A planar branch of :func:`grid_layouts`: lattice points in one plane."""
    axis = draw(st.integers(0, 2))
    level = draw(coordinate)
    spacing = draw(st.sampled_from([0.01, 0.03, radius / 3, radius / 2, radius]))
    lattice = st.integers(-6, 6).map(lambda k: k * spacing)
    points = []
    for _ in range(draw(st.integers(0, max_points))):
        point = [draw(lattice), draw(lattice)]
        point.insert(axis, level)
        points.append(point)
    positions = np.array(points, dtype=float).reshape(-1, 3)
    if not points:
        return positions, radius, [], []
    index = st.integers(0, len(points) - 1)
    row_count = draw(st.sampled_from([0, _ROW_CHUNK + 1]))
    rows = draw(st.lists(index, min_size=row_count, max_size=row_count + 2 * _ROW_CHUNK))
    return positions, radius, rows, draw(st.lists(index, max_size=len(points)))


class TestNeighborGridOracle:
    """Every grid query equals the brute-force scan, on generated layouts."""

    @staticmethod
    def check_against_oracle(positions, radius, rows, events):
        expected = brute_force_neighbors(positions, radius)
        grid = NeighborGrid(positions, radius)
        assert unpack(grid.packed_neighbors(), len(positions)) == expected
        assert unpack(grid.packed_neighbors(np.array(rows, dtype=np.intp)), len(rows)) == [
            expected[row] for row in rows
        ]
        event_index, neighbor_index = grid.neighbors_for_events(
            np.array(events, dtype=np.intp)
        )
        pairs = [(e, n) for e, tag in enumerate(events) for n in expected[tag]]
        assert list(zip(event_index.tolist(), neighbor_index.tolist())) == pairs

    @settings(max_examples=150, deadline=None)
    @given(layout=grid_layouts())
    def test_matches_brute_force(self, layout):
        self.check_against_oracle(*layout)

    @pytest.mark.parametrize(
        "points",
        [[], [[0.3, -0.2, 0.0]], [[0.0, 0.0, 0.0], [0.15, 0.0, 0.0]], [[-0.1] * 3] * 2],
    )
    def test_tiny_populations(self, points):
        positions = np.array(points, dtype=float).reshape(-1, 3)
        rows = list(range(len(points)))[::-1] * 2
        self.check_against_oracle(positions, 0.15, rows, rows)

    def test_rounded_distance_spanning_two_cell_edges(self):
        # -1e-300 floors into cell -1 and 0.15 into cell 1 of an exact 0.15
        # grid, yet their distance rounds to exactly the radius.
        positions = np.array([[-1e-300, 0.0, 0.0], [0.15, 0.0, 0.0]])
        self.check_against_oracle(positions, 0.15, [0, 1], [1, 0])

    def test_rows_spanning_several_chunks(self):
        # More rows than one packing pass takes, in shuffled order.
        rng = np.random.default_rng(6)
        positions = rng.uniform(-0.4, 0.4, size=(300, 3))
        rows = rng.permutation(np.tile(np.arange(300), 2)).tolist()
        self.check_against_oracle(positions, 0.15, rows, rows[::-1])

    @pytest.mark.parametrize("axis", [2, 0, 1])
    def test_planar_lattice_rows_spanning_several_chunks(self, axis):
        # The dense hall's shape: a 3 cm lattice in one plane (z shared, as
        # in the hall, or x or y), points in shuffled order, queried by more
        # rows than one packing pass takes, repeated and shuffled.
        rng = np.random.default_rng(11)
        steps = np.arange(-10, 10) * 0.03
        u, v = np.meshgrid(steps, steps, indexing="ij")
        plane = np.column_stack([u.ravel(), v.ravel()])
        positions = np.insert(plane, axis, 0.9, axis=1)[rng.permutation(len(plane))]
        rows = rng.permutation(np.tile(np.arange(len(positions)), 2))[:300].tolist()
        assert len(rows) > _ROW_CHUNK
        self.check_against_oracle(positions, 0.15, rows, rows[::-1])

    def test_far_outlier_codes_do_not_alias(self):
        # A 1 km outlier at a 1 mm radius spans ~10^18 cells: still inside
        # int64 cell codes, and the padding keeps neighbour codes distinct.
        rng = np.random.default_rng(5)
        cluster = rng.uniform(-0.004, 0.004, size=(30, 3))
        positions = np.vstack([cluster, [[1000.0, 1000.0, 1000.0]]])
        self.check_against_oracle(positions, 0.001, [30, 0, 30], [30, 3, 3])

    def test_extent_beyond_int64_codes_raises(self):
        positions = np.array([[-1000.0, -1000.0, -1000.0], [1000.0, 1000.0, 1000.0]])
        with pytest.raises(ValueError, match="extent"):
            NeighborGrid(positions, 0.0001)


def dense_hall_slice_sweep(tag_count: int, seed: int = 2015):
    """One sweep of the first ``tag_count`` tags of the ``dense_hall_10k`` grid."""
    spec = showcase_registry().get("dense_hall_10k")
    tags = make_tags(scenario_positions(spec, seed)[:tag_count], seed=seed)
    scene = standard_antenna_moving_scene(
        tags,
        speed_mps=spec.motion.speed_mps,
        jitter_fraction=spec.motion.jitter_fraction,
        geometry=sweep_geometry(spec),
        noise=noise_model(spec),
        reflector_count=spec.channel.reflector_count,
        seed=seed,
    )
    return collect_sweep(scene)


def sha256_of(parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part if isinstance(part, bytes) else repr(part).encode())
    return sha.hexdigest()


class TestDenseHallCouplingPin:
    """Pins the coupling-heavy dense hall at the CI smoke's 400-tag slice.

    Every one of the 400 tags has coupling neighbours within the radius, so
    a change to the neighbour grid's sets or order moves these digests.

    The pin holds only under numpy's AVX-512 dispatch, as does the full
    hall's ``DENSE_DIGEST`` (``tests/test_dense_digest.py``): float64
    ``np.exp``, ``np.log``, ``np.log10`` and ``np.arctan2``/``np.angle`` give
    other bits under the AVX2 kernels, and they feed RSSI and the multipath
    phase perturbation (``sin``, ``cos``, ``sqrt`` and ``mod`` do not
    change).  The third such pin is the leaderboard's ``MATRIX_DIGEST``
    (``tests/test_matrix_digest.py``), through BackPos and Landmarc ties.
    """

    LOG_DIGEST = "b056a3d9d0dbb96b212046a2826ede7b9e49a7c85d39a4fb7679889312fbedf5"
    PROFILE_DIGEST = "9482575146d28dd3fa646c0b3bef572920eb135481e44999d5cc1be9911d859c"

    def test_read_log_and_profiles_pinned(self):
        result = dense_hall_slice_sweep(400)
        columns = result.read_log.columns()
        log_parts = [np.ascontiguousarray(columns[k]).tobytes() for k in sorted(columns)]
        log_parts.append(tuple(read.tag_id for read in result.read_log.reads))
        assert sha256_of(log_parts) == self.LOG_DIGEST
        assert sha256_of(
            (
                profile.tag_id,
                profile.channel_index,
                profile.timestamps_s.tobytes(),
                profile.phases_rad.tobytes(),
                profile.rssi_dbm.tobytes(),
            )
            for profile in result.profiles
        ) == self.PROFILE_DIGEST


def _trace_summary(scene):
    log = collect_sweep(scene).read_log
    columns = log.columns()
    return (
        len(log),
        len(log.tag_ids()),
        columns["timestamp_s"],
        float(np.sum(columns["phase_rad"])),
        float(np.mean(columns["rssi_dbm"])),
    )


class TestSweepGoldenTrace:
    """Seeded golden traces of the moving-tag scenes at seed 2015.

    The antenna-moving trace is pinned in ``tests/test_fused_sweep.py``;
    these cover the belt paths (constant-speed and jittered multi-lane),
    whose positions are sampled per event time.
    """

    def test_tag_moving_scene_trace(self):
        batch = baggage_batch(MORNING_PEAK, bag_count=6, seed=2015)
        count, tags, times, phase_sum, rssi_mean = _trace_summary(
            standard_tag_moving_scene(batch.tags, seed=2015)
        )
        assert count == 1119
        assert tags == 6
        assert times[0] == pytest.approx(0.00455, abs=1e-12)
        assert times[-1] == pytest.approx(5.1435, abs=1e-9)
        assert phase_sum == pytest.approx(3833.6020666207633, rel=1e-9)
        assert rssi_mean == pytest.approx(-51.883640245433156, rel=1e-9)

    def test_conveyor_scene_trace(self):
        config = ConveyorConfig(lanes=2, cartons_per_lane=3)
        count, tags, times, phase_sum, rssi_mean = _trace_summary(
            conveyor_scene(conveyor_batch(config, seed=2015), seed=2015)
        )
        assert count == 953
        assert tags == 6
        assert times[0] == pytest.approx(0.00455, abs=1e-12)
        assert times[-1] == pytest.approx(4.31555, abs=1e-9)
        assert phase_sum == pytest.approx(2938.7436361421596, rel=1e-9)
        assert rssi_mean == pytest.approx(-55.723983739283504, rel=1e-9)


class TestArrayNativeMotion:
    """positions_at must be bitwise-identical to repeated scalar sampling."""

    def test_linear_trajectory_piecewise_profile(self):
        profile = jittered_speed_profile(0.3, 5.0, rng=np.random.default_rng(3))
        trajectory = LinearTrajectory(Point3D(0, 0, 0.3), Point3D(2, 0, 0.3), profile)
        times = np.linspace(-0.5, trajectory.duration_s + 1.0, 97)
        rows = trajectory.positions_at(times)
        for t, row in zip(times, rows):
            point = trajectory.position(float(t))
            assert (row == [point.x, point.y, point.z]).all()

    def test_piecewise_profile_distances(self):
        profile = PiecewiseSpeedProfile([(1.0, 0.1), (0.5, 0.4), (2.0, 0.2)])
        times = np.array([-1.0, 0.0, 0.3, 1.0, 1.2, 1.5, 3.0, 10.0])
        vectorized = profile.distances_at(times)
        for t, d in zip(times, vectorized):
            assert d == profile.distance_at(float(t))

    def test_tag_position_providers(self):
        ids = ["a", "b"]
        starts = np.array([[0.0, 0.1, 0.0], [0.4, -0.1, 0.0]])
        times = np.linspace(0.0, 4.0, 11)
        providers = [
            StaticTagPositions(ids, starts),
            ConstantVelocityTagPositions(ids, starts, (-0.3, 0.0, 0.01)),
            BeltTagPositions(
                ids, starts, jittered_speed_profile(0.25, 5.0, rng=np.random.default_rng(9))
            ),
        ]
        for provider in providers:
            rows = provider.positions_at(times)
            assert rows.shape == (times.size, 2, 3)
            for t_index, t in enumerate(times):
                for n_index, tag_id in enumerate(ids):
                    point = provider(tag_id, float(t))
                    assert (
                        rows[t_index, n_index] == [point.x, point.y, point.z]
                    ).all()

    def test_static_antenna_positions(self):
        antenna = StaticAntennaPosition(Point3D(1.0, 2.0, 3.0))
        rows = antenna.positions_at(np.array([0.0, 1.0, 2.0]))
        assert rows.shape == (3, 3)
        assert (rows == [1.0, 2.0, 3.0]).all()


class TestColumnarReadLog:
    def test_extend_columns_matches_appends(self):
        reads = [
            TagRead(0.2, "b", 1.0, -51.0, channel_index=6, antenna_port=2),
            TagRead(0.1, "a", 2.0, -52.0, channel_index=6, antenna_port=2),
            TagRead(0.3, "a", 3.0, -53.0, channel_index=6, antenna_port=2),
        ]
        appended = ReadLog(reads)
        columnar = ReadLog()
        columnar.extend_columns(
            np.array([0.2, 0.1, 0.3]),
            ["b", "a", "a"],
            np.array([1.0, 2.0, 3.0]),
            np.array([-51.0, -52.0, -53.0]),
            channel_index=6,
            antenna_port=2,
        )
        assert appended == columnar
        assert columnar.reads == reads

    def test_extend_columns_length_mismatch(self):
        log = ReadLog()
        with pytest.raises(ValueError, match="column lengths"):
            log.extend_columns(
                np.array([0.1]), ["a", "b"], np.array([1.0]), np.array([-50.0]), 6, 1
            )

    def test_per_tag_views_are_time_sorted(self):
        log = ReadLog(
            [
                TagRead(0.3, "a", 3.0, -53.0),
                TagRead(0.1, "a", 1.0, -51.0),
                TagRead(0.2, "b", 2.0, -52.0),
            ]
        )
        assert log.timestamps("a").tolist() == [0.1, 0.3]
        assert log.phases("a").tolist() == [1.0, 3.0]
        assert log.rssis("b").tolist() == [-52.0]
        assert log.timestamps("missing").size == 0

    def test_mutation_invalidates_caches(self):
        log = ReadLog([TagRead(0.1, "a", 1.0, -50.0)])
        assert len(log.reads) == 1
        assert log.timestamps("a").tolist() == [0.1]
        log.append(TagRead(0.2, "a", 2.0, -51.0))
        assert len(log.reads) == 2
        assert log.timestamps("a").tolist() == [0.1, 0.2]
        assert log.channel_indices() == {6}

    def test_appends_and_batches_keep_arrival_order(self):
        # Reads appended one at a time and column batches interleave in the
        # order they arrived, whatever mix of the two built the log.
        batched = {2, 3, 4, 6, 7}
        reads = [
            TagRead(0.1 * i, f"t{i % 3}", 0.5 * i, -50.0 - i, channel_index=6 if i in batched else 7)
            for i in range(9)
        ]
        log = ReadLog(reads[:2])
        for start, stop in ((2, 5), (6, 8)):
            chunk = reads[start:stop]
            log.extend_columns(
                [r.timestamp_s for r in chunk],
                [r.tag_id for r in chunk],
                [r.phase_rad for r in chunk],
                [r.rssi_dbm for r in chunk],
                channel_index=6,
                antenna_port=1,
            )
            log.append(reads[stop])
        assert log == ReadLog(reads)
        assert log.reads == reads
        columns = log.columns()
        assert columns["channel_index"].tolist() == [r.channel_index for r in reads]
        assert not any(column.flags.writeable for column in columns.values())
        empty = ReadLog().columns()
        assert [empty[name].dtype for name in ("timestamp_s", "channel_index")] == [
            np.float64,
            np.int64,
        ]
