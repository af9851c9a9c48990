"""``BackPosScheme.order`` against the meshgrid scoring loop it replaced.

``order`` screens each tag's hologram in float32 and re-scores exactly only
the cells near the screened peak (every cell, for a static antenna's flat
hologram); the oracle in ``tests/oracles/backpos.py`` scores every cell on a
full meshgrid with fresh arrays, from snapshots taken one boolean mask at a
time.  The snapshots and the estimated coordinates must agree float for
float, on the leaderboard's scenes and on random snapshots from a moving and
from a static antenna.
"""

import numpy as np
import pytest

from repro.baselines import BackPosScheme, backpos
from repro.evaluation.runner import standard_scheme_suite
from repro.motion.scenarios import StaticAntennaPosition, TrajectoryAntennaPosition
from repro.motion.trajectory import LinearTrajectory
from repro.rf.geometry import Point3D
from repro.rfid.reading import ReadLog
from repro.scenarios import DEFAULT_SEED, SEED_STRIDE, default_registry
from repro.scenarios.builders import scenario_experiment

from oracles.backpos import backpos_estimates, oracle_snapshots


def assert_matches_oracle(scheme: BackPosScheme, log: ReadLog, tag_ids: list[str]) -> dict:
    for tag_id in tag_ids:
        assert scheme._snapshots(log, tag_id) == oracle_snapshots(scheme, log, tag_id)
    result = scheme.order(log, tag_ids)
    oracle_x, oracle_y = backpos_estimates(scheme, log, tag_ids)
    assert oracle_x, "no tag had enough snapshots to be scored"
    assert result.x_ordering.scores == oracle_x
    assert result.y_ordering.scores == oracle_y
    assert result.metadata["screen_misses"] == 0
    return result.metadata


# library, airport, multipath_hall, smart_shelf_wall (24 tags) and
# tollway_lanes (static antenna, the largest grid).
@pytest.mark.parametrize("index", [0, 1, 4, 6, 7])
def test_leaderboard_scenes(index):
    spec = default_registry().specs()[index]
    experiment = scenario_experiment(0, DEFAULT_SEED + SEED_STRIDE * index, spec)
    (scheme,) = [s for s in standard_scheme_suite(experiment) if isinstance(s, BackPosScheme)]
    assert_matches_oracle(scheme, experiment.read_log, list(experiment.target_ids))


def random_log(rng: np.random.Generator, tag_ids: list[str]) -> ReadLog:
    count = 240
    times = np.sort(rng.uniform(0.0, 4.0, count))
    log = ReadLog()
    log.extend_columns(
        times,
        [tag_ids[i] for i in rng.integers(0, len(tag_ids), count)],
        rng.uniform(0.0, 2.0 * np.pi, count),
        rng.uniform(-70.0, -40.0, count),
        channel_index=6,
        antenna_port=1,
    )
    return log


def random_scheme(rng: np.random.Generator, antenna_position_at) -> BackPosScheme:
    low = rng.uniform(-0.6, -0.2, 2)
    return BackPosScheme(
        antenna_position_at=antenna_position_at,
        region_min=Point3D(float(low[0]), float(low[1]), 0.0),
        region_max=Point3D(float(low[0]) + 1.3, float(low[1]) + 0.7, 0.0),
        grid_resolution_m=float(rng.choice([0.01, 0.013, 0.02])),
    )


@pytest.mark.parametrize("seed", range(6))
def test_random_snapshots(seed):
    rng = np.random.default_rng(seed)
    tag_ids = [f"tag-{i}" for i in range(4)]
    log = random_log(rng, tag_ids)
    start = Point3D(*rng.uniform(-0.5, 0.0, 2), float(rng.uniform(0.2, 0.6)))
    end = Point3D(start.x + float(rng.uniform(0.8, 1.6)), start.y, start.z)
    scheme = random_scheme(
        rng, TrajectoryAntennaPosition(LinearTrajectory(start, end))
    )
    metadata = assert_matches_oracle(scheme, log, tag_ids)
    assert metadata["flat_hologram_tags"] == 0


@pytest.mark.parametrize("seed", range(4))
def test_random_snapshots_static_antenna(seed):
    # Every snapshot at one position: a flat hologram, scored cell by cell.
    rng = np.random.default_rng(seed)
    tag_ids = [f"tag-{i}" for i in range(4)]
    log = random_log(rng, tag_ids)
    antenna = Point3D(*rng.uniform(-0.5, 1.0, 2), float(rng.uniform(0.2, 0.6)))
    scheme = random_scheme(rng, StaticAntennaPosition(antenna))
    metadata = assert_matches_oracle(scheme, log, tag_ids)
    assert metadata["flat_hologram_tags"] == len(tag_ids)
    assert metadata["cells_screened"] == 0



def test_flat_geometry_is_built_once_per_antenna_position_per_order(monkeypatch):
    # Tags 0 and 1 are read while the antenna is parked at one position,
    # tags 2 and 3 while it is parked at another: four flat holograms on
    # two distinct grids of predicted phase.
    rng = np.random.default_rng(11)
    tag_ids = [f"tag-{i}" for i in range(4)]
    log = ReadLog()
    for offset, pair in ((0.0, tag_ids[:2]), (5.0, tag_ids[2:])):
        count = 120
        log.extend_columns(
            offset + np.sort(rng.uniform(0.0, 4.0, count)),
            [pair[i] for i in rng.integers(0, 2, count)],
            rng.uniform(0.0, 2.0 * np.pi, count),
            rng.uniform(-70.0, -40.0, count),
            channel_index=6,
            antenna_port=1,
        )
    parked = (Point3D(0.1, 0.0, 0.4), Point3D(0.7, 0.1, 0.4))
    scheme = random_scheme(rng, lambda t: parked[int(t > 4.5)])
    built = []
    distinct_phases = backpos.distinct_phases

    def counted(xs, ys, antenna_pos, wavelength):
        built.append(antenna_pos)
        return distinct_phases(xs, ys, antenna_pos, wavelength)

    monkeypatch.setattr(backpos, "distinct_phases", counted)
    metadata = assert_matches_oracle(scheme, log, tag_ids)
    assert metadata["flat_hologram_tags"] == len(tag_ids)
    assert built == list(parked)
    scheme.order(log, tag_ids)
    assert built == list(parked) * 2
