"""Read-log pins: every registered scenario's first two sweeps, hashed.

``MATRIX_DIGEST`` (``tests/test_matrix_digest.py``) pins the schemes'
orderings over the leaderboard matrix, which a changed read log can leave
unchanged.  This test pins the read logs themselves: repetitions 0 and 1 of
every registered scenario, built through
:func:`repro.scenarios.scenario_experiment` at the leaderboard's seeds
(``DEFAULT_SEED + SEED_STRIDE * index + rep``), each hashed column by column
together with the tag id of every read.

The pins hold only under numpy's AVX-512 dispatch: the float64
transcendental kernels that feed RSSI and the multipath phase give other bits
under AVX2 (``NPY_DISABLE_CPU_FEATURES="X86_V4"`` fails this test), as with
``DENSE_DIGEST``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.scenarios import DEFAULT_SEED, default_registry, scenario_experiment
from repro.scenarios.registry import SEED_STRIDE

READ_LOG_DIGESTS = {
    ("library", 0): "96c494be57eed90b30952498d7d9465abf02db4c3ea9d123eb6152d9f6c8f882",
    ("library", 1): "5761c6112821ecc02c050a876abb15271ffdf35d2708ef943e25ab307ffd51d7",
    ("airport", 0): "aaad31440b88250009e8bf8ecffee9f3e0425d9c340ce5bc89c29291e0577410",
    ("airport", 1): "97f48ca886d84bd65561f959bbb57ee9dd70c5a4599c2b570c89741eb41f386a",
    ("warehouse", 0): "6c74d4eccd0f0d381eedffe1ef3fc4af01a0bfb628575e47d255854e02c58349",
    ("warehouse", 1): "ac5317c9bfc61540acf5fad1c92120d7e9ab3f718ffcc0083b463cf01da49961",
    ("cold_chain_tunnel", 0): "df4063dab6cab5d92d29002bbb73b07a82e088eaaa1a2fc87857d707b8b061f5",
    ("cold_chain_tunnel", 1): "8a4c6b2bf3cbe8c6d9477a9a70afbf6d4821724a6a124f97dcdc62e1b337c143",
    ("multipath_hall", 0): "e864b54740f19c890dedfbcf11cad3de919cbcd11e0a279e4f2e05512b28eaa4",
    ("multipath_hall", 1): "ab94495ebddd4b4152afaf370be46b304d11729a5250896d2323a026823c342e",
    ("robot_aisle_scan", 0): "48c267b2e2e0f6db6b784a6a87079645f94ce5a1fc6c9238fada3bbff048d8cf",
    ("robot_aisle_scan", 1): "a7b62d29c68bbd9ecb3cd192f9a1aee7d888ac146e301db6c7ba7f97d58e78cc",
    ("smart_shelf_wall", 0): "58ab1d3cb88731250617aeeda0e1058e8abdada6aa1b6451e33745ad861e1c0c",
    ("smart_shelf_wall", 1): "64da3de5bcdc32f53ce18e43d18ec305ecdba11879b3d5d656de27d2d0e760f2",
    ("tollway_lanes", 0): "491e4b2ff2fa029daae6a8826e14457cdf64521e7d7a2253f1483eec76baa0be",
    ("tollway_lanes", 1): "e0fa1acbad0d0b20cd1fe22b41075d801f6baa9029465f01c747e671657d2d2f",
}
"""sha256 of each ``(scenario, rep)`` read log at the leaderboard seed."""


def read_log_digest(log) -> str:
    """sha256 of a read log's numeric columns and its per-read tag ids."""
    sha = hashlib.sha256()
    columns = log.columns()
    for name in sorted(columns):
        sha.update(name.encode())
        sha.update(np.ascontiguousarray(columns[name]).tobytes())
    ids, codes = log.tag_codes()
    sha.update("\n".join(ids).encode())
    sha.update(np.ascontiguousarray(codes, dtype=np.int64).tobytes())
    return sha.hexdigest()


def test_every_registered_scenario_is_pinned():
    names = default_registry().names()
    assert sorted(READ_LOG_DIGESTS) == sorted(
        (name, rep) for name in names for rep in (0, 1)
    )


@pytest.mark.parametrize("scenario, rep", sorted(READ_LOG_DIGESTS))
def test_read_log_matches_the_pinned_digest(scenario, rep):
    registry = default_registry()
    seed = DEFAULT_SEED + SEED_STRIDE * registry.index_of(scenario) + rep
    experiment = scenario_experiment(rep, seed, spec=registry.get(scenario))
    assert read_log_digest(experiment.read_log) == READ_LOG_DIGESTS[(scenario, rep)]
