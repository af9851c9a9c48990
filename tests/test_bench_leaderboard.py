"""Golden accuracy pins for the recorded leaderboard (tier-1 regression gate).

The leaderboard is a deterministic function of the code at a fixed seed, so
its values are pinnable: a scheme drifting out of its band means the scheme
adapter — or the shared pipeline under all five — changed behaviour.  The
bands are deliberately wider than zero (a legitimate algorithm improvement
may move accuracy a little) but far narrower than the gap an actual
regression opens (e.g. STPP degrading toward BackPos-level).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.leaderboard import (
    DEFAULT_SEED,
    SCHEMES,
    compute_leaderboard,
    scenario_names,
    scenario_plans,
)
from repro.scenarios import default_registry

# Recorded at repetitions=1, seed 2015 (the CI smoke scale) on the reference
# pipeline, averaged over every scenario in the declarative matrix (legacy
# trio + the five committed spec-only deployments).  Scenario means use a
# wider band than Figure 17: single-sweep scenario scores move in
# 1/8-to-1/10 quanta per swapped pair.
GOLDEN_MEAN_COMBINED = {
    "STPP": 0.721,
    "BackPos": 0.418,
    "OTrack": 0.524,
    "Landmarc": 0.611,
    "G-RSSI": 0.606,
}
MEAN_TOLERANCE = 0.15

GOLDEN_FIG17_COMBINED = {
    "STPP": 0.770,
    "BackPos": 0.555,
    "Landmarc": 0.520,
    "OTrack": 0.425,
    "G-RSSI": 0.330,
}
FIG17_TOLERANCE = 0.10


@pytest.fixture(scope="module")
def leaderboard():
    return compute_leaderboard(repetitions=1, seed=DEFAULT_SEED)


class TestGoldenPins:
    @pytest.mark.parametrize("scheme", sorted(GOLDEN_MEAN_COMBINED))
    def test_mean_combined_within_pinned_band(self, leaderboard, scheme):
        assert leaderboard["mean_combined"][scheme] == pytest.approx(
            GOLDEN_MEAN_COMBINED[scheme], abs=MEAN_TOLERANCE
        )

    @pytest.mark.parametrize("scheme", sorted(GOLDEN_FIG17_COMBINED))
    def test_fig17_combined_within_pinned_band(self, leaderboard, scheme):
        assert leaderboard["fig17"][scheme] == pytest.approx(
            GOLDEN_FIG17_COMBINED[scheme], abs=FIG17_TOLERANCE
        )

    def test_stpp_tops_every_baseline_on_fig17(self, leaderboard):
        fig17 = leaderboard["fig17"]
        for scheme in SCHEMES:
            if scheme != "STPP":
                assert fig17["STPP"] > fig17[scheme]

    def test_stpp_scenario_floors(self, leaderboard):
        stpp = {
            scenario: leaderboard["scenarios"][scenario]["STPP"]["combined"]
            for scenario in scenario_names()
        }
        assert stpp["library"] >= 0.85
        assert stpp["airport"] >= 0.35
        assert stpp["warehouse"] >= 0.40
        assert stpp["cold_chain_tunnel"] >= 0.70
        assert stpp["robot_aisle_scan"] >= 0.85


class TestPayloadShape:
    def test_all_schemes_scored_on_all_scenarios(self, leaderboard):
        assert tuple(leaderboard["schemes"]) == SCHEMES
        for scenario in scenario_names():
            per_scheme = leaderboard["scenarios"][scenario]
            assert set(per_scheme) == set(SCHEMES)
            for axes in per_scheme.values():
                assert set(axes) == {"x", "y", "combined"}
                assert all(0.0 <= value <= 1.0 for value in axes.values())

    def test_scale_records_the_comparability_knobs(self, leaderboard):
        assert leaderboard["scale"]["repetitions"] == 1
        assert leaderboard["scale"]["fig17_repetitions"] == 1
        assert leaderboard["seed"] == DEFAULT_SEED
        # One tag count per registered scenario, straight from its spec.
        assert set(leaderboard["scale"]["scenario_tags"]) == set(scenario_names())
        assert leaderboard["scale"]["scenario_tags"]["library"] == 12


class TestCommittedRecord:
    def test_committed_record_scores_every_scheme_on_every_registered_scenario(self):
        path = Path(__file__).resolve().parents[1] / "BENCH_accuracy.json"
        if not path.exists():
            pytest.skip("BENCH_accuracy.json not recorded in this checkout")
        recorded = json.loads(path.read_text())
        # A scenario registered after the last `make bench-accuracy` is one
        # the gate never sees: the record must be re-run when the matrix grows.
        assert tuple(recorded["schemes"]) == SCHEMES
        assert tuple(recorded["scenarios"]) == scenario_names()
        assert set(recorded["mean_combined"]) == set(SCHEMES)
        assert set(recorded["fig17"]) == set(SCHEMES)
        assert recorded["scale"]["scenario_tags"] == {
            name: default_registry().get(name).tag_count for name in scenario_names()
        }


class TestDeterminism:
    def test_plans_resolve_identical_seed_lists(self):
        first = [plan.seeds for plan in scenario_plans(repetitions=2)]
        second = [plan.seeds for plan in scenario_plans(repetitions=2)]
        assert first == second
        # Scenarios must not share seeds, or their sweeps would be correlated.
        flat = [seed for seeds in first for seed in seeds]
        assert len(flat) == len(set(flat))
