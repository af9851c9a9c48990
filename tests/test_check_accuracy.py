"""The CI accuracy gate, exercised through its argparse entrypoint.

Proves the two properties ``benchmarks/check_accuracy.py`` exists for: it
passes on the pipeline's recorded leaderboard, and it demonstrably fails —
nonzero exit — when a scheme drops through its pinned floor or the paper's
Figure-17 ordering breaks.  Both gates, this one and
``benchmarks/check_robustness.py``, also fail when their record is missing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "benchmarks" / "check_accuracy.py"


def run_gate(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=60,
    )


def healthy_payload() -> dict:
    """A leaderboard snapshot shaped like the recorded run, floors all met."""
    scenarios = {
        "library": {"x": 1.0, "y": 1.0},
        "airport": {"x": 0.7, "y": 0.4},
        "warehouse": {"x": 1.0, "y": 0.3},
        "cold_chain_tunnel": {"x": 1.0, "y": 0.9},
        "robot_aisle_scan": {"x": 1.0, "y": 1.0},
    }
    schemes = ["STPP", "BackPos", "OTrack", "Landmarc", "G-RSSI"]
    mean = {"STPP": 0.72, "BackPos": 0.42, "OTrack": 0.52, "Landmarc": 0.59, "G-RSSI": 0.62}
    fig17 = {"STPP": 0.77, "BackPos": 0.56, "OTrack": 0.43, "Landmarc": 0.52, "G-RSSI": 0.33}
    per_scheme = lambda axes: {  # noqa: E731 - tiny fixture helper
        scheme: {
            "x": axes["x"],
            "y": axes["y"],
            "combined": (axes["x"] + axes["y"]) / 2,
        }
        for scheme in schemes
    }
    return {
        "generated_at": "2026-08-08T00:00:00+00:00",
        "platform": "test-host",
        "seed": 2015,
        "schemes": schemes,
        "scenarios": {name: per_scheme(axes) for name, axes in scenarios.items()},
        "mean_combined": mean,
        "fig17": fig17,
        "scale": {"repetitions": 2, "fig17_repetitions": 1},
    }


def write_accuracy(tmp_path: Path, payload: dict) -> None:
    (tmp_path / "BENCH_accuracy.json").write_text(json.dumps(payload))


@pytest.mark.parametrize(
    "script,option",
    [("check_accuracy.py", "--accuracy"), ("check_robustness.py", "--robustness")],
)
def test_missing_record_fails_the_gate(tmp_path, script, option):
    missing = tmp_path / "missing.json"
    proc = subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / script), option, str(missing)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert f"FAIL: {missing} not found" in proc.stdout


def test_healthy_record_passes(tmp_path):
    write_accuracy(tmp_path, healthy_payload())
    proc = run_gate(tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


def test_stpp_mean_below_floor_fails(tmp_path):
    payload = healthy_payload()
    payload["mean_combined"]["STPP"] = 0.40
    write_accuracy(tmp_path, payload)
    proc = run_gate(tmp_path)
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
    assert "STPP mean combined" in proc.stdout


def test_stpp_scenario_floor_violation_fails(tmp_path):
    payload = healthy_payload()
    payload["scenarios"]["library"]["STPP"]["combined"] = 0.50
    write_accuracy(tmp_path, payload)
    proc = run_gate(tmp_path)
    assert proc.returncode == 1
    assert "library" in proc.stdout


def test_fig17_stpp_losing_its_lead_fails(tmp_path):
    payload = healthy_payload()
    # STPP still above its own floor, but BackPos closes within the margin:
    # the scheme comparison — the paper's headline — no longer holds.
    payload["fig17"]["BackPos"] = 0.73
    write_accuracy(tmp_path, payload)
    proc = run_gate(tmp_path)
    assert proc.returncode == 1
    assert "beats BackPos" in proc.stdout


def test_fig17_baseline_ranking_violation_fails(tmp_path):
    payload = healthy_payload()
    # G-RSSI above OTrack by more than the tolerance inverts the paper's
    # G-RSSI < OTrack ranking.
    payload["fig17"]["G-RSSI"] = 0.70
    write_accuracy(tmp_path, payload)
    proc = run_gate(tmp_path)
    assert proc.returncode == 1
    assert "ordering" in proc.stdout


def test_schema_corruption_fails_before_any_floor(tmp_path):
    payload = healthy_payload()
    del payload["mean_combined"]
    write_accuracy(tmp_path, payload)
    proc = run_gate(tmp_path)
    assert proc.returncode == 1
    assert "schema" in proc.stdout


def test_floor_overrides_are_respected(tmp_path):
    payload = healthy_payload()
    payload["mean_combined"]["G-RSSI"] = 0.30  # below the default 0.45 floor
    write_accuracy(tmp_path, payload)
    assert run_gate(tmp_path).returncode == 1
    proc = run_gate(tmp_path, "--mean-floor", "G-RSSI=0.25")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_committed_record_passes_the_default_floors():
    if not (REPO / "BENCH_accuracy.json").exists():
        pytest.skip("BENCH_accuracy.json not recorded in this checkout")
    proc = run_gate(REPO)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_stpp_mean_below_a_baseline_mean_fails(tmp_path):
    payload = healthy_payload()
    # Both schemes above their own floors, but Landmarc now tops STPP by more
    # than the ordering tolerance: "STPP on top" no longer holds.
    payload["mean_combined"]["STPP"] = 0.62
    payload["mean_combined"]["Landmarc"] = 0.70
    write_accuracy(tmp_path, payload)
    proc = run_gate(tmp_path)
    assert proc.returncode == 1
    assert "FAIL: STPP mean 0.620 >= Landmarc mean 0.700" in proc.stdout


def test_scheme_missing_from_the_means_fails(tmp_path):
    payload = healthy_payload()
    del payload["mean_combined"]["OTrack"]
    write_accuracy(tmp_path, payload)
    proc = run_gate(tmp_path)
    assert proc.returncode == 1
    assert "FAIL: mean_combined is missing scheme 'OTrack'" in proc.stdout


def test_floored_scenario_without_stpp_fails(tmp_path):
    payload = healthy_payload()
    del payload["scenarios"]["warehouse"]["STPP"]
    write_accuracy(tmp_path, payload)
    proc = run_gate(tmp_path)
    assert proc.returncode == 1
    assert "FAIL: scenario 'warehouse' has no recorded STPP accuracy" in proc.stdout


def test_fig17_without_stpp_fails(tmp_path):
    payload = healthy_payload()
    del payload["fig17"]["STPP"]
    write_accuracy(tmp_path, payload)
    proc = run_gate(tmp_path)
    assert proc.returncode == 1
    assert "FAIL: fig17 record is missing STPP" in proc.stdout


def test_fig17_without_a_baseline_fails(tmp_path):
    payload = healthy_payload()
    del payload["fig17"]["Landmarc"]
    write_accuracy(tmp_path, payload)
    proc = run_gate(tmp_path)
    assert proc.returncode == 1
    assert "FAIL: fig17 record is missing 'Landmarc'" in proc.stdout


def test_fig17_stpp_below_its_floor_fails(tmp_path):
    payload = healthy_payload()
    payload["fig17"]["STPP"] = 0.60
    write_accuracy(tmp_path, payload)
    proc = run_gate(tmp_path)
    assert proc.returncode == 1
    assert "FAIL: fig17 STPP combined accuracy 0.600 >= floor 0.65" in proc.stdout


def test_scenario_floor_overrides_are_respected(tmp_path):
    payload = healthy_payload()
    payload["scenarios"]["airport"]["STPP"]["combined"] = 0.30  # floor 0.35
    write_accuracy(tmp_path, payload)
    assert run_gate(tmp_path).returncode == 1
    proc = run_gate(tmp_path, "--scenario-floor", "airport=0.25")
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("option", ["--mean-floor", "--scenario-floor"])
def test_malformed_floor_override_is_refused(tmp_path, option):
    write_accuracy(tmp_path, healthy_payload())
    proc = run_gate(tmp_path, option, "STPP")
    assert proc.returncode != 0
    assert f"bad {option} override 'STPP' (expected NAME=FLOAT)" in proc.stderr
