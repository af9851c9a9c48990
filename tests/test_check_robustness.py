"""The CI robustness gate, exercised through its argparse entrypoint.

``benchmarks/check_robustness.py`` passes a record whose curves hold STPP
within tolerance of every baseline at every rung, and exits 1 when any of
its checks breaks: the schema, the zero-fault pass-through flag, the STPP
accuracy floor, a per-rung lead, a missing STPP curve, or a summary scalar
that disagrees with the curves it summarizes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "benchmarks" / "check_robustness.py"
SCHEMES = ["STPP", "BackPos", "OTrack", "Landmarc", "G-RSSI"]


def run_gate(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=60,
    )


def healthy_payload() -> dict:
    """A robustness snapshot shaped like the recorded run, floors all met.

    STPP scores 0.9 on the clean rung and 0.6 on the faulted one; every
    baseline scores 0.1 below STPP, so every lead is +0.1 and the worst STPP
    cell is 0.6.
    """
    scenarios = ["library", "airport", "warehouse"]
    stpp = [0.9, 0.6]
    curves = {
        scenario: {
            scheme: stpp if scheme == "STPP" else [value - 0.1 for value in stpp]
            for scheme in SCHEMES
        }
        for scenario in scenarios
    }
    return {
        "generated_at": "2026-08-08T00:00:00+00:00",
        "platform": "test-host",
        "seed": 2015,
        "schemes": SCHEMES,
        "scenarios": scenarios,
        "ladders": {
            name: {
                "description": name,
                "rates": [0.0, 0.1],
                "curves": json.loads(json.dumps(curves)),
            }
            for name in ("loss", "corruption")
        },
        "zero_fault_bit_identical": True,
        "stpp_min_lead": 0.1,
        "stpp_min_accuracy": 0.6,
        "scale": {"repetitions": 1},
    }


def write_robustness(tmp_path: Path, payload: dict) -> None:
    (tmp_path / "BENCH_robustness.json").write_text(json.dumps(payload))


def test_healthy_record_passes(tmp_path):
    write_robustness(tmp_path, healthy_payload())
    proc = run_gate(tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


def test_zero_fault_rung_that_was_not_bit_identical_fails(tmp_path):
    payload = healthy_payload()
    payload["zero_fault_bit_identical"] = False
    write_robustness(tmp_path, payload)
    proc = run_gate(tmp_path)
    assert proc.returncode == 1
    assert "FAIL: rate-0 rungs passed through" in proc.stdout


def test_stpp_worst_cell_below_the_floor_fails(tmp_path):
    payload = healthy_payload()
    for ladder in payload["ladders"].values():
        ladder["curves"]["warehouse"]["STPP"][1] = 0.2
        for scheme in SCHEMES[1:]:
            ladder["curves"]["warehouse"][scheme][1] = 0.1
    payload["stpp_min_accuracy"] = 0.2
    write_robustness(tmp_path, payload)
    proc = run_gate(tmp_path)
    assert proc.returncode == 1
    assert "FAIL: STPP worst-rung combined accuracy 0.200" in proc.stdout


def test_baseline_beating_stpp_beyond_the_tolerance_fails(tmp_path):
    payload = healthy_payload()
    payload["ladders"]["corruption"]["curves"]["airport"]["G-RSSI"][1] = 0.85
    write_robustness(tmp_path, payload)
    proc = run_gate(tmp_path)
    assert proc.returncode == 1
    assert "FAIL: corruption/airport@0.1" in proc.stdout
    assert "worst lead -0.250" in proc.stdout


def test_summary_that_disagrees_with_the_curves_fails(tmp_path):
    payload = healthy_payload()
    payload["stpp_min_accuracy"] = 0.8  # the curves' worst STPP cell is 0.6
    write_robustness(tmp_path, payload)
    proc = run_gate(tmp_path)
    assert proc.returncode == 1
    assert "FAIL: summary stpp_min_accuracy 0.800 matches the curves" in proc.stdout


def test_scenario_without_an_stpp_curve_fails(tmp_path):
    payload = healthy_payload()
    del payload["ladders"]["loss"]["curves"]["library"]["STPP"]
    write_robustness(tmp_path, payload)
    proc = run_gate(tmp_path)
    assert proc.returncode == 1
    assert "FAIL: loss/library has no recorded STPP curve" in proc.stdout


@pytest.mark.parametrize("key", ["ladders", "zero_fault_bit_identical", "scale"])
def test_schema_corruption_fails_before_any_floor(tmp_path, key):
    payload = healthy_payload()
    del payload[key]
    write_robustness(tmp_path, payload)
    proc = run_gate(tmp_path)
    assert proc.returncode == 1
    assert f"FAIL: schema: robustness: missing required key {key!r}" in proc.stdout
    assert "worst-rung" not in proc.stdout


def test_min_accuracy_override_is_respected(tmp_path):
    write_robustness(tmp_path, healthy_payload())
    proc = run_gate(tmp_path, "--min-accuracy", "0.7")
    assert proc.returncode == 1
    assert "FAIL: STPP worst-rung combined accuracy 0.600 >= floor 0.7" in proc.stdout


def test_lead_tolerance_override_is_respected(tmp_path):
    payload = healthy_payload()
    # BackPos 0.05 above STPP: inside the default 0.20 slack, outside 0.01.
    payload["ladders"]["loss"]["curves"]["library"]["BackPos"][0] = 0.95
    write_robustness(tmp_path, payload)
    assert run_gate(tmp_path).returncode == 0
    proc = run_gate(tmp_path, "--lead-tolerance", "0.01")
    assert proc.returncode == 1
    assert "FAIL: loss/library@0" in proc.stdout


def test_committed_record_passes_the_default_floors():
    if not (REPO / "BENCH_robustness.json").exists():
        pytest.skip("BENCH_robustness.json not recorded in this checkout")
    proc = run_gate(REPO)
    assert proc.returncode == 0, proc.stdout + proc.stderr
