"""Both recorders, run at CI's smoke scale through their argparse entrypoints.

Each recorder writes its snapshot through ``write_snapshot``: the record it
writes must have the committed record's layout (same keys, same order, same
two-space JSON with a trailing newline), validate against its schema, and
pass its CI gate with the smoke step's arguments.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import leaderboard
from repro.bench.schema import validate_snapshot

REPO = Path(__file__).resolve().parents[1]

# kind -> (recorder arguments, gate arguments), as CI's smoke steps run them.
SMOKE = {
    "accuracy": (["--repetitions", "1"], []),
    "robustness": (
        ["--repetitions", "1", "--scenarios", "library"],
        ["--min-accuracy", "0.5"],
    ),
}


def run_script(name: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / name), *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def smoke_records(tmp_path_factory):
    """kind -> path of a record freshly written by that kind's recorder."""
    out = tmp_path_factory.mktemp("records")
    records = {}
    for kind, (argv, _) in SMOKE.items():
        path = out / f"BENCH_{kind}.json"
        proc = run_script(f"bench_{kind}.py", *argv, "--out", str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert f"wrote {path}" in proc.stdout
        records[kind] = path
    return records


@pytest.mark.parametrize("kind", sorted(SMOKE))
def test_recorder_writes_the_committed_layout(smoke_records, kind):
    text = smoke_records[kind].read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2) + "\n"
    assert validate_snapshot(kind, payload) == []
    committed = REPO / f"BENCH_{kind}.json"
    if not committed.exists():
        pytest.skip(f"{committed.name} not recorded in this checkout")
    assert list(payload) == list(json.loads(committed.read_text()))


@pytest.mark.parametrize("kind", sorted(SMOKE))
def test_smoke_record_passes_its_gate(smoke_records, kind):
    _, gate_argv = SMOKE[kind]
    proc = run_script(
        f"check_{kind}.py", f"--{kind}", str(smoke_records[kind]), *gate_argv
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _load_benchmark_module(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_robustness_recorder_scores_the_leaderboard_schemes():
    bench_robustness = _load_benchmark_module("bench_robustness")
    assert bench_robustness.SCHEMES is leaderboard.SCHEMES


def test_format_curves_shows_stpp_against_the_best_baseline():
    bench_robustness = _load_benchmark_module("bench_robustness")
    payload = {
        "schemes": ["STPP", "BackPos", "G-RSSI"],
        "scenarios": ["library"],
        "ladders": {
            "loss": {
                "description": "independent per-read loss",
                "rates": [0.0, 0.2],
                "curves": {
                    "library": {
                        "STPP": [1.0, 0.75],
                        "BackPos": [0.5, 0.25],
                        "G-RSSI": [0.625, 0.8],
                    }
                },
            }
        },
        "zero_fault_bit_identical": True,
        "stpp_min_accuracy": 0.75,
        "stpp_min_lead": -0.05,
    }
    lines = bench_robustness.format_curves(payload).splitlines()
    assert lines[1] == "  loss (independent per-read loss):"
    assert lines[3].split() == ["library", "1.00|0.62", "0.75|0.80"]
    assert lines[-2] == "  zero-fault rungs bit-identical: True"
    assert lines[-1] == "  STPP min accuracy 0.750, min lead over best baseline -0.050"
