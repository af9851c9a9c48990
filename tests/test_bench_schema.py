"""Schema validation: history rows and every ``BENCH_*.json`` snapshot kind."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.schema import (
    SNAPSHOT_SCHEMAS,
    BenchRecord,
    SchemaError,
    validate_snapshot,
)

REPO = Path(__file__).resolve().parents[1]

GOOD_ROW = dict(
    run_id="run-1",
    git_sha="abc1234",
    timestamp="2026-08-08T00:00:00+00:00",
    platform="test-host",
    source="bench_test",
    metric="speedup",
    value=2.0,
    scale={"tags": 8},
)


class TestBenchRecord:
    def test_json_round_trip(self):
        record = BenchRecord(**GOOD_ROW)
        assert BenchRecord.from_json(record.to_json()) == record

    @pytest.mark.parametrize(
        "field", ["run_id", "git_sha", "timestamp", "platform", "source", "metric"]
    )
    def test_empty_string_fields_rejected(self, field):
        with pytest.raises(SchemaError, match=field):
            BenchRecord(**{**GOOD_ROW, field: ""})

    @pytest.mark.parametrize(
        "bad", [True, "2.0", None, float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_or_non_numeric_values_rejected(self, bad):
        with pytest.raises(SchemaError):
            BenchRecord(**{**GOOD_ROW, "value": bad})

    def test_scale_must_be_a_mapping(self):
        with pytest.raises(SchemaError, match="scale"):
            BenchRecord(**{**GOOD_ROW, "scale": [1, 2]})

    def test_from_json_rejects_missing_and_unknown_fields(self):
        row = BenchRecord(**GOOD_ROW).to_json()
        missing = {k: v for k, v in row.items() if k != "metric"}
        with pytest.raises(SchemaError, match="metric"):
            BenchRecord.from_json(missing)
        with pytest.raises(SchemaError, match="unknown"):
            BenchRecord.from_json({**row, "extra": 1})


# Minimal valid payload per snapshot kind — the smallest record each
# checker must accept (optional fields absent on purpose).
MINIMAL_SNAPSHOTS: dict[str, dict] = {
    "sweep": {
        "generated_at": "2026-08-08T00:00:00+00:00",
        "platform": "test",
        "seed": 2015,
        "scenes": {"static": {"speedup_fused_vs_scalar": 10.0}},
        "speedup_fused_vs_scalar": 10.0,
    },
    "dtw": {
        "generated_at": "2026-08-08T00:00:00+00:00",
        "platform": "test",
        "tag_count": 120,
        "timings_s": {"python_loop_per_tag": 1.0, "batched": 0.1},
        "speedup_vs_python_loop": {"batched": 10.0},
    },
    "experiments": {
        "generated_at": "2026-08-08T00:00:00+00:00",
        "platform": "test",
        "cpu_count": 1,
        "workload": {"spacings_m": [0.04]},
        "timings_s": {"serial": 5.0, "sharded": None},
        "results_bit_identical": True,
    },
    "streaming": {
        "generated_at": "2026-08-08T00:00:00+00:00",
        "platform": "test",
        "seed": 2015,
        "ingest_reads_per_s": 50_000.0,
        "results_bit_identical": True,
    },
    "accuracy": {
        "generated_at": "2026-08-08T00:00:00+00:00",
        "platform": "test",
        "seed": 2015,
        "schemes": ["STPP"],
        "scenarios": {"library": {"STPP": {"combined": 1.0}}},
        "mean_combined": {"STPP": 1.0},
        "fig17": {"STPP": 0.77},
        "scale": {"repetitions": 2},
    },
    "robustness": {
        "generated_at": "2026-08-08T00:00:00+00:00",
        "platform": "test",
        "seed": 2015,
        "schemes": ["STPP"],
        "scenarios": ["library"],
        "ladders": {
            "loss": {"rates": [0.0], "curves": {"library": {"STPP": [1.0]}}}
        },
        "zero_fault_bit_identical": True,
        "stpp_min_lead": 0.1,
        "stpp_min_accuracy": 1.0,
        "scale": {"repetitions": 1},
    },
}

ALL_REQUIRED_KEYS = [
    (kind, key)
    for kind, payload in MINIMAL_SNAPSHOTS.items()
    for key in SNAPSHOT_SCHEMAS[kind].required
]


class TestSnapshotValidation:
    @pytest.mark.parametrize("kind", sorted(MINIMAL_SNAPSHOTS))
    def test_minimal_payload_validates_clean(self, kind):
        assert validate_snapshot(kind, MINIMAL_SNAPSHOTS[kind]) == []

    @pytest.mark.parametrize("kind,key", ALL_REQUIRED_KEYS)
    def test_each_missing_required_key_is_caught(self, kind, key):
        payload = {k: v for k, v in MINIMAL_SNAPSHOTS[kind].items() if k != key}
        problems = validate_snapshot(kind, payload)
        assert problems, f"{kind} without {key!r} validated clean"
        assert any(key in problem for problem in problems)

    def test_wrong_type_is_caught(self):
        payload = {**MINIMAL_SNAPSHOTS["accuracy"], "scenarios": ["library"]}
        assert any("scenarios" in p for p in validate_snapshot("accuracy", payload))

    def test_bool_field_rejects_truthy_int(self):
        payload = {**MINIMAL_SNAPSHOTS["experiments"], "results_bit_identical": 1}
        problems = validate_snapshot("experiments", payload)
        assert any("results_bit_identical" in p for p in problems)

    def test_bool_rejected_where_a_number_is_required(self):
        payload = {**MINIMAL_SNAPSHOTS["streaming"], "ingest_reads_per_s": True}
        problems = validate_snapshot("streaming", payload)
        assert any("ingest_reads_per_s" in p for p in problems)

    def test_numeric_path_rejects_strings_and_nan(self):
        corrupted = {
            **MINIMAL_SNAPSHOTS["dtw"],
            "speedup_vs_python_loop": {"batched": "fast"},
        }
        assert any(
            "speedup_vs_python_loop.batched" in p
            for p in validate_snapshot("dtw", corrupted)
        )
        nan = {**MINIMAL_SNAPSHOTS["streaming"], "ingest_reads_per_s": float("nan")}
        assert validate_snapshot("streaming", nan)

    def test_null_on_a_numeric_path_means_not_measured(self):
        payload = {
            **MINIMAL_SNAPSHOTS["experiments"],
            "speedup_sharded_vs_serial": None,
        }
        assert validate_snapshot("experiments", payload) == []

    def test_non_object_payload_is_one_clear_problem(self):
        problems = validate_snapshot("sweep", [1, 2, 3])
        assert len(problems) == 1 and "object" in problems[0]


@pytest.mark.parametrize(
    "kind,filename",
    [
        ("sweep", "BENCH_sweep.json"),
        ("dtw", "BENCH_dtw.json"),
        ("experiments", "BENCH_experiments.json"),
        ("streaming", "BENCH_streaming.json"),
        ("accuracy", "BENCH_accuracy.json"),
        ("robustness", "BENCH_robustness.json"),
    ],
)
def test_committed_snapshots_validate_clean(kind, filename):
    path = REPO / filename
    if not path.exists():
        pytest.skip(f"{filename} not recorded in this checkout")
    assert validate_snapshot(kind, json.loads(path.read_text())) == []
