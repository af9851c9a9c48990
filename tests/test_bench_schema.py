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

    @pytest.mark.parametrize("kind,key", ALL_REQUIRED_KEYS)
    def test_each_wrong_type_is_caught(self, kind, key):
        # A value of a type no required field accepts (or bool's truthy int).
        wrong = 1 if SNAPSHOT_SCHEMAS[kind].required[key] in (str, bool) else "x"
        payload = {**MINIMAL_SNAPSHOTS[kind], key: wrong}
        problems = validate_snapshot(kind, payload)
        assert any(key in problem for problem in problems), problems

    @pytest.mark.parametrize(
        "kind,path",
        [
            (kind, path)
            for kind in sorted(MINIMAL_SNAPSHOTS)
            for path in SNAPSHOT_SCHEMAS[kind].numeric_paths
        ],
    )
    @pytest.mark.parametrize("bad", ["high", float("nan"), float("inf")])
    def test_each_numeric_path_rejects_non_finite_values(self, kind, path, bad):
        payload = json.loads(json.dumps(MINIMAL_SNAPSHOTS[kind]))
        *parents, leaf = path.split(".")
        node = payload
        for part in parents:
            node = node[part]
        node[leaf] = bad
        assert any(path in problem for problem in validate_snapshot(kind, payload))

    def test_wrong_type_is_caught(self):
        payload = {**MINIMAL_SNAPSHOTS["accuracy"], "scenarios": ["library"]}
        assert any("scenarios" in p for p in validate_snapshot("accuracy", payload))

    def test_bool_field_rejects_truthy_int(self):
        payload = {**MINIMAL_SNAPSHOTS["robustness"], "zero_fault_bit_identical": 1}
        problems = validate_snapshot("robustness", payload)
        assert any("zero_fault_bit_identical" in p for p in problems)

    def test_bool_rejected_where_a_number_is_required(self):
        payload = {**MINIMAL_SNAPSHOTS["accuracy"], "seed": True}
        problems = validate_snapshot("accuracy", payload)
        assert any("seed" in p for p in problems)

    def test_numeric_path_rejects_strings_and_nan(self):
        corrupted = {**MINIMAL_SNAPSHOTS["accuracy"], "mean_combined": {"STPP": "high"}}
        assert any(
            "mean_combined.STPP" in p for p in validate_snapshot("accuracy", corrupted)
        )
        nan = {**MINIMAL_SNAPSHOTS["robustness"], "stpp_min_lead": float("nan")}
        assert validate_snapshot("robustness", nan)

    def test_null_on_a_numeric_path_means_not_measured(self):
        payload = {**MINIMAL_SNAPSHOTS["robustness"], "stpp_min_lead": None}
        assert validate_snapshot("robustness", payload) == []

    def test_non_object_payload_is_one_clear_problem(self):
        problems = validate_snapshot("accuracy", [1, 2, 3])
        assert len(problems) == 1 and "object" in problems[0]


@pytest.mark.parametrize(
    "kind,filename",
    [
        ("accuracy", "BENCH_accuracy.json"),
        ("robustness", "BENCH_robustness.json"),
    ],
)
def test_committed_snapshots_validate_clean(kind, filename):
    path = REPO / filename
    if not path.exists():
        pytest.skip(f"{filename} not recorded in this checkout")
    assert validate_snapshot(kind, json.loads(path.read_text())) == []


@pytest.mark.parametrize("kind", ["sweep", "dtw", "experiments", "streaming", "service"])
def test_retired_timing_kinds_have_no_schema(kind):
    # The timing records moved to perfbench/; their kinds validate nothing.
    assert kind not in SNAPSHOT_SCHEMAS
    with pytest.raises(KeyError):
        validate_snapshot(kind, {})


def test_every_committed_snapshot_has_a_schema():
    # A BENCH_<kind>.json without a schema is a record nothing checks.
    committed = {path.stem.removeprefix("BENCH_") for path in REPO.glob("BENCH_*.json")}
    assert committed <= set(SNAPSHOT_SCHEMAS)
