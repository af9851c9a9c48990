"""Schema validation and writing of every ``BENCH_*.json`` snapshot kind."""

from __future__ import annotations

import json
import platform
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from repro.bench.schema import (
    SNAPSHOT_SCHEMAS,
    SchemaError,
    validate_snapshot,
    write_snapshot,
)

REPO = Path(__file__).resolve().parents[1]

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


class TestWriteSnapshot:
    @pytest.mark.parametrize("kind", sorted(MINIMAL_SNAPSHOTS))
    def test_stamps_then_writes_indented_json(self, kind, tmp_path):
        body = _body(kind)
        path = tmp_path / f"BENCH_{kind}.json"
        payload = write_snapshot(kind, body, path)
        assert list(payload)[:2] == ["generated_at", "platform"]
        assert {k: payload[k] for k in body} == body
        assert path.read_text() == json.dumps(payload, indent=2) + "\n"
        assert validate_snapshot(kind, json.loads(path.read_text())) == []

    def test_refuses_a_payload_that_fails_its_schema(self, tmp_path):
        path = tmp_path / "BENCH_accuracy.json"
        body = {"seed": 2015, "schemes": ["STPP"]}
        with pytest.raises(SchemaError, match="mean_combined"):
            write_snapshot("accuracy", body, path)
        assert not path.exists()

    def test_generated_at_is_utc_to_the_second(self, tmp_path):
        payload = write_snapshot(
            "accuracy", _body("accuracy"), tmp_path / "BENCH_accuracy.json"
        )
        stamp = datetime.fromisoformat(payload["generated_at"])
        assert stamp.utcoffset() == timedelta(0)
        assert stamp.microsecond == 0
        assert abs(datetime.now(timezone.utc) - stamp) < timedelta(minutes=5)

    def test_platform_names_the_writing_host(self, tmp_path):
        payload = write_snapshot(
            "robustness", _body("robustness"), tmp_path / "BENCH_robustness.json"
        )
        assert payload["platform"] == platform.platform()

    def test_refusal_leaves_an_existing_record_untouched(self, tmp_path):
        path = tmp_path / "BENCH_robustness.json"
        path.write_text("previous record\n")
        body = {**_body("robustness"), "zero_fault_bit_identical": "yes"}
        with pytest.raises(SchemaError, match="zero_fault_bit_identical"):
            write_snapshot("robustness", body, path)
        assert path.read_text() == "previous record\n"

    @pytest.mark.parametrize(
        "kind,path",
        [
            (kind, path)
            for kind in sorted(MINIMAL_SNAPSHOTS)
            for path in SNAPSHOT_SCHEMAS[kind].numeric_paths
        ],
    )
    def test_refuses_a_non_finite_headline_number(self, kind, path, tmp_path):
        # json.dumps would write NaN, which no strict JSON reader accepts.
        body = json.loads(json.dumps(_body(kind)))
        *parents, leaf = path.split(".")
        node = body
        for part in parents:
            node = node[part]
        node[leaf] = float("nan")
        out = tmp_path / f"BENCH_{kind}.json"
        with pytest.raises(SchemaError, match=path):
            write_snapshot(kind, body, out)
        assert not out.exists()


def _body(kind: str) -> dict:
    """A minimal snapshot without the stamps write_snapshot adds."""
    return {
        k: v
        for k, v in MINIMAL_SNAPSHOTS[kind].items()
        if k not in ("generated_at", "platform")
    }


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
