"""Round-trip and property tests for the append-only bench history store."""

from __future__ import annotations

import json

import pytest

from repro.bench.schema import BenchRecord
from repro.bench.store import (
    GIT_SHA_ENV,
    BenchHistory,
    HistoryError,
    current_git_sha,
    flatten_metrics,
    record_run,
)


def make_record(metric: str = "speedup", value: float = 2.0, **overrides) -> BenchRecord:
    fields = dict(
        run_id="run-1",
        git_sha="abc1234",
        timestamp="2026-08-08T00:00:00+00:00",
        platform="test-host",
        source="bench_test",
        metric=metric,
        value=value,
        scale={"tags": 8},
    )
    fields.update(overrides)
    return BenchRecord(**fields)


class TestAppendReadRoundTrip:
    def test_append_then_read_preserves_rows_exactly(self, tmp_path):
        history = BenchHistory(tmp_path / "hist.jsonl")
        records = [
            make_record("a", 1.5),
            make_record("b", -3.0, scale={"tags": 8, "reps": 2}),
            make_record("c", 0.0, run_id="run-2"),
        ]
        assert history.append(records) == 3
        assert history.read() == records

    def test_appends_accumulate_in_order(self, tmp_path):
        history = BenchHistory(tmp_path / "hist.jsonl")
        first = [make_record("a", 1.0)]
        second = [make_record("b", 2.0), make_record("c", 3.0)]
        history.append(first)
        history.append(second)
        assert history.read() == first + second

    def test_two_handles_share_one_ledger(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        BenchHistory(path).append([make_record("a", 1.0)])
        BenchHistory(path).append([make_record("b", 2.0)])
        assert [r.metric for r in BenchHistory(path).read()] == ["a", "b"]

    def test_empty_append_is_a_no_op(self, tmp_path):
        history = BenchHistory(tmp_path / "hist.jsonl")
        assert history.append([]) == 0
        assert not history.path.exists()
        assert history.read() == []

    def test_one_line_per_record(self, tmp_path):
        history = BenchHistory(tmp_path / "hist.jsonl")
        history.append([make_record("a", 1.0), make_record("b", 2.0)])
        lines = history.path.read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["source"] == "bench_test" for line in lines)


class TestMalformedHistory:
    def test_invalid_json_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        BenchHistory(path).append([make_record()])
        with open(path, "a") as handle:
            handle.write("{not json\n")
        with pytest.raises(HistoryError, match=r"hist\.jsonl:2"):
            BenchHistory(path).read()

    def test_missing_field_raises_naming_the_field(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        row = make_record().to_json()
        del row["git_sha"]
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(HistoryError, match="git_sha"):
            BenchHistory(path).read()

    def test_unknown_field_raises(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        row = make_record().to_json()
        row["surprise"] = 1
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(HistoryError, match="unknown"):
            BenchHistory(path).read()

    def test_blank_lines_are_tolerated(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        BenchHistory(path).append([make_record()])
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert len(BenchHistory(path).read()) == 1


class TestFlattenMetrics:
    def test_nested_mappings_become_dotted_names(self):
        flat = flatten_metrics({"timings_s": {"serial": 1.5, "stages": {"sim": 0.5}}})
        assert flat == {"timings_s.serial": 1.5, "timings_s.stages.sim": 0.5}

    def test_bools_become_zero_one(self):
        assert flatten_metrics({"ok": True, "bad": False}) == {"ok": 1.0, "bad": 0.0}

    def test_non_numeric_and_non_finite_leaves_are_skipped(self):
        flat = flatten_metrics(
            {"label": "fused", "nan": float("nan"), "inf": float("inf"), "v": 2}
        )
        assert flat == {"v": 2.0}


class TestRecordRun:
    def test_rows_share_one_stamp_and_append_to_history(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        rows = record_run(
            source="bench_test",
            metrics={"speedup": {"batched": 5.0}, "ok": True},
            scale={"tags": 8},
            history=path,
            git_sha="cafe123",
            timestamp="2026-08-08T00:00:00+00:00",
            platform="test-host",
        )
        assert {r.metric for r in rows} == {"speedup.batched", "ok"}
        assert len({r.run_id for r in rows}) == 1
        assert all(r.git_sha == "cafe123" for r in rows)
        assert BenchHistory(path).read() == rows

    def test_distinct_runs_get_distinct_run_ids(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        first = record_run("bench_test", {"v": 1.0}, {}, history=path)
        second = record_run("bench_test", {"v": 2.0}, {}, history=path)
        assert first[0].run_id != second[0].run_id

    def test_git_sha_env_override_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(GIT_SHA_ENV, "deadbeef")
        assert current_git_sha() == "deadbeef"
        rows = record_run("bench_test", {"v": 1.0}, {}, history=tmp_path / "h.jsonl")
        assert rows[0].git_sha == "deadbeef"
