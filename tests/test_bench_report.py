"""Warehouse reporting: trend tables, leaderboard rendering, doc generation.

Includes the rot test for ``docs/figures.md``: the committed status tables
must equal what the generator emits from the committed records, so the doc
cannot drift from the registry or the recorded leaderboard by hand-editing.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.registry import ARTIFACTS, artifacts_in
from repro.bench.report import (
    DOC_BEGIN,
    DOC_END,
    figures_status_block,
    format_leaderboard,
    format_trends,
    load_accuracy,
    main,
    trend_table,
    update_figures_doc,
)
from repro.bench.store import BenchHistory, record_run

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture()
def history(tmp_path):
    path = tmp_path / "hist.jsonl"
    for sha, value in (("aaaa111aaaa", 4.0), ("bbbb222bbbb", 5.5)):
        record_run(
            source="bench_dtw",
            metrics={"speedup_vs_python_loop": {"batched": value}},
            scale={"tags": 120},
            history=path,
            git_sha=sha,
            timestamp="2026-08-08T00:00:00+00:00",
            platform="test-host",
        )
    record_run(
        source="bench_accuracy",
        metrics={"mean": {"STPP": {"combined": 0.72}}},
        scale={"repetitions": 2},
        history=path,
        git_sha="cccc333cccc",
        timestamp="2026-08-08T00:00:00+00:00",
        platform="test-host",
    )
    return BenchHistory(path)


class TestTrends:
    def test_trend_table_shows_values_sha_and_scale(self, history):
        table = trend_table(
            history.read(), "bench_dtw", "speedup_vs_python_loop.batched"
        )
        assert "4.000" in table and "5.500" in table
        assert "aaaa111aa" in table  # sha shortened to 9 chars
        assert "tags=120" in table

    def test_trend_table_honours_last(self, history):
        table = trend_table(
            history.read(), "bench_dtw", "speedup_vs_python_loop.batched", last=1
        )
        assert "5.500" in table and "4.000" not in table

    def test_headline_trends_skip_unrecorded_metrics(self, history):
        text = format_trends(history)
        assert "bench_accuracy :: mean.STPP.combined" in text
        assert "fig17" not in text  # a headline with no rows recorded
        assert "bench_dtw" not in text  # recorded, but not a headline

    def test_all_metrics_mode_lists_every_recorded_metric(self, history):
        assert "speedup_vs_python_loop.batched" in format_trends(history, all_metrics=True)

    def test_empty_history_reports_itself(self, tmp_path):
        assert "no history rows" in format_trends(BenchHistory(tmp_path / "none.jsonl"))


class TestAccuracyRendering:
    def test_load_accuracy_returns_none_when_absent(self, tmp_path):
        assert load_accuracy(tmp_path / "missing.json") is None

    def test_load_accuracy_raises_on_schema_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"generated_at": "now"}))
        with pytest.raises(ValueError, match="schema"):
            load_accuracy(path)

    def test_format_leaderboard_lists_every_scheme(self):
        accuracy = load_accuracy(REPO / "BENCH_accuracy.json")
        if accuracy is None:
            pytest.skip("BENCH_accuracy.json not recorded in this checkout")
        table = format_leaderboard(accuracy)
        for scheme in accuracy["schemes"]:
            assert scheme in table


class TestRegistry:
    def test_every_section_has_artifacts(self):
        for section in ("figure", "table", "case", "extension"):
            assert artifacts_in(section)

    def test_accuracy_keys_point_at_recorded_sections(self):
        keys = {a.accuracy_key for a in ARTIFACTS if a.accuracy_key}
        assert "fig17" in keys and "warehouse" in keys


class TestDocGeneration:
    def test_block_carries_markers_and_all_tables(self):
        block = figures_status_block(None)
        assert block.startswith(DOC_BEGIN) and block.endswith(DOC_END)
        for heading in ("## Paper figures", "## Paper tables", "## Scenario extensions"):
            assert heading in block

    def test_recorded_accuracy_annotates_statuses(self):
        accuracy = load_accuracy(REPO / "BENCH_accuracy.json")
        if accuracy is None:
            pytest.skip("BENCH_accuracy.json not recorded in this checkout")
        block = figures_status_block(accuracy)
        assert "## Recorded accuracy leaderboard" in block
        assert "(recorded)" in block

    def test_update_requires_markers(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("# No markers here\n")
        with pytest.raises(ValueError, match="markers"):
            update_figures_doc(doc, None)

    def test_update_is_idempotent(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(f"# Title\n\npreamble\n\n{DOC_BEGIN}\nstale\n{DOC_END}\n\ntail\n")
        _, changed = update_figures_doc(doc, None)
        assert changed
        text, changed = update_figures_doc(doc, None)
        assert not changed
        assert text.startswith("# Title") and text.endswith("tail\n")
        assert "stale" not in text

    def test_committed_figures_doc_matches_generator(self):
        """The rot test: docs/figures.md must equal the generator's output."""
        doc = (REPO / "docs" / "figures.md").read_text()
        begin, end = doc.find(DOC_BEGIN), doc.find(DOC_END)
        assert begin >= 0 and end > begin, "docs/figures.md lost its generation markers"
        committed_block = doc[begin : end + len(DOC_END)]
        accuracy = load_accuracy(REPO / "BENCH_accuracy.json")
        assert committed_block == figures_status_block(accuracy), (
            "docs/figures.md is stale — run `make bench-report` to regenerate"
        )


class TestCli:
    def test_main_prints_trends_and_updates_docs(self, tmp_path, capsys, history):
        doc = tmp_path / "doc.md"
        doc.write_text(f"{DOC_BEGIN}\nstale\n{DOC_END}\n")
        exit_code = main(
            [
                "--history", str(history.path),
                "--accuracy", str(tmp_path / "missing.json"),
                "--write-docs", str(doc),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "bench_accuracy" in out and "updated" in out
        assert "stale" not in doc.read_text()
