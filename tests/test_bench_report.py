"""Warehouse reporting: leaderboard rendering and doc generation.

Includes the rot test for ``docs/figures.md``: the committed status tables
must equal what the generator emits from the committed records, so the doc
cannot drift from the registry or the recorded leaderboard by hand-editing.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.leaderboard import scenario_names
from repro.bench.registry import ARTIFACTS, Artifact, artifacts_in
from repro.bench.report import (
    DOC_BEGIN,
    DOC_END,
    _status_of,
    figures_status_block,
    format_leaderboard,
    load_accuracy,
    main,
    update_figures_doc,
)

REPO = Path(__file__).resolve().parents[1]

# A two-scheme, one-scenario record: the smallest leaderboard worth rendering.
TINY_ACCURACY = {
    "generated_at": "2026-08-08T00:00:00+00:00",
    "platform": "test",
    "seed": 2015,
    "schemes": ["STPP", "BackPos"],
    "scenarios": {
        "library": {"STPP": {"combined": 0.875}, "BackPos": {"combined": 0.5}}
    },
    "mean_combined": {"STPP": 0.875, "BackPos": 0.5},
    "fig17": {"STPP": 0.77, "BackPos": 0.555},
    "scale": {"repetitions": 1},
}


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

    def test_format_leaderboard_rows_carry_the_recorded_values(self):
        table = format_leaderboard(TINY_ACCURACY)
        assert "recorded 2026-08-08T00:00:00+00:00" in table
        rows = {
            cells[0]: cells[1:]
            for cells in (
                [cell.strip() for cell in line.split("|")]
                for line in table.splitlines()[1:]
                if "|" in line
            )
        }
        assert rows["scheme"] == ["library", "mean", "fig17"]
        assert rows["STPP"] == ["0.875", "0.875", "0.770"]
        assert rows["BackPos"] == ["0.500", "0.500", "0.555"]

    def test_format_leaderboard_marks_an_unstamped_record(self):
        unstamped = {k: v for k, v in TINY_ACCURACY.items() if k != "generated_at"}
        assert "recorded unrecorded" in format_leaderboard(unstamped)


class TestRegistry:
    def test_every_section_has_artifacts(self):
        for section in ("figure", "table", "case", "extension"):
            assert artifacts_in(section)

    def test_accuracy_keys_point_at_recorded_sections(self):
        keys = {a.accuracy_key for a in ARTIFACTS if a.accuracy_key}
        assert "fig17" in keys and "warehouse" in keys

    def test_sections_are_the_four_doc_sections(self):
        assert {a.section for a in ARTIFACTS} == {"figure", "table", "case", "extension"}

    def test_paper_rows_name_an_existing_benchmark_file(self):
        for artifact in ARTIFACTS:
            if artifact.section != "extension":
                assert (REPO / "benchmarks" / artifact.benchmark).is_file(), artifact

    def test_every_accuracy_key_is_fig17_or_a_registered_scenario(self):
        known = {"fig17", *scenario_names()}
        for artifact in ARTIFACTS:
            if artifact.accuracy_key is not None:
                assert artifact.accuracy_key in known, artifact


class TestStatusCell:
    def test_fig17_status_names_stpp_and_the_best_baseline(self):
        artifact = Artifact("figure", "b.py", "Figure 17", "d", accuracy_key="fig17")
        assert _status_of(artifact, TINY_ACCURACY) == (
            "reproduced — STPP 0.770 vs best baseline 0.555 (recorded)"
        )

    def test_scenario_status_names_stpp_combined(self):
        artifact = Artifact(
            "extension", "s.json", "Library", "d", accuracy_key="library", status="new"
        )
        assert _status_of(artifact, TINY_ACCURACY) == "new — STPP 0.875 combined (recorded)"

    def test_unrecorded_key_or_record_keeps_the_registry_status(self):
        unknown = Artifact("extension", "s.json", "X", "d", accuracy_key="nowhere")
        assert _status_of(unknown, TINY_ACCURACY) == "reproduced"
        keyed = Artifact("figure", "b.py", "Figure 17", "d", accuracy_key="fig17")
        assert _status_of(keyed, None) == "reproduced"


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

    def test_block_without_a_record_says_how_to_record_one(self):
        block = figures_status_block(None)
        assert "no recorded `BENCH_accuracy.json` — run `make bench-accuracy`" in block
        assert "## Recorded accuracy leaderboard" not in block

    def test_update_rejects_markers_in_the_wrong_order(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(f"{DOC_END}\nbody\n{DOC_BEGIN}\n")
        with pytest.raises(ValueError, match="markers"):
            update_figures_doc(doc, None)
        assert doc.read_text() == f"{DOC_END}\nbody\n{DOC_BEGIN}\n"

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
    def test_main_prints_leaderboard_and_updates_docs(self, tmp_path, capsys):
        doc = tmp_path / "doc.md"
        doc.write_text(f"{DOC_BEGIN}\nstale\n{DOC_END}\n")
        accuracy = REPO / "BENCH_accuracy.json"
        if not accuracy.exists():
            pytest.skip("BENCH_accuracy.json not recorded in this checkout")
        exit_code = main(["--accuracy", str(accuracy), "--write-docs", str(doc)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "accuracy leaderboard" in out and "updated" in out
        assert doc.read_text() == figures_status_block(load_accuracy(accuracy)) + "\n"

    def test_main_without_a_record_still_writes_docs(self, tmp_path, capsys):
        doc = tmp_path / "doc.md"
        doc.write_text(f"{DOC_BEGIN}\nstale\n{DOC_END}\n")
        missing = tmp_path / "missing.json"
        exit_code = main(["--accuracy", str(missing), "--write-docs", str(doc)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert f"no recorded {missing}" in out and "updated" in out
        assert "stale" not in doc.read_text()

    def test_main_without_write_docs_leaves_the_doc_alone(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        doc = tmp_path / "docs" / "figures.md"
        doc.parent.mkdir()
        doc.write_text(f"{DOC_BEGIN}\nstale\n{DOC_END}\n")
        assert main(["--accuracy", str(tmp_path / "missing.json")]) == 0
        assert doc.read_text() == f"{DOC_BEGIN}\nstale\n{DOC_END}\n"
        assert "updated" not in capsys.readouterr().out

    def test_write_docs_defaults_to_docs_figures_md(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = tmp_path / "docs" / "figures.md"
        doc.parent.mkdir()
        doc.write_text(f"{DOC_BEGIN}\nstale\n{DOC_END}\n")
        assert main(["--accuracy", str(tmp_path / "missing.json"), "--write-docs"]) == 0
        assert doc.read_text() == figures_status_block(None) + "\n"
        assert "docs/figures.md: updated" in capsys.readouterr().out
