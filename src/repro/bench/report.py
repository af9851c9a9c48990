"""Warehouse report: the recorded leaderboard and the generated figure-status doc.

* ``python -m repro.bench.report`` — prints the recorded accuracy
  leaderboard from ``BENCH_accuracy.json``.
* ``python -m repro.bench.report --write-docs`` — also regenerates the status
  tables in ``docs/figures.md`` between the ``GENERATED STATUS TABLES``
  markers from the artifact registry and the recorded leaderboard.
  ``tests/test_bench_report.py`` re-renders the block and diffs it against
  the committed doc, so the table cannot be hand-edited back into rot.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..reporting.tables import format_table
from .registry import Artifact, artifacts_in
from .schema import validate_snapshot

DEFAULT_ACCURACY_PATH = Path("BENCH_accuracy.json")

DOC_BEGIN = "<!-- BEGIN GENERATED STATUS TABLES (python -m repro.bench.report --write-docs) -->"
DOC_END = "<!-- END GENERATED STATUS TABLES -->"


# --------------------------------------------------------------------------
# Accuracy leaderboard rendering
# --------------------------------------------------------------------------


def load_accuracy(path: Path = DEFAULT_ACCURACY_PATH) -> dict[str, Any] | None:
    """The recorded accuracy snapshot, schema-validated; None when absent."""
    if not path.exists():
        return None
    payload = json.loads(path.read_text())
    problems = validate_snapshot("accuracy", payload)
    if problems:
        raise ValueError(
            f"{path} fails the accuracy snapshot schema:\n  " + "\n  ".join(problems)
        )
    return payload


def format_leaderboard(payload: Mapping[str, Any]) -> str:
    """The recorded leaderboard as a text table (schemes × scenarios + fig17)."""
    schemes = list(payload["schemes"])
    scenarios = list(payload["scenarios"])
    headers = ["scheme", *scenarios, "mean", "fig17"]
    rows = []
    for scheme in schemes:
        rows.append(
            [
                scheme,
                *[payload["scenarios"][scenario][scheme]["combined"] for scenario in scenarios],
                payload["mean_combined"][scheme],
                payload["fig17"][scheme],
            ]
        )
    return format_table(
        headers,
        rows,
        title=f"accuracy leaderboard (combined ordering accuracy, recorded {payload.get('generated_at', 'unrecorded')})",
    )


# --------------------------------------------------------------------------
# docs/figures.md status tables
# --------------------------------------------------------------------------


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return lines


def _status_of(artifact: Artifact, accuracy: Mapping[str, Any] | None) -> str:
    """The status cell: registry status, annotated with the recorded number."""
    if accuracy is None or artifact.accuracy_key is None:
        return artifact.status
    key = artifact.accuracy_key
    if key == "fig17":
        stpp = accuracy["fig17"]["STPP"]
        best_baseline = max(
            value for scheme, value in accuracy["fig17"].items() if scheme != "STPP"
        )
        measured = f"STPP {stpp:.3f} vs best baseline {best_baseline:.3f}"
    elif key in accuracy["scenarios"]:
        stpp = accuracy["scenarios"][key]["STPP"]["combined"]
        measured = f"STPP {stpp:.3f} combined"
    else:
        return artifact.status
    return f"{artifact.status} — {measured} (recorded)"


def _artifact_rows(section: str, accuracy: Mapping[str, Any] | None) -> list[list[str]]:
    return [
        [f"`{a.benchmark}`", a.artifact, a.description, _status_of(a, accuracy)]
        for a in artifacts_in(section)
    ]


def figures_status_block(accuracy: Mapping[str, Any] | None) -> str:
    """The generated portion of ``docs/figures.md`` (markers included)."""
    recorded = (
        f"`BENCH_accuracy.json` recorded {accuracy['generated_at']}"
        if accuracy is not None and "generated_at" in accuracy
        else "no recorded `BENCH_accuracy.json` — run `make bench-accuracy`"
    )
    lines: list[str] = [
        DOC_BEGIN,
        "",
        f"_Generated from `src/repro/bench/registry.py` and the recorded results",
        f"({recorded}); regenerate with `make bench-report`._",
        "",
        "## Paper figures",
        "",
        *_md_table(
            ("Benchmark file", "Paper artifact", "What it reproduces", "Status"),
            _artifact_rows("figure", accuracy),
        ),
        "",
        "## Paper tables",
        "",
        *_md_table(
            ("Benchmark file", "Paper artifact", "What it reproduces", "Status"),
            _artifact_rows("table", accuracy),
        ),
        "",
        "## Case-study headlines and ablations",
        "",
        "These have no single figure number; they pin the paper's headline claims and",
        "the design choices its text argues for.",
        "",
        *_md_table(
            ("Benchmark file", "Paper artifact", "What it reproduces", "Status"),
            _artifact_rows("case", accuracy),
        ),
        "",
        "## Scenario extensions (beyond the paper)",
        "",
        *_md_table(
            ("Generator", "Scenario", "What it adds", "Status"),
            _artifact_rows("extension", accuracy),
        ),
    ]
    if accuracy is not None:
        lines += [
            "",
            "## Recorded accuracy leaderboard",
            "",
            "Combined (X+Y)/2 ordering accuracy per scheme, from the committed",
            "`BENCH_accuracy.json` (gated by `benchmarks/check_accuracy.py`):",
            "",
            *_md_table(
                ("Scheme", *[s for s in accuracy["scenarios"]], "mean", "Figure 17"),
                [
                    [
                        scheme,
                        *[
                            f"{accuracy['scenarios'][scenario][scheme]['combined']:.3f}"
                            for scenario in accuracy["scenarios"]
                        ],
                        f"{accuracy['mean_combined'][scheme]:.3f}",
                        f"{accuracy['fig17'][scheme]:.3f}",
                    ]
                    for scheme in accuracy["schemes"]
                ],
            ),
        ]
    lines += ["", DOC_END]
    return "\n".join(lines)


def update_figures_doc(
    doc_path: Path, accuracy: Mapping[str, Any] | None
) -> tuple[str, bool]:
    """Replace the generated block in ``doc_path``; returns (text, changed).

    Raises when the markers are missing — a doc without them was not prepared
    for generation and silently appending would duplicate tables.
    """
    text = doc_path.read_text()
    begin = text.find(DOC_BEGIN)
    end = text.find(DOC_END)
    if begin < 0 or end < 0 or end < begin:
        raise ValueError(
            f"{doc_path} is missing the {DOC_BEGIN!r} / {DOC_END!r} markers"
        )
    block = figures_status_block(accuracy)
    updated = text[:begin] + block + text[end + len(DOC_END):]
    changed = updated != text
    if changed:
        doc_path.write_text(updated)
    return updated, changed


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--accuracy", type=Path, default=DEFAULT_ACCURACY_PATH)
    parser.add_argument(
        "--write-docs", type=Path, nargs="?", const=Path("docs/figures.md"),
        default=None, metavar="DOC",
        help="regenerate the status tables in DOC (default docs/figures.md)",
    )
    args = parser.parse_args(argv)

    accuracy = load_accuracy(args.accuracy)
    if accuracy is None:
        print(f"no recorded {args.accuracy}")
    else:
        print(format_leaderboard(accuracy))
    if args.write_docs is not None:
        _, changed = update_figures_doc(args.write_docs, accuracy)
        print(f"\n{args.write_docs}: {'updated' if changed else 'already up to date'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
