"""Append-only JSONL history store for benchmark measurements.

``BENCH_HISTORY.jsonl`` (repo root) is the warehouse's ledger: one JSON
object per line, schema :class:`~repro.bench.schema.BenchRecord`.  Snapshots
(``BENCH_*.json``) answer "what is the latest number"; the history answers
"how did it move PR over PR" — so writers only ever **append**, and readers
reject malformed lines loudly instead of silently dropping evidence.

The usual entry point for a bench writer is :func:`record_run`: hand it the
harness name, a flat ``metric → value`` mapping, and the run's scale
descriptor; it stamps all rows with one shared run id, the current git sha,
a UTC timestamp, and the host platform, then appends them atomically (one
``write`` call of pre-serialized lines on a file opened in append mode, so
concurrent appenders interleave whole rows, never fragments).
"""

from __future__ import annotations

import json
import os
import platform as _platform
import subprocess
import uuid
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Mapping

from .schema import BenchRecord, SchemaError

DEFAULT_HISTORY_PATH = Path("BENCH_HISTORY.jsonl")
"""Repo-root ledger every ``make bench-*`` target appends to."""

GIT_SHA_ENV = "REPRO_GIT_SHA"
"""Environment override for the recorded commit (used by CI and tests)."""


class HistoryError(ValueError):
    """The history file contains a line that is not a valid record."""


def current_git_sha(cwd: Path | None = None) -> str:
    """The commit to stamp on history rows.

    Preference order: the ``REPRO_GIT_SHA`` environment variable (CI sets it
    to the exact tested sha), then ``git rev-parse HEAD``, then ``"unknown"``
    — a bench run outside a checkout is still worth recording.
    """
    env = os.environ.get(GIT_SHA_ENV)
    if env:
        return env
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def utc_timestamp() -> str:
    """ISO-8601 UTC now, second precision (matches the snapshot writers)."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class BenchHistory:
    """Reader/appender for one append-only JSONL history file."""

    path: Path = DEFAULT_HISTORY_PATH

    def append(self, records: Iterable[BenchRecord]) -> int:
        """Append ``records`` in order; returns how many rows were written.

        Every record is validated (construction already did) and serialized
        before the file is touched, so a bad record never leaves a partial
        write behind.  All lines go down in a single ``write`` on an
        append-mode handle — the POSIX append guarantee keeps rows from
        concurrent appenders whole and in arrival order.
        """
        lines = [json.dumps(record.to_json(), sort_keys=False) for record in records]
        if not lines:
            return 0
        payload = "\n".join(lines) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(payload)
        return len(lines)

    def read(self) -> list[BenchRecord]:
        """Every row, in append order.

        A malformed line (bad JSON, missing/unknown fields, non-finite value)
        raises :class:`HistoryError` naming the line number — history is
        evidence, and evidence that fails to parse must be repaired, not
        skipped.
        """
        if not self.path.exists():
            return []
        records: list[BenchRecord] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise HistoryError(
                        f"{self.path}:{line_number}: not valid JSON ({exc.msg})"
                    ) from exc
                try:
                    records.append(BenchRecord.from_json(payload))
                except SchemaError as exc:
                    raise HistoryError(f"{self.path}:{line_number}: {exc}") from exc
        return records


def flatten_metrics(tree: Mapping[str, Any], prefix: str = "") -> dict[str, float]:
    """Flatten a nested mapping into dotted ``metric → float`` pairs.

    Non-numeric leaves are skipped (labels and notes belong in the snapshot,
    not the ledger); bools become 0.0/1.0 so flags like
    ``results_bit_identical`` are trendable.
    """
    flat: dict[str, float] = {}
    for key, value in tree.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(flatten_metrics(value, prefix=f"{dotted}."))
        elif isinstance(value, bool):
            flat[dotted] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)) and value == value and abs(value) != float("inf"):
            flat[dotted] = float(value)
    return flat


def record_run(
    source: str,
    metrics: Mapping[str, Any],
    scale: Mapping[str, Any],
    history: BenchHistory | Path | str | None = None,
    run_id: str | None = None,
    git_sha: str | None = None,
    timestamp: str | None = None,
    platform: str | None = None,
) -> list[BenchRecord]:
    """Append one bench run's metrics as history rows; returns the rows.

    ``metrics`` may be nested (it is flattened to dotted names).  All rows
    share one ``run_id``/sha/timestamp/platform stamp, so a run's rows can be
    regrouped later.  Pass ``history=None`` to use the default repo-root
    ledger; pass a path for smoke runs that must not touch the committed one.
    """
    if history is None:
        history = BenchHistory()
    elif not isinstance(history, BenchHistory):
        history = BenchHistory(Path(history))
    stamp = {
        "run_id": run_id or uuid.uuid4().hex,
        "git_sha": git_sha or current_git_sha(),
        "timestamp": timestamp or utc_timestamp(),
        "platform": platform or _platform.platform(),
    }
    rows = [
        BenchRecord(source=source, metric=metric, value=value, scale=dict(scale), **stamp)
        for metric, value in flatten_metrics(metrics).items()
    ]
    history.append(rows)
    return rows
