"""Benchmark snapshots: the shape of every ``BENCH_*.json`` and its writer.

Each harness keeps one record, a ``BENCH_<kind>.json`` file at the repo root
that every ``make bench-*`` run overwrites: the latest full result of that
harness (scores, floors, scale knobs, bit-identity flags), stamped with the
time and host it ran on.

``SNAPSHOT_SCHEMAS`` holds each kind's required shape and
:func:`validate_snapshot` enforces it.  Both CI checkers
(``benchmarks/check_accuracy.py`` and ``benchmarks/check_robustness.py``)
call it before applying any floor — a floor check against a corrupted or
truncated record proves nothing — and :func:`write_snapshot` calls it
before a recorder writes, so a record that fails its schema is never
written.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping


class SchemaError(ValueError):
    """A snapshot payload violates its schema."""


# --------------------------------------------------------------------------
# Snapshot files
# --------------------------------------------------------------------------

_NUMBER = (int, float)


@dataclass(frozen=True)
class SnapshotSchema:
    """Required top-level keys of one ``BENCH_*.json`` file.

    Only fields every version of the file carries are required — optional
    fields introduced by later versions stay optional so the checkers keep
    validating pre-upgrade records.  ``numeric_paths`` lists dotted paths
    that, **when present**, must be finite numbers (an accuracy recorded as a
    string or NaN is corruption, not a format change).
    """

    required: Mapping[str, type | tuple[type, ...]]
    numeric_paths: tuple[str, ...] = ()


SNAPSHOT_SCHEMAS: dict[str, SnapshotSchema] = {
    "robustness": SnapshotSchema(
        required={
            "generated_at": str,
            "platform": str,
            "seed": _NUMBER,
            "schemes": list,
            "scenarios": list,
            "ladders": dict,
            "zero_fault_bit_identical": bool,
            "scale": dict,
        },
        numeric_paths=(
            "stpp_min_lead",
            "stpp_min_accuracy",
        ),
    ),
    "accuracy": SnapshotSchema(
        required={
            "generated_at": str,
            "platform": str,
            "seed": _NUMBER,
            "schemes": list,
            "scenarios": dict,
            "mean_combined": dict,
            "fig17": dict,
            "scale": dict,
        },
        numeric_paths=(
            "mean_combined.STPP",
            "fig17.STPP",
        ),
    ),
}
"""Snapshot kind (the ``BENCH_<kind>.json`` suffix) → its required shape."""


def _dig(payload: Mapping[str, Any], dotted: str) -> Any:
    node: Any = payload
    for part in dotted.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    return node


def _is_finite_number(value: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, _NUMBER):
        return False
    return value == value and value not in (float("inf"), float("-inf"))


def validate_snapshot(kind: str, payload: Any) -> list[str]:
    """Validate one snapshot payload; returns a list of problems (empty = ok).

    Checks the required top-level keys and their types, and that every
    *present* ``numeric_paths`` entry is a finite number.  ``None`` values on
    numeric paths are allowed: ``null`` records "not measured", which is not
    corruption.
    """
    schema = SNAPSHOT_SCHEMAS[kind]
    if not isinstance(payload, Mapping):
        return [f"{kind}: payload must be a JSON object, got {type(payload).__name__}"]
    problems = []
    for key, expected in schema.required.items():
        if key not in payload:
            problems.append(f"{kind}: missing required key {key!r}")
        elif expected is bool:
            if not isinstance(payload[key], bool):
                problems.append(
                    f"{kind}: key {key!r} must be a bool, got {payload[key]!r}"
                )
        elif not isinstance(payload[key], expected) or isinstance(payload[key], bool):
            problems.append(
                f"{kind}: key {key!r} must be {getattr(expected, '__name__', 'number')}, "
                f"got {payload[key]!r}"
            )
    for dotted in schema.numeric_paths:
        value = _dig(payload, dotted)
        if value is None:
            continue
        if not _is_finite_number(value):
            problems.append(f"{kind}: {dotted} must be a finite number, got {value!r}")
    return problems


def write_snapshot(kind: str, body: Mapping[str, Any], path: Path) -> dict[str, Any]:
    """Stamp ``body`` with the time and host, validate it, write it to ``path``.

    The payload is ``generated_at`` (ISO-8601 UTC, second precision) and
    ``platform`` followed by ``body``'s keys, written as two-space-indented
    JSON with a trailing newline.  Raises :class:`SchemaError` without
    touching ``path`` when the payload fails ``kind``'s schema.  Returns
    the payload.
    """
    payload = {
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "platform": platform.platform(),
        **body,
    }
    problems = validate_snapshot(kind, payload)
    if problems:
        raise SchemaError(f"refusing to write {path}:\n  " + "\n  ".join(problems))
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload
