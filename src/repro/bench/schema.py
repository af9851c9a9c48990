"""Schemas for the benchmark warehouse: history rows and snapshot files.

Two kinds of benchmark evidence live in this repository:

* **snapshots** — the ``BENCH_*.json`` files at the repo root, overwritten by
  each ``make bench-*`` run.  They carry the latest full record of one
  harness (timings, speedups, scale knobs, bit-identity flags).
* **history rows** — append-only JSONL lines in ``BENCH_HISTORY.jsonl``.
  Every bench run appends its headline metrics as flat rows, so the
  trajectory across PRs (1.20 s → 0.06 s sweeps, accuracy per scheme, …)
  survives outside git archaeology.

This module is the single source of truth for both shapes.  The history row
schema is :class:`BenchRecord`; the per-file snapshot requirements live in
``SNAPSHOT_SCHEMAS`` and are enforced by :func:`validate_snapshot`, which both
CI checkers (``benchmarks/check_speedups.py`` and
``benchmarks/check_accuracy.py``) call before applying any floor — a floor
check against a corrupted or truncated record proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping


class SchemaError(ValueError):
    """A history row or snapshot payload violates its schema."""


# --------------------------------------------------------------------------
# History rows
# --------------------------------------------------------------------------

HISTORY_FIELDS: tuple[str, ...] = (
    "run_id",
    "git_sha",
    "timestamp",
    "platform",
    "source",
    "metric",
    "value",
    "scale",
)
"""Required keys of one history row, in canonical serialization order."""


def _require_str(name: str, value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise SchemaError(f"history row field {name!r} must be a non-empty string, got {value!r}")
    return value


@dataclass(frozen=True)
class BenchRecord:
    """One appended measurement: a single (run, metric, value) observation.

    Parameters
    ----------
    run_id:
        Groups all rows appended by one bench invocation (shared UUID).
    git_sha:
        The commit the run measured (``"unknown"`` outside a git checkout).
    timestamp:
        ISO-8601 UTC time of the run.
    platform:
        ``platform.platform()`` of the host, so cross-host rows are never
        compared as a trend by accident.
    source:
        The producing harness, e.g. ``"bench_sweep"`` or ``"bench_accuracy"``.
    metric:
        Dotted metric name, e.g. ``"static.speedup_fused_vs_scalar"`` or
        ``"library.STPP.combined"``.
    value:
        The measurement (finite float; bools are recorded as 0.0/1.0).
    scale:
        The scale descriptor of the run (tag counts, repetitions, …) — the
        knobs that decide whether two rows are comparable.
    """

    run_id: str
    git_sha: str
    timestamp: str
    platform: str
    source: str
    metric: str
    value: float
    scale: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("run_id", "git_sha", "timestamp", "platform", "source", "metric"):
            _require_str(name, getattr(self, name))
        value = self.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(
                f"history row {self.metric!r}: value must be int/float, got {value!r}"
            )
        if value != value or value in (float("inf"), float("-inf")):
            raise SchemaError(f"history row {self.metric!r}: value must be finite, got {value!r}")
        if not isinstance(self.scale, Mapping):
            raise SchemaError(
                f"history row {self.metric!r}: scale must be a mapping, got {type(self.scale).__name__}"
            )

    def to_json(self) -> dict[str, Any]:
        """The row as a plain dict in canonical field order."""
        return {name: getattr(self, name) for name in HISTORY_FIELDS} | {
            "value": float(self.value),
            "scale": dict(self.scale),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "BenchRecord":
        """Parse one row, rejecting missing or unknown keys loudly."""
        if not isinstance(payload, Mapping):
            raise SchemaError(f"history row must be an object, got {type(payload).__name__}")
        missing = [name for name in HISTORY_FIELDS if name not in payload]
        if missing:
            raise SchemaError(f"history row missing required field(s): {', '.join(missing)}")
        unknown = [name for name in payload if name not in HISTORY_FIELDS]
        if unknown:
            raise SchemaError(f"history row has unknown field(s): {', '.join(unknown)}")
        return cls(**{name: payload[name] for name in HISTORY_FIELDS})


# --------------------------------------------------------------------------
# Snapshot files
# --------------------------------------------------------------------------

_NUMBER = (int, float)


@dataclass(frozen=True)
class SnapshotSchema:
    """Required top-level keys of one ``BENCH_*.json`` file.

    Only fields every version of the file carries are required — optional
    fields introduced by later PRs (e.g. the localize-overhead ratio) stay
    optional so the checkers keep validating pre-upgrade records.
    ``numeric_paths`` lists dotted paths that, **when present**, must be
    finite numbers (a timing recorded as a string or NaN is corruption, not
    a format change).
    """

    required: Mapping[str, type | tuple[type, ...]]
    numeric_paths: tuple[str, ...] = ()


SNAPSHOT_SCHEMAS: dict[str, SnapshotSchema] = {
    "sweep": SnapshotSchema(
        required={
            "generated_at": str,
            "platform": str,
            "seed": _NUMBER,
            "scenes": dict,
            "speedup_fused_vs_scalar": _NUMBER,
        },
        numeric_paths=(
            "speedup_fused_vs_scalar",
            "cpu_count",
            "scenes.static.scalar_s",
            "scenes.static.fused_s",
            "scenes.static.speedup_fused_vs_scalar",
            "scenes.moving.scalar_s",
            "scenes.moving.fused_s",
            "scenes.moving.speedup_fused_vs_scalar",
            "dense_hall.tag_count",
            "dense_hall.fused_s",
        ),
    ),
    "dtw": SnapshotSchema(
        required={
            "generated_at": str,
            "platform": str,
            "tag_count": _NUMBER,
            "timings_s": dict,
            "speedup_vs_python_loop": dict,
        },
        numeric_paths=(
            "timings_s.python_loop_per_tag",
            "timings_s.batched",
            "speedup_vs_python_loop.batched",
            "localize_overhead_vs_kernel",
        ),
    ),
    "experiments": SnapshotSchema(
        required={
            "generated_at": str,
            "platform": str,
            "cpu_count": _NUMBER,
            "workload": dict,
            "timings_s": dict,
            "results_bit_identical": bool,
        },
        numeric_paths=(
            "timings_s.serial",
            "stage_breakdown_s.simulate",
            "speedup_simulate_vs_pr4",
            "speedup_sharded_vs_serial",
        ),
    ),
    "streaming": SnapshotSchema(
        required={
            "generated_at": str,
            "platform": str,
            "seed": _NUMBER,
            "ingest_reads_per_s": _NUMBER,
            "results_bit_identical": bool,
        },
        numeric_paths=(
            "ingest_reads_per_s",
            "provisional_latency_s_mean",
        ),
    ),
    "service": SnapshotSchema(
        required={
            "generated_at": str,
            "platform": str,
            "seed": _NUMBER,
            "cpu_count": _NUMBER,
            "sessions": dict,
            "max_sessions": _NUMBER,
            "aggregate_reads_per_s": _NUMBER,
            "results_bit_identical": bool,
        },
        numeric_paths=(
            "cpu_count",
            "max_sessions",
            "aggregate_reads_per_s",
            "provisional_latency_s_p95",
        ),
    ),
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
"""Snapshot kind (``--only`` name) → its required shape."""


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
    numeric paths are allowed — the writers use ``null`` for "not measured on
    this host" (e.g. the skipped sharded timing).
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
