"""Benchmark warehouse: one accuracy record per harness, gated, and reported.

* :mod:`repro.bench.schema` — the required shape of every ``BENCH_*.json``
  snapshot (shared by both CI checkers) and :func:`write_snapshot`, which
  stamps, validates and writes one;
* :mod:`repro.bench.leaderboard` — the five-scheme accuracy leaderboard over
  every registered scenario and the Figure-17 deployment;
* :mod:`repro.bench.registry` / :mod:`repro.bench.report` — the artifact
  registry and the generator behind ``docs/figures.md``'s status tables
  (``python -m repro.bench.report``).
"""

from .leaderboard import SCHEMES, compute_leaderboard
from .schema import SNAPSHOT_SCHEMAS, SchemaError, validate_snapshot, write_snapshot

__all__ = [
    "SCHEMES",
    "SNAPSHOT_SCHEMAS",
    "SchemaError",
    "compute_leaderboard",
    "validate_snapshot",
    "write_snapshot",
]
