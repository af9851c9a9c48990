"""Assert floors on the speedup fields recorded in the ``BENCH_*.json`` files.

CI runs this after the benchmark passes so a regression that erodes an
engine's recorded win fails the build instead of silently shipping:

* ``BENCH_sweep.json``        — the fused sweep engine must beat the scalar
                                read-at-a-time oracle, timed on the same
                                host, on the static scene;
* ``BENCH_dtw.json``          — the batched DTW engine must beat the seed's
                                pure-Python per-tag loop, and the end-to-end
                                localize overhead must stay under the ceiling
                                (2x the kernel time);
* ``BENCH_experiments.json``  — the sharded experiment engine must beat the
                                serial path, but only when the file says the
                                comparison is conclusive (on a single-core
                                host the sharded timing is skipped outright,
                                so there is no ratio to check); the simulate
                                stage must hold its >=3x win over the PR-4
                                recorded baseline when the workload scale is
                                comparable;
* ``BENCH_streaming.json``    — the streaming session must ingest at least
                                10k reads/s, and its final orderings must be
                                bit-identical to the batch pipeline's;
* ``BENCH_service.json``      — the fleet service must have been exercised at
                                the acceptance scale (>= 64 concurrent
                                sessions) with every fleet-served final
                                bit-identical to its standalone session; the
                                aggregate-throughput floor applies only when
                                the record marks the host multi-core (queued
                                dispatch on one core measures queueing, not
                                capacity).

Every file also has to carry ``results_bit_identical: true`` where the field
exists: a speedup from an engine that changed the results is not a speedup.

Run with:
  python benchmarks/check_speedups.py [--only sweep] [--sweep-floor 5.0] ...

Missing files are skipped with a note (each benchmark is recorded by its own
``make bench-*`` target), so the check degrades gracefully on fresh clones.
Fields introduced by later PRs (e.g. the localize-overhead ceiling) are only
enforced when present, so the checker still validates pre-upgrade records.
Every present file is first validated against its snapshot schema
(``repro.bench.schema``, shared with ``check_accuracy.py``): a floor check
against a truncated or corrupted record proves nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.bench.schema import validate_snapshot

FAILURES: list[str] = []


def _load(path: Path, kind: str) -> dict | None:
    """Read and schema-validate one snapshot; None = skip or already failed."""
    if not path.exists():
        print(f"  skip: {path} not found")
        return None
    payload = json.loads(path.read_text())
    problems = validate_snapshot(kind, payload)
    for problem in problems:
        _require(False, f"schema: {problem}")
    return None if problems else payload


def _require(condition: bool, message: str) -> None:
    if condition:
        print(f"  ok:   {message}")
    else:
        print(f"  FAIL: {message}")
        FAILURES.append(message)


def check_sweep(path: Path, floor: float) -> None:
    print(f"sweep kernel ({path}):")
    payload = _load(path, "sweep")
    if payload is None:
        return
    static = payload["scenes"]["static"]
    speedup = float(static["speedup_fused_vs_scalar"])
    _require(
        speedup >= floor,
        f"static-scene fused-vs-scalar speedup {speedup:.2f}x >= {floor}x",
    )
    for scene_name, scene in payload["scenes"].items():
        _require(
            bool(scene.get("results_bit_identical")),
            f"{scene_name} scene: fused and scalar logs bit-identical",
        )


def check_dtw(path: Path, floor: float, overhead_ceiling: float) -> None:
    print(f"DTW engine ({path}):")
    payload = _load(path, "dtw")
    if payload is None:
        return
    speedup = float(payload["speedup_vs_python_loop"]["batched"])
    _require(
        speedup >= floor,
        f"batched-vs-python-loop speedup {speedup:.2f}x >= {floor}x",
    )
    overhead = payload.get("localize_overhead_vs_kernel")
    if overhead is None:
        print("  skip: no localize-overhead record (pre-PR-5 file) — no ceiling applied")
    else:
        _require(
            float(overhead) < overhead_ceiling,
            f"localize overhead {float(overhead):.2f}x the kernel < {overhead_ceiling}x",
        )


def check_experiments(path: Path, floor: float, simulate_floor: float) -> None:
    print(f"experiment engine ({path}):")
    payload = _load(path, "experiments")
    if payload is None:
        return
    _require(
        bool(payload.get("results_bit_identical")),
        "serial and sharded results bit-identical",
    )
    simulate_speedup = payload.get("speedup_simulate_vs_pr4")
    if payload.get("simulate_baseline_comparable") and simulate_speedup is not None:
        _require(
            float(simulate_speedup) >= simulate_floor,
            f"simulate stage vs PR-4 baseline {float(simulate_speedup):.2f}x "
            f">= {simulate_floor}x",
        )
    else:
        print(
            "  skip: simulate stage not comparable to the PR-4 baseline "
            "(non-default scale or pre-PR-5 file) — no stage floor applied"
        )
    if not payload.get("sharded_comparison_conclusive", payload.get("cpu_count", 1) > 1):
        reason = (
            "timing skipped" if payload.get("sharded_skipped") else "inconclusive"
        )
        print(
            f"  skip: sharded-vs-serial comparison {reason} "
            f"(cpu_count={payload.get('cpu_count')}) — no floor applied"
        )
        return
    speedup = float(payload["speedup_sharded_vs_serial"])
    _require(
        speedup >= floor,
        f"sharded-vs-serial speedup {speedup:.2f}x >= {floor}x",
    )


def check_streaming(path: Path, floor: float) -> None:
    print(f"streaming service ({path}):")
    payload = _load(path, "streaming")
    if payload is None:
        return
    reads_per_s = float(payload["ingest_reads_per_s"])
    _require(
        reads_per_s >= floor,
        f"session ingest throughput {reads_per_s:,.0f} reads/s >= {floor:,.0f} reads/s",
    )
    _require(
        bool(payload.get("results_bit_identical")),
        "streaming final orderings bit-identical to batch pipeline",
    )
    latency = payload.get("provisional_latency_s_mean")
    if latency is not None:
        print(f"  info: provisional-ordering latency mean {float(latency) * 1e3:.2f} ms/round")


def check_service(path: Path, floor: float, min_sessions: int) -> None:
    print(f"fleet service ({path}):")
    payload = _load(path, "service")
    if payload is None:
        return
    max_sessions = int(payload["max_sessions"])
    _require(
        max_sessions >= min_sessions,
        f"fleet exercised at {max_sessions} sessions >= {min_sessions}",
    )
    _require(
        bool(payload.get("results_bit_identical")),
        "fleet-served finals bit-identical to standalone sessions",
    )
    latency = payload.get("provisional_latency_s_p95")
    if latency is not None:
        print(f"  info: provisional latency p95 {float(latency) * 1e3:.2f} ms at {max_sessions} sessions")
    if not payload.get("parallel_conclusive", payload.get("cpu_count", 1) > 1):
        print(
            "  skip: aggregate throughput inconclusive "
            f"(cpu_count={payload.get('cpu_count')}) — no service floor applied"
        )
        return
    reads_per_s = float(payload["aggregate_reads_per_s"])
    _require(
        reads_per_s >= floor,
        f"aggregate fleet throughput {reads_per_s:,.0f} reads/s >= {floor:,.0f} reads/s",
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sweep", type=Path, default=Path("BENCH_sweep.json"))
    parser.add_argument("--dtw", type=Path, default=Path("BENCH_dtw.json"))
    parser.add_argument(
        "--experiments", type=Path, default=Path("BENCH_experiments.json")
    )
    parser.add_argument(
        "--streaming", type=Path, default=Path("BENCH_streaming.json")
    )
    parser.add_argument(
        "--sweep-floor", type=float, default=5.0,
        help="minimum static-scene fused-vs-scalar sweep speedup (default 5.0; "
        "the acceptance floor for the recorded 200-tag scene — smoke runs pass "
        "a lower one)",
    )
    parser.add_argument("--dtw-floor", type=float, default=5.0)
    parser.add_argument(
        "--dtw-overhead-ceiling", type=float, default=2.0,
        help="maximum localize overhead as a multiple of the DTW kernel time "
        "(default 2.0, the PR-5 acceptance ceiling)",
    )
    parser.add_argument(
        "--experiments-floor", type=float, default=1.0,
        help="minimum sharded speedup, applied only when the record says the "
        "comparison is conclusive (multi-core host)",
    )
    parser.add_argument(
        "--experiments-simulate-floor", type=float, default=3.0,
        help="minimum simulate-stage speedup over the PR-4 recorded baseline, "
        "applied only when the record is at the comparable default scale",
    )
    parser.add_argument(
        "--streaming-floor", type=float, default=10_000.0,
        help="minimum streaming-session ingest throughput in reads/s "
        "(default 10000, the acceptance floor)",
    )
    parser.add_argument(
        "--service", type=Path, default=Path("BENCH_service.json")
    )
    parser.add_argument(
        "--service-floor", type=float, default=10_000.0,
        help="minimum aggregate fleet throughput in reads/s at the largest "
        "session count, applied only when the record marks the host "
        "multi-core (default 10000; smoke runs pass a lower one)",
    )
    parser.add_argument(
        "--service-min-sessions", type=int, default=64,
        help="minimum session count the record must have exercised "
        "(default 64, the acceptance scale; smoke runs pass a lower one)",
    )
    parser.add_argument(
        "--only", choices=("sweep", "dtw", "experiments", "streaming", "service"),
        default=None,
        help="check a single record instead of all of them",
    )
    args = parser.parse_args()

    if args.only in (None, "sweep"):
        check_sweep(args.sweep, args.sweep_floor)
    if args.only in (None, "dtw"):
        check_dtw(args.dtw, args.dtw_floor, args.dtw_overhead_ceiling)
    if args.only in (None, "experiments"):
        check_experiments(
            args.experiments, args.experiments_floor, args.experiments_simulate_floor
        )
    if args.only in (None, "streaming"):
        check_streaming(args.streaming, args.streaming_floor)
    if args.only in (None, "service"):
        check_service(args.service, args.service_floor, args.service_min_sessions)

    if FAILURES:
        print(f"\n{len(FAILURES)} speedup floor(s) violated")
        sys.exit(1)
    print("\nall recorded speedups at or above their floors")


if __name__ == "__main__":
    main()
