"""DTW engine timing harness: before/after numbers for the vectorized kernels.

Compares three implementations of the V-zone detection hot path on the same
fleet of simulated tag profiles:

* ``python_loop``  — the seed repository's pure-Python double-loop DTW
  accumulation (kept as the test oracle in ``tests/oracles/dtw.py``), run per
  tag.  This is the *before* baseline.
* ``vectorized``   — the anti-diagonal NumPy kernel, run per tag.
* ``batched``      — the same kernel sweeping whole chunks of cost matrices
  at once and backtracking each chunk as it completes (``_backtracked_batch``,
  the chunked sweep behind the batch aligners ``BatchLocalizer`` uses).

Results (plus the end-to-end batched localization time) are written to
``BENCH_dtw.json`` so the performance trajectory is tracked PR over PR.

Run with:  PYTHONPATH=src python benchmarks/bench_dtw.py [--tags 120] [--out BENCH_dtw.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (_REPO_ROOT / "src", _REPO_ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from oracles.dtw import accumulate_python
from repro.bench.store import record_run
from repro.core.dtw import (
    MAX_BATCH_CELLS,
    _backtracked_batch,
    _result_from_cost,
    accumulate_cost,
)
from repro.core.localizer import BatchLocalizer, STPPConfig
from repro.core.phase_profile import ProfileSet
from repro.core.reference import reference_profile, shared_canonical_reference
from repro.core.segmentation import (
    segment_distance_matrix,
    segment_duration_weights,
    segment_profile,
)


def make_profiles(tag_count: int, seed: int = 0) -> ProfileSet:
    """Simulated measured profiles for ``tag_count`` tags along one sweep.

    Profiles are generated directly from the nominal phase model with additive
    phase noise — cheap to build at any fleet size, and the same length/shape
    regime (hundreds of samples, several wrapped periods) the simulator's
    read logs produce.
    """
    rng = np.random.default_rng(seed)
    profiles = {}
    for index in range(tag_count):
        tag_x = 0.5 + 0.05 * index
        ref = reference_profile(
            tag_x_m=tag_x,
            perpendicular_distance_m=float(rng.uniform(0.3, 0.5)),
            sweep_start_x_m=tag_x - 1.0,
            sweep_end_x_m=tag_x + 1.0,
            speed_mps=0.3,
            tag_id=f"bench-{index:04d}",
        )
        base = ref.profile
        noisy = np.mod(
            base.phases_rad + rng.normal(0.0, 0.08, size=len(base)), 2 * np.pi
        )
        profiles[base.tag_id] = base.__class__(
            tag_id=base.tag_id,
            timestamps_s=base.timestamps_s,
            phases_rad=noisy,
        )
    return ProfileSet(profiles=profiles)


def build_weighted_matrices(profiles: ProfileSet, window_size: int = 5):
    """The segmented-DTW weighted distance matrix of every profile."""
    reference = shared_canonical_reference()
    ref_segments = segment_profile(reference.profile, window_size)
    weighted = []
    for profile in profiles.profiles.values():
        segments = segment_profile(profile, window_size)
        distance = segment_distance_matrix(ref_segments, segments)
        weights = segment_duration_weights(ref_segments, segments)
        weighted.append(np.ascontiguousarray(distance * weights, dtype=float))
    return weighted


def time_call(fn, repeats: int = 3) -> float:
    """Best-of-N wall clock of ``fn`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tags", type=int, default=120, help="fleet size (>= 100 for the acceptance figure)")
    parser.add_argument("--out", type=Path, default=Path(__file__).resolve().parent.parent / "BENCH_dtw.json")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--history", type=Path, default=Path("BENCH_HISTORY.jsonl"),
        help="append-only ledger for this run's rows (smoke runs pass a scratch path)",
    )
    parser.add_argument("--no-history", action="store_true")
    args = parser.parse_args()

    print(f"generating {args.tags} simulated tag profiles ...")
    profiles = make_profiles(args.tags)
    weighted = build_weighted_matrices(profiles)
    cells = sum(m.size for m in weighted)
    print(f"{len(weighted)} cost matrices, {cells} cells total")

    def run_python_loop():
        for matrix in weighted:
            _result_from_cost(accumulate_python(matrix, None, True))

    def run_vectorized():
        for matrix in weighted:
            _result_from_cost(accumulate_cost(matrix))

    shapes = [matrix.shape for matrix in weighted]

    def run_batched():
        _backtracked_batch(shapes, weighted.__getitem__)

    print("timing the per-tag pure-Python loop (seed baseline) ...")
    python_s = time_call(run_python_loop, repeats=args.repeats)
    print(f"  python_loop : {python_s * 1000:9.1f} ms")
    print("timing the vectorized per-tag kernel ...")
    vectorized_s = time_call(run_vectorized, repeats=args.repeats)
    print(f"  vectorized  : {vectorized_s * 1000:9.1f} ms")
    print("timing the batched kernel ...")
    batched_s = time_call(run_batched, repeats=args.repeats)
    print(f"  batched     : {batched_s * 1000:9.1f} ms")

    engine = BatchLocalizer(STPPConfig())
    tag_ids = list(profiles.profiles)
    localize_s = time_call(
        lambda: engine.localize(profiles, expected_tag_ids=tag_ids),
        repeats=args.repeats,
    )
    print(f"  end-to-end batched localization of {args.tags} tags: {localize_s * 1000:.1f} ms")

    # Where does the non-kernel time go?  The localize call decomposes into
    # profile segmentation, V-zone detection (which contains the DTW kernel),
    # and the X/Y ordering on top; timing the pieces the pipeline exposes
    # keeps the "overhead vs kernel" ratio honest PR over PR.
    from repro.core.segmentation import segment_profile_arrays
    from repro.core.vzone import VZoneDetector

    profile_list = list(profiles.profiles.values())
    segmentation_s = time_call(
        lambda: [segment_profile_arrays(p, 5) for p in profile_list],
        repeats=args.repeats,
    )
    detector = VZoneDetector(reference=engine.reference, window_size=5)
    detection_s = time_call(
        lambda: detector.detect_all(profiles.profiles), repeats=args.repeats
    )
    overhead_s = localize_s - batched_s
    overhead_ratio = overhead_s / max(batched_s, 1e-12)
    print(
        f"  breakdown: segmentation {segmentation_s * 1000:6.1f} ms | "
        f"v-zone detection {detection_s * 1000:6.1f} ms | "
        f"kernel {batched_s * 1000:6.1f} ms"
    )
    print(
        f"  localize overhead over the DTW kernel: {overhead_s * 1000:.1f} ms "
        f"({overhead_ratio:.2f}x the kernel; floor-checked < 2x)"
    )

    report = {
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "platform": platform.platform(),
        "tag_count": args.tags,
        "window_size": 5,
        "total_cost_matrix_cells": int(cells),
        "max_batch_cells": MAX_BATCH_CELLS,
        "timings_s": {
            "python_loop_per_tag": python_s,
            "vectorized_per_tag": vectorized_s,
            "batched": batched_s,
            "batched_localize_end_to_end": localize_s,
            "profile_segmentation": segmentation_s,
            "vzone_detection": detection_s,
        },
        "speedup_vs_python_loop": {
            "vectorized_per_tag": python_s / max(vectorized_s, 1e-12),
            "batched": python_s / max(batched_s, 1e-12),
        },
        "localize_overhead_s": overhead_s,
        "localize_overhead_vs_kernel": overhead_ratio,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    if not args.no_history:
        rows = record_run(
            source="bench_dtw",
            metrics={
                "timings_s": report["timings_s"],
                "speedup_vs_python_loop": report["speedup_vs_python_loop"],
                "localize_overhead_vs_kernel": report["localize_overhead_vs_kernel"],
            },
            scale={"tags": args.tags, "window_size": 5},
            history=args.history,
            timestamp=report["generated_at"],
            platform=report["platform"],
        )
        print(f"appended {len(rows)} history rows to {args.history}")
    print(
        f"batched DTW over {args.tags} tags: "
        f"{report['speedup_vs_python_loop']['batched']:.1f}x faster than the "
        f"per-tag Python loop"
    )


if __name__ == "__main__":
    main()
