"""Accuracy recorder: the five-scheme leaderboard snapshot + history rows.

Runs the paper's five ordering schemes (STPP, BackPos, OTrack, Landmarc,
G-RSSI) over every scenario registered in the declarative scenario matrix
(``repro.scenarios`` — the legacy library/airport/warehouse trio plus the
committed ``specs/*.json`` deployments) and the Figure-17 deployment at a
fixed seed/scale, and records:

* ``BENCH_accuracy.json`` — the accuracy-per-scheme-per-scenario leaderboard
  snapshot (overwritten, like the timing snapshots);
* history rows in ``BENCH_HISTORY.jsonl`` — one row per (scenario, scheme)
  combined accuracy plus the cross-scenario means, stamped with run id, git
  sha, timestamp, and platform, so accuracy is tracked change over change.

``benchmarks/check_accuracy.py`` gates the recorded values in CI: pinned
per-scheme floors and the paper's scheme ordering.  The leaderboard is a
deterministic function of the code (fixed seeds, serial-equals-pooled
engine), so any movement in these numbers is a code change, not noise.

Run with:
  PYTHONPATH=src python benchmarks/bench_accuracy.py [--repetitions 2] \\
      [--out BENCH_accuracy.json] [--history BENCH_HISTORY.jsonl]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.bench.leaderboard import (
    DEFAULT_REPETITIONS,
    DEFAULT_SEED,
    compute_leaderboard,
    leaderboard_history_metrics,
    scenario_names,
)
from repro.bench.report import format_leaderboard
from repro.bench.store import record_run, utc_timestamp


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repetitions", type=int, default=DEFAULT_REPETITIONS,
        help=f"sweeps per scenario (default {DEFAULT_REPETITIONS}; CI smoke uses 1)",
    )
    parser.add_argument(
        "--fig17-repetitions", type=int, default=1,
        help="repetitions of the five-layout Figure-17 pass (default 1)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, default=Path("BENCH_accuracy.json"))
    parser.add_argument(
        "--history", type=Path, default=Path("BENCH_HISTORY.jsonl"),
        help="append-only ledger to add this run's rows to "
        "(pass a scratch path for smoke runs)",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="write only the snapshot (used by throwaway experiments)",
    )
    args = parser.parse_args()

    print(
        f"scoring 5 schemes x {len(scenario_names())} scenarios "
        f"({args.repetitions} sweep(s) each) + Figure-17 deployment, seed {args.seed}"
    )
    body = compute_leaderboard(
        repetitions=args.repetitions,
        seed=args.seed,
        fig17_repetitions=args.fig17_repetitions,
    )
    payload = {
        "generated_at": utc_timestamp(),
        "platform": platform.platform(),
        **body,
    }
    print(format_leaderboard(payload))

    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not args.no_history:
        rows = record_run(
            source="bench_accuracy",
            metrics=leaderboard_history_metrics(payload),
            scale=payload["scale"],
            history=args.history,
            timestamp=payload["generated_at"],
            platform=payload["platform"],
        )
        print(f"appended {len(rows)} history rows to {args.history}")


if __name__ == "__main__":
    main()
