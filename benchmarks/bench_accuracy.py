"""Accuracy recorder: the five-scheme leaderboard snapshot.

Runs the paper's five ordering schemes (STPP, BackPos, OTrack, Landmarc,
G-RSSI) over every scenario registered in the declarative scenario matrix
(``repro.scenarios`` — the legacy library/airport/warehouse trio plus the
committed ``specs/*.json`` deployments) and the Figure-17 deployment at a
fixed seed/scale, and overwrites ``BENCH_accuracy.json`` with the
accuracy-per-scheme-per-scenario leaderboard, stamped with the time and
host of the run.

``benchmarks/check_accuracy.py`` gates the recorded values in CI: pinned
per-scheme floors and the paper's scheme ordering.  The leaderboard is a
deterministic function of the code (fixed seeds, serial-equals-pooled
engine), so any movement in these numbers is a code change, not noise.

Run with:
  PYTHONPATH=src python benchmarks/bench_accuracy.py [--repetitions 2] \\
      [--out BENCH_accuracy.json]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.bench.leaderboard import (
    DEFAULT_REPETITIONS,
    DEFAULT_SEED,
    compute_leaderboard,
    scenario_names,
)
from repro.bench.report import format_leaderboard
from repro.bench.schema import write_snapshot


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
    payload = write_snapshot("accuracy", body, args.out)
    print(format_leaderboard(payload))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
