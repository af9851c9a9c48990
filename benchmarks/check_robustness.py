"""Assert degradation floors on ``BENCH_robustness.json``.

The robustness twin of ``check_accuracy.py``: CI runs it after the
robustness recorder so a PR that makes STPP *fragile* — fine on clean
streams, collapsing under read loss or corruption — fails the build even
while every clean-accuracy floor still passes.  Enforced:

* **schema** — the snapshot must carry the robustness shape (shared
  validator in ``repro.bench.schema``);
* **zero-fault pass-through** — the recorded run must have found the rate-0
  rung of every ladder bit-identical to the clean stream
  (``zero_fault_bit_identical``); a fault layer that perturbs clean streams
  invalidates every other number in the warehouse;
* **degradation floor** — STPP's worst combined accuracy over every
  (scenario, ladder, rung) cell must stay above ``--min-accuracy``;
* **STPP above baselines at every rung** — recomputed from the curves (not
  trusted from the summary scalar): at each rung STPP must score at least
  every baseline's accuracy minus ``--lead-tolerance``.  The tolerance
  absorbs the airport tie (STPP ~= G-RSSI clean) and high-corruption rungs
  where phase corruption hits the phase-based scheme hardest.

Run with:
  python benchmarks/check_robustness.py [--robustness BENCH_robustness.json]

A missing record fails the gate, naming the path: a gate that passes
without its record checks nothing.  ``make bench-robustness`` writes it.
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


def _require(condition: bool, message: str) -> None:
    if condition:
        print(f"  ok:   {message}")
    else:
        print(f"  FAIL: {message}")
        FAILURES.append(message)


def check_robustness(path: Path, args: argparse.Namespace) -> None:
    print(f"robustness curves ({path}):")
    if not path.exists():
        _require(False, f"{path} not found (make bench-robustness writes it)")
        return
    payload = json.loads(path.read_text())

    problems = validate_snapshot("robustness", payload)
    for problem in problems:
        _require(False, f"schema: {problem}")
    if problems:
        return

    _require(
        payload["zero_fault_bit_identical"] is True,
        "rate-0 rungs passed through the fault pipeline bit-identically",
    )

    min_accuracy = float(payload["stpp_min_accuracy"])
    _require(
        min_accuracy >= args.min_accuracy,
        f"STPP worst-rung combined accuracy {min_accuracy:.3f} "
        f">= floor {args.min_accuracy}",
    )

    baselines = [s for s in payload["schemes"] if s != "STPP"]
    recomputed_min_accuracy = float("inf")
    for ladder_name, ladder in payload["ladders"].items():
        for scenario in payload["scenarios"]:
            curves = ladder["curves"].get(scenario, {})
            if "STPP" not in curves:
                _require(
                    False, f"{ladder_name}/{scenario} has no recorded STPP curve"
                )
                continue
            for rung, rate in enumerate(ladder["rates"]):
                stpp = float(curves["STPP"][rung])
                recomputed_min_accuracy = min(recomputed_min_accuracy, stpp)
                worst = min(
                    stpp - float(curves[s][rung])
                    for s in baselines
                    if s in curves
                )
                _require(
                    worst >= -args.lead_tolerance,
                    f"{ladder_name}/{scenario}@{rate:g}: STPP {stpp:.3f} within "
                    f"{args.lead_tolerance} of every baseline "
                    f"(worst lead {worst:+.3f})",
                )
    _require(
        abs(recomputed_min_accuracy - min_accuracy) < 1e-9,
        f"summary stpp_min_accuracy {min_accuracy:.3f} matches the curves "
        f"({recomputed_min_accuracy:.3f})",
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--robustness", type=Path, default=Path("BENCH_robustness.json")
    )
    parser.add_argument(
        "--min-accuracy", type=float, default=0.25,
        help="floor on STPP's worst combined accuracy over every "
        "(scenario, ladder, rung) cell (default 0.25; recorded worst is "
        "0.35, the warehouse corruption ladder)",
    )
    parser.add_argument(
        "--lead-tolerance", type=float, default=0.20,
        help="slack allowed when requiring STPP to top every baseline at "
        "every rung (default 0.20; recorded worst lead is -0.13 — the "
        "airport ties G-RSSI even clean, and phase corruption hits the "
        "only phase-based scheme hardest)",
    )
    args = parser.parse_args()

    check_robustness(args.robustness, args)

    if FAILURES:
        print(f"\n{len(FAILURES)} robustness check(s) failed")
        sys.exit(1)
    print("\nrecorded degradation curves at or above their floors")


if __name__ == "__main__":
    main()
