#!/usr/bin/env python3
"""Same-host A/B of one repository-benchmark workload: a base revision vs the working tree.

Run from the root of a checkout (``make perfbench-ab`` wraps it)::

    python3 benchmarks/perfbench_ab.py --workload portal_cold --base HEAD --seeds 2015 7 [--trace]

It checks ``--base`` out into a temporary ``git worktree``.  For each seed it
runs ``perfbench/run.py --trace 0`` on that checkout and on the working tree,
one right after the other and with the first side alternating from seed to
seed, so a drift in the host's speed lands on both sides alike.  It prints
the two result lines' metrics side by side and removes the worktree.

Given two or more seeds, it then prints a summary over all pairs: for each
metric the base and working-tree medians with their quartiles, the pairs
the working tree won (ties count for neither side), the base's
interquartile range, and whether that clears the bar for claiming a gain:
at least ten pairs, the working tree wins at least nine in ten, and its
median is better than the base's by more than the base's interquartile
range (``n/a`` with fewer pairs).  Which direction is better comes from
``BENCHMARK.json``.

With ``--trace`` it ends with one ``--trace 1`` run per side at the first
seed and prints their per-layer metrics (``rfid.sweep_setup_ms``,
``rf.physics_ms``, ...) side by side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(checkout: Path, workload: str, seed: int, trace: bool = False) -> dict:
    """The JSON result line of one 20 s benchmark run in ``checkout``.

    Untraced it holds the end-to-end metrics; traced, the per-layer split.
    """
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", "20", "--trace", "1" if trace else "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: exit {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def table(rows: list[tuple[str, ...]]) -> str:
    widths = [max(len(row[k]) for row in rows) for k in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    )


def side_by_side(title: str, base_label: str, base: dict, work: dict) -> str:
    rows = [(title, base_label, "working tree", "change")]
    for key in ("attempted", "failed"):
        rows.append((key, str(base[key]), str(work[key]), ""))
    for name, metric in base["metrics"].items():
        before, after = metric["value"], work["metrics"][name]["value"]
        change = f"{(after - before) / before:+.1%}" if before else ""
        rows.append((f"{name} ({metric['unit']})", f"{before:.4g}", f"{after:.4g}", change))
    return table(rows)


def summary(pairs: list[tuple[dict, dict]], base_label: str) -> str:
    """Every metric over all ``(base, work)`` pairs: the numbers a gain claim needs."""
    better = {
        metric["name"]: metric["better"]
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    rows = [(
        f"{len(pairs)} pairs", f"{base_label} [q1, q3]", "working tree [q1, q3]",
        "change", "won", "base IQR", "gain",
    )]
    failed = [sum(side["failed"] for side in sides) for sides in zip(*pairs)]
    attempted = [sum(side["attempted"] for side in sides) for sides in zip(*pairs)]
    rows.append(("failed / attempted", f"{failed[0]} / {attempted[0]}",
                 f"{failed[1]} / {attempted[1]}", "", "", "", ""))
    for name, metric in pairs[0][0]["metrics"].items():
        before = [base["metrics"][name]["value"] for base, _ in pairs]
        after = [work["metrics"][name]["value"] for _, work in pairs]
        b1, base_median, b3 = statistics.quantiles(before, n=4, method="inclusive")
        w1, work_median, w3 = statistics.quantiles(after, n=4, method="inclusive")
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        won = sum(sign * (a - b) > 0 for b, a in zip(before, after))
        gain = won >= 0.9 * len(pairs) and sign * (work_median - base_median) > b3 - b1
        verdict = ("yes" if gain else "no") if len(pairs) >= 10 else "n/a"
        rows.append((
            f"{name} ({metric['unit']})",
            f"{base_median:.4g} [{b1:.4g}, {b3:.4g}]",
            f"{work_median:.4g} [{w1:.4g}, {w3:.4g}]",
            f"{(work_median - base_median) / base_median:+.1%}" if base_median else "",
            f"{won}/{len(pairs)}",
            f"{b3 - b1:.4g}",
            verdict,
        ))
    return table(rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[2015, 7])
    parser.add_argument(
        "--trace", action="store_true",
        help="after the pairs, one traced run per side: the per-layer split",
    )
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="perfbench-ab-") as workdir:
        tree = Path(workdir) / "base"
        subprocess.run(
            ["git", "worktree", "add", "--detach", "--quiet", str(tree), args.base],
            cwd=ROOT, check=True,
        )
        try:
            pairs = []
            for index, seed in enumerate(args.seeds):
                # The side that runs first alternates from seed to seed.
                if index % 2:
                    work = run(ROOT, args.workload, seed)
                    base = run(tree, args.workload, seed)
                else:
                    base = run(tree, args.workload, seed)
                    work = run(ROOT, args.workload, seed)
                pairs.append((base, work))
                print(side_by_side(f"seed {seed}", f"base {args.base}", base, work), flush=True)
                print(flush=True)
            if len(pairs) >= 2:
                print(summary(pairs, f"base {args.base}"), flush=True)
            if args.trace:
                seed = args.seeds[0]
                base = run(tree, args.workload, seed, trace=True)
                work = run(ROOT, args.workload, seed, trace=True)
                print(flush=True)
                print(
                    side_by_side(f"traced, seed {seed}", f"base {args.base}", base, work),
                    flush=True,
                )
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT, check=True
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
