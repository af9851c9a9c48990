#!/usr/bin/env python3
"""Same-host A/B of one repository-benchmark workload: a base revision vs the working tree.

Run from the root of a checkout (``make perfbench-ab`` wraps it)::

    python3 benchmarks/perfbench_ab.py --workload portal_cold --base HEAD --seeds 2015 7

It checks ``--base`` out into a temporary ``git worktree``.  For each seed it
runs ``perfbench/run.py --trace 0`` on that checkout and on the working tree,
one right after the other and with the first side alternating from seed to
seed, so a drift in the host's speed lands on both sides alike.  It prints
the two result lines' metrics side by side and removes the worktree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(checkout: Path, workload: str, seed: int) -> dict:
    """The JSON result line of one untraced 20 s benchmark run in ``checkout``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", "20", "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: exit {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def side_by_side(seed: int, base_label: str, base: dict, work: dict) -> str:
    rows = [(f"seed {seed}", base_label, "working tree", "change")]
    for key in ("attempted", "failed"):
        rows.append((key, str(base[key]), str(work[key]), ""))
    for name, metric in base["metrics"].items():
        before, after = metric["value"], work["metrics"][name]["value"]
        change = f"{(after - before) / before:+.1%}" if before else ""
        rows.append((f"{name} ({metric['unit']})", f"{before:.4g}", f"{after:.4g}", change))
    widths = [max(len(row[k]) for row in rows) for k in range(4)]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[2015, 7])
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="perfbench-ab-") as workdir:
        tree = Path(workdir) / "base"
        subprocess.run(
            ["git", "worktree", "add", "--detach", "--quiet", str(tree), args.base],
            cwd=ROOT, check=True,
        )
        try:
            for index, seed in enumerate(args.seeds):
                # The side that runs first alternates from seed to seed.
                if index % 2:
                    work = run(ROOT, args.workload, seed)
                    base = run(tree, args.workload, seed)
                else:
                    base = run(tree, args.workload, seed)
                    work = run(ROOT, args.workload, seed)
                print(side_by_side(seed, f"base {args.base}", base, work), flush=True)
                print(flush=True)
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT, check=True
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
