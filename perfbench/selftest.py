#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload it checks that an untraced run emits exactly the
``end_to_end`` metrics of ``BENCHMARK.json`` with their units and no failed
operation; that a traced run emits exactly the ``per_layer`` metrics, that
the traced layers account for at least :data:`COVERAGE_FLOOR` of the
operations' time, and that the issuing thread's span self-times add up to
its wall time within 3%; and that a deliberately corrupted output raises the
failed count above 0.  It
also checks that the benchmark fails without printing a result in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench_tmp"
COVERAGE_FLOOR = 0.9


def run(workload: str, seconds: float, trace: int, *extra: str, cwd: Path = ROOT):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", str(seconds),
        "--trace", str(trace), *extra,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(done) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1
    return result


def detail_of(done) -> dict:
    line = next(l for l in done.stdout.splitlines() if l.startswith("# detail "))
    return json.loads(line[len("# detail "):])


def expect_metrics(result: dict, declared: list[dict]) -> None:
    units = {name: value["unit"] for name, value in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}, units


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        untraced = result_of(run(workload, 1, 0))
        expect_metrics(untraced, SPEC["end_to_end"])
        assert untraced["failed"] == 0 and untraced["correct"], untraced
        for name, value in untraced["metrics"].items():
            assert value["value"] > 0, (workload, name, value)

        done = run(workload, 2, 1)
        traced = result_of(done)
        expect_metrics(traced, SPEC["per_layer"])
        assert traced["failed"] == 0, traced
        coverage = traced["metrics"]["trace.coverage"]["value"]
        assert COVERAGE_FLOOR <= coverage <= 1.0, (workload, coverage)
        ratio = detail_of(done)["span_wall_ratio"]
        assert 0.97 <= ratio <= 1.03, (workload, ratio)

        corrupted = result_of(run(workload, 1, 0, "--corrupt"))
        assert corrupted["failed"] > 0 and not corrupted["correct"], corrupted
        print(f"{workload}: ok (trace coverage {coverage:.3f})", flush=True)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        SCRATCH.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, SCRATCH / path, ignore=shutil.ignore_patterns("__pycache__"))
        bare = run(SPEC["workloads"][0]["name"], 1, 0, cwd=SCRATCH)
        assert bare.returncode != 0 and not bare.stdout.strip(), bare
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("bare directory: fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
