"""Experiment-engine timing harness: serial vs sharded sweep execution.

Runs the same spacing-sweep workload (the shape behind Figures 13/14: a
multi-spacing staircase sweep, ``repetitions`` independent simulated sweeps
per spacing, STPP scored on each) through the
:class:`~repro.evaluation.sweep.SweepService` twice:

* ``serial``  — the in-process fallback (one repetition after another), the
  cost profile of the pre-engine per-figure ``for rep in range(...)`` loops;
* ``sharded`` — repetitions sharded across a ``ProcessPoolExecutor`` with one
  worker per available core.

Both paths execute the identical shard function with identical per-repetition
seeds, so the results are bit-identical (asserted here); only the wall clock
differs.  The measured times, the speed-up, a per-stage breakdown of the
serial pass (simulate vs localize vs metrics), and the machine's core count
are written to ``BENCH_experiments.json`` so the scaling trajectory is
tracked PR over PR.

On a single-core runner the sharded path degenerates to pool overhead, so
the sharded **timing is skipped entirely** (``sharded_skipped: true``,
``timings_s.sharded: null``) rather than recording a meaningless sub-1x
"speedup"; a one-repetition sharded run still executes through the process
pool so the serial-vs-sharded bit-identity stays verified.  Worker count is
auto-sized from ``os.cpu_count()``.

The simulate stage is additionally compared against the PR-4 recorded
baseline (3.34 s for the default 4x8 workload, per-round sweep engine) so
``check_speedups.py`` can enforce the fused sweep engine's >=3x stage
speedup.

Run with:
  PYTHONPATH=src python benchmarks/bench_experiments.py [--repetitions 8] [--out BENCH_experiments.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from repro.bench.store import record_run
from repro.core.localizer import BatchLocalizer, STPPConfig
from repro.evaluation.experiments import _staircase_experiment
from repro.evaluation.metrics import evaluate_ordering
from repro.evaluation.sweep import SweepService, scheme_sweep_plan, score_stpp
from repro.simulation.collector import profiles_from_read_log

SPACINGS_M = (0.04, 0.06, 0.08, 0.10)

DEFAULT_REPETITIONS = 8

PR4_SIMULATE_BASELINE_S = 3.3376
"""Simulate-stage seconds recorded in PR 4's BENCH_experiments.json for the
default workload (4 spacings x 8 repetitions, per-round batched sweep
engine).  The fused two-phase engine's acceptance criterion is >=3x against
this number at the same scale."""


def spacing_factories():
    """(spacing, scene factory) pairs — the single source of the workload."""
    return [
        (
            spacing,
            partial(
                _staircase_experiment,
                tag_count=8,
                spacing_x_m=spacing,
                spacing_y_m=spacing,
                tag_moving=False,
            ),
        )
        for spacing in SPACINGS_M
    ]


def spacing_sweep_plans(repetitions: int):
    """The benchmark workload: one plan per spacing, ``repetitions`` reps each."""
    return [
        scheme_sweep_plan(
            name=f"bench_spacing[{spacing}]",
            scene_factory=factory,
            scorer=score_stpp,
            repetitions=repetitions,
            base_seed=int(spacing * 1000),
        )
        for spacing, factory in spacing_factories()
    ]


def stage_breakdown(repetitions: int, passes: int = 2) -> dict:
    """Per-stage serial timing: where does one repetition's time actually go?

    Runs the same (rep_index, seed) workload the plans describe, but with the
    three stages of a repetition timed separately:

    * ``simulate`` — build the scene and run the RFID sweep simulation;
    * ``localize`` — extract phase profiles and run the batched STPP engine;
    * ``metrics``  — score the predicted orderings against ground truth.

    The whole breakdown runs ``passes`` times and each stage records its
    best total — the ratios feed CI floors, so a background-load spike on a
    shared runner must not read as an engine regression.
    """
    best = {"simulate": float("inf"), "localize": float("inf"), "metrics": float("inf")}
    factories = spacing_factories()
    plans = spacing_sweep_plans(repetitions)
    for _ in range(max(1, passes)):
        simulate_s = localize_s = metrics_s = 0.0
        for (_, factory), plan in zip(factories, plans):
            for rep_index, seed in enumerate(plan.resolved_seeds()):
                started = time.perf_counter()
                experiment = factory(rep_index, seed)
                simulated = time.perf_counter()
                localizer = BatchLocalizer(STPPConfig())
                profiles = profiles_from_read_log(experiment.read_log)
                result = localizer.localize(
                    profiles, expected_tag_ids=experiment.target_ids
                )
                localized = time.perf_counter()
                evaluate_ordering(
                    experiment.true_x,
                    experiment.true_y,
                    result.x_ordering.ordered_ids,
                    result.y_ordering.ordered_ids,
                )
                scored = time.perf_counter()
                simulate_s += simulated - started
                localize_s += localized - simulated
                metrics_s += scored - localized
        best["simulate"] = min(best["simulate"], simulate_s)
        best["localize"] = min(best["localize"], localize_s)
        best["metrics"] = min(best["metrics"], metrics_s)
    return {**best, "total": best["simulate"] + best["localize"] + best["metrics"]}


def run_once(service: SweepService, repetitions: int):
    """Execute the workload on ``service``; returns (elapsed_s, outcomes)."""
    plans = spacing_sweep_plans(repetitions)
    started = time.perf_counter()
    outcomes = service.run_many(plans)
    return time.perf_counter() - started, outcomes


def evaluations_of(outcomes):
    """The deterministic portion of the results, for the equivalence check."""
    return [
        (outcome.plan, result.rep_index, result.seed, score.scheme, score.evaluation)
        for outcome in outcomes
        for result in outcome.results
        for score in result.scores
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repetitions", type=int, default=DEFAULT_REPETITIONS,
        help="repetitions per spacing (default 8; total sweeps = 4x this)",
    )
    parser.add_argument("--out", type=Path, default=Path("BENCH_experiments.json"))
    parser.add_argument(
        "--history", type=Path, default=Path("BENCH_HISTORY.jsonl"),
        help="append-only ledger for this run's rows (smoke runs pass a scratch path)",
    )
    parser.add_argument("--no-history", action="store_true")
    args = parser.parse_args()

    cpu_count = os.cpu_count() or 1
    total_sweeps = args.repetitions * len(SPACINGS_M)
    print(f"workload: {len(SPACINGS_M)} spacings x {args.repetitions} reps "
          f"= {total_sweeps} simulated sweeps; {cpu_count} cores")

    # Warm the process-wide reference cache so neither path pays it.
    warm_service = SweepService(parallel=False)
    run_once(warm_service, 1)

    serial_s, serial_outcomes = run_once(SweepService(parallel=False), args.repetitions)
    print(f"serial : {serial_s:8.2f} s")

    conclusive = cpu_count > 1
    if conclusive:
        # Multi-core host: the comparison is meaningful — time it.
        sharded_service = SweepService(
            max_workers=cpu_count, parallel=True, shard_size=1
        )
        sharded_s, sharded_outcomes = run_once(sharded_service, args.repetitions)
        print(f"sharded: {sharded_s:8.2f} s  ({cpu_count} workers)")
        speedup = serial_s / max(sharded_s, 1e-9)
        print(f"speedup: {speedup:8.2f} x")
        equivalence_repetitions = args.repetitions
    else:
        # Single core: sharding can only add pool overhead, so a timing would
        # be noise.  Skip it, but still push one repetition through the pool
        # so the serial-vs-sharded bit-identity stays verified on this host.
        print("sharded: skipped (single-core host — pool overhead only)")
        sharded_s = None
        speedup = None
        equivalence_repetitions = 1
        sharded_service = SweepService(max_workers=1, parallel=True, shard_size=1)
        _, sharded_outcomes = run_once(sharded_service, equivalence_repetitions)
        serial_outcomes = run_once(
            SweepService(parallel=False), equivalence_repetitions
        )[1]

    if evaluations_of(serial_outcomes) != evaluations_of(sharded_outcomes):
        raise AssertionError("serial and sharded results diverged — engine bug")
    print(
        "serial/sharded results: bit-identical "
        f"({equivalence_repetitions} repetition(s) compared)"
    )

    stages = stage_breakdown(args.repetitions)
    for stage in ("simulate", "localize", "metrics"):
        share = stages[stage] / max(stages["total"], 1e-9)
        print(f"stage {stage:>8}: {stages[stage]:8.2f} s  ({share:5.1%})")

    # The fused sweep engine's acceptance criterion: the simulate stage vs
    # the PR-4 recorded baseline, comparable only at the default scale.
    baseline_comparable = args.repetitions == DEFAULT_REPETITIONS
    simulate_speedup = (
        PR4_SIMULATE_BASELINE_S / max(stages["simulate"], 1e-9)
        if baseline_comparable
        else None
    )
    if simulate_speedup is not None:
        print(
            f"simulate stage vs PR-4 recorded baseline "
            f"({PR4_SIMULATE_BASELINE_S:.2f} s): {simulate_speedup:.2f}x"
        )

    payload = {
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "platform": platform.platform(),
        "cpu_count": cpu_count,
        "workload": {
            "spacings_m": list(SPACINGS_M),
            "repetitions_per_spacing": args.repetitions,
            "total_sweeps": total_sweeps,
            "scheme": "STPP",
        },
        "timings_s": {
            "serial": serial_s,
            "sharded": sharded_s,
        },
        "stage_breakdown_s": stages,
        "simulate_baseline_pr4_s": PR4_SIMULATE_BASELINE_S,
        "simulate_baseline_comparable": baseline_comparable,
        "speedup_simulate_vs_pr4": simulate_speedup,
        "sharded_workers": cpu_count if conclusive else None,
        "speedup_sharded_vs_serial": speedup,
        "sharded_skipped": not conclusive,
        "sharded_comparison_conclusive": conclusive,
        "results_bit_identical": True,
        "equivalence_repetitions": equivalence_repetitions,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not args.no_history:
        rows = record_run(
            source="bench_experiments",
            metrics={
                "timings_s": payload["timings_s"],
                "stage_breakdown_s": payload["stage_breakdown_s"],
                "speedup_simulate_vs_pr4": payload["speedup_simulate_vs_pr4"],
                "speedup_sharded_vs_serial": payload["speedup_sharded_vs_serial"],
                "results_bit_identical": payload["results_bit_identical"],
            },
            scale={
                "spacings": len(SPACINGS_M),
                "repetitions_per_spacing": args.repetitions,
                "cpu_count": cpu_count,
            },
            history=args.history,
            timestamp=payload["generated_at"],
            platform=payload["platform"],
        )
        print(f"appended {len(rows)} history rows to {args.history}")


if __name__ == "__main__":
    main()
