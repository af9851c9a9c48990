"""Sweep-simulation timing harness: the fused engine vs the scalar oracle.

Simulates the same scenes twice, both on this host:

* ``scalar`` — the read-at-a-time reference loop kept as the test oracle
  (``tests/oracles/scalar_sweep.py``: one ``observe`` per decoded reply,
  whole-population coupling scan per read);
* ``fused``  — :class:`~repro.rfid.reader.RFIDReader`'s two-phase engine: a
  scheduling pass owns every rng draw and emits a whole-sweep event table,
  then one fused NumPy pass evaluates all rounds' physics together.

Both consume the shared random generator in the identical order, so the read
logs are **bit-identical** (asserted here and pinned by
``tests/test_fused_sweep.py``); only the wall clock differs.  Two scenes are
compared: the headline **static** 200-tag library-style shelf and a
**moving** warehouse-style conveyor batch that exercises the dense coupling
filter.  The ``dense_hall_10k`` showcase is timed through the fused engine
alone: the oracle's per-read population scan would take hours there.

Baseline caveat: the scalar oracle shares the batched kernels (one
``observe_batch`` call per read), which makes it ~2x slower than the pure
scalar arithmetic the pre-batching engine used — so the speedup overstates
the win over that engine by about that factor.

Results are written to ``BENCH_sweep.json`` with the host they ran on, so the
speedup is tracked PR over PR; CI asserts a floor on
``speedup_fused_vs_scalar``.

Run with:
  PYTHONPATH=src python benchmarks/bench_sweep.py [--tags 200] [--out BENCH_sweep.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (_REPO_ROOT / "src", _REPO_ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from oracles.scalar_sweep import scalar_scene_log
from repro.bench.store import record_run
from repro.rf.geometry import Point3D
from repro.rfid.tag import make_tags
from repro.scenarios import showcase_registry
from repro.scenarios.builders import noise_model, scenario_positions, sweep_geometry
from repro.simulation.collector import collect_sweep
from repro.simulation.presets import standard_antenna_moving_scene
from repro.workloads.warehouse import ConveyorConfig, conveyor_batch, conveyor_scene

SEED = 2015

DENSE_SPEC_NAME = "dense_hall_10k"


def static_scene(tag_count: int):
    """A library-style shelf: ``tag_count`` static tags in two rows."""
    positions = [
        Point3D(0.05 * (i // 2), 0.30 * (i % 2), 0.0) for i in range(tag_count)
    ]
    tags = make_tags(positions, seed=SEED)
    return standard_antenna_moving_scene(tags, seed=SEED)


def moving_scene(tag_count: int):
    """A warehouse conveyor batch with roughly ``tag_count`` cartons."""
    lanes = 3
    config = ConveyorConfig(lanes=lanes, cartons_per_lane=max(1, tag_count // lanes))
    return conveyor_scene(conveyor_batch(config, seed=SEED), seed=SEED)


def dense_hall_scene(tag_count: int):
    """The ``dense_hall_10k`` showcase spec, optionally truncated.

    Loaded through the scenario catalog's showcase registry so the bench
    exercises the exact committed spec; ``tag_count`` below 10000 slices the
    grid for smoke runs (CI times a few hundred tags, not the full hall).
    """
    spec = showcase_registry().get(DENSE_SPEC_NAME)
    positions = scenario_positions(spec, SEED)[:tag_count]
    tags = make_tags(positions, seed=SEED)
    return standard_antenna_moving_scene(
        tags,
        speed_mps=spec.motion.speed_mps,
        jitter_fraction=spec.motion.jitter_fraction,
        geometry=sweep_geometry(spec),
        noise=noise_model(spec),
        reflector_count=spec.channel.reflector_count,
        seed=SEED,
    )


def fused_scene_log(scene):
    return collect_sweep(scene).read_log


def time_sweep(sweep, scene_factory):
    """Build a fresh scene (the protocol is stateful) and time one ``sweep``."""
    scene = scene_factory()
    started = time.perf_counter()
    log = sweep(scene)
    return time.perf_counter() - started, log


def bench_case(name: str, scene_factory) -> dict:
    """Time fused and scalar on one scene; assert bit-identical logs."""
    scalar_s, scalar_log = time_sweep(scalar_scene_log, scene_factory)
    fused_s, fused_log = time_sweep(fused_scene_log, scene_factory)
    if fused_log.reads != scalar_log.reads:
        raise AssertionError(f"{name}: fused and scalar read logs diverged — engine bug")
    speedup = scalar_s / max(fused_s, 1e-9)
    print(
        f"{name:>8}: scalar {scalar_s:7.2f} s | fused {fused_s:7.2f} s | "
        f"fused/scalar {speedup:5.1f}x | {len(fused_log)} reads, bit-identical"
    )
    return {
        "scalar_s": scalar_s,
        "fused_s": fused_s,
        "speedup_fused_vs_scalar": speedup,
        "reads": len(fused_log),
        "results_bit_identical": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tags", type=int, default=200,
        help="population of the static headline scene (default 200)",
    )
    parser.add_argument(
        "--moving-tags", type=int, default=24,
        help="cartons in the moving conveyor scene (default 24)",
    )
    parser.add_argument(
        "--dense-tags", type=int, default=10_000,
        help="tags sliced from the dense_hall_10k showcase grid, timed through "
        "the fused engine only (default 10000; CI smoke passes a few hundred)",
    )
    parser.add_argument("--out", type=Path, default=Path("BENCH_sweep.json"))
    parser.add_argument(
        "--history", type=Path, default=Path("BENCH_HISTORY.jsonl"),
        help="append-only ledger for this run's rows (smoke runs pass a scratch path)",
    )
    parser.add_argument("--no-history", action="store_true")
    args = parser.parse_args()

    # Warm both code paths (imports, numpy kernels) outside the timed region.
    for sweep in (scalar_scene_log, fused_scene_log):
        time_sweep(sweep, lambda: static_scene(8))

    print(f"static scene: {args.tags} tags | moving scene: ~{args.moving_tags} cartons")
    static = bench_case("static", lambda: static_scene(args.tags))
    moving = bench_case("moving", lambda: moving_scene(args.moving_tags))
    dense_s, dense_log = time_sweep(
        fused_scene_log, lambda: dense_hall_scene(args.dense_tags)
    )
    print(f"dense hall: {args.dense_tags} tags | fused {dense_s:7.2f} s | {len(dense_log)} reads")

    payload = {
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "seed": SEED,
        "scenes": {
            "static": {"tag_count": args.tags, **static},
            "moving": {"carton_count": args.moving_tags, **moving},
        },
        "dense_hall": {
            "tag_count": args.dense_tags,
            "spec": DENSE_SPEC_NAME,
            "fused_s": dense_s,
            "reads": len(dense_log),
        },
        # Headline field: the static scene's fused-vs-oracle ratio.
        "speedup_fused_vs_scalar": static["speedup_fused_vs_scalar"],
        "baseline_note": (
            "scalar = the test oracle (one observe_batch call per read); it is "
            "~2x slower than the pre-batching pure-scalar engine, so the "
            "speedup overstates the win over that engine by roughly that factor."
        ),
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not args.no_history:
        rows = record_run(
            source="bench_sweep",
            metrics={
                "scenes": payload["scenes"],
                "dense_hall": {"fused_s": dense_s},
                "speedup_fused_vs_scalar": payload["speedup_fused_vs_scalar"],
            },
            scale={
                "static_tags": args.tags,
                "moving_cartons": args.moving_tags,
                "dense_tags": args.dense_tags,
            },
            history=args.history,
            timestamp=payload["generated_at"],
            platform=payload["platform"],
        )
        print(f"appended {len(rows)} history rows to {args.history}")


if __name__ == "__main__":
    main()
