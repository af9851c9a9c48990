#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scenario_matrix --seed 2015 \\
        --seconds 20 --trace 0

The workload's inputs are generated from ``--seed`` and timed separately as
``setup_s``: the median of the set-ups made for :data:`SETUP_SECONDS` before
measuring and as long again after it, at least :data:`SETUP_MIN_EACH` each
time, each scaled to the reference speed (see :class:`SetupClock`).  ``--trace 0`` measures for
``--seconds`` with the library untouched and reports the end-to-end metrics;
``--trace 1`` measures half the time untraced and half with every layer
boundary wrapped (``layers.py``), and reports the per-layer metrics plus the
tracing overhead (traced minus untraced, on the same operations).  Output
checks run after each measured phase, with the wrappers removed.  Comment
lines starting with ``#`` carry the host stamp and run details; the last
line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SECONDS = 0.5
SETUP_MIN_EACH = 2
REFERENCE_SCALE_MS = 2.5
"""The reference loop's time that ``setup_s`` is scaled to: about its time
on the 2-CPU x86-64 host the benchmark was tuned on, at that host's fast
speed.  It is a fixed unit, so ``setup_s`` reads as seconds on that host;
no result is compared with it."""
WORKLOAD_NAMES = ("scenario_matrix", "dense_hall", "portal_cold", "portal_warm")
OPERATION_SPANS = {"bench.op"}
"""The spans that wrap one operation on the issuing thread."""


def workloads():
    from closed import DenseHall, ScenarioMatrix
    from fleet import PortalFleet, PortalWarm

    return {
        "scenario_matrix": ScenarioMatrix(),
        "dense_hall": DenseHall(),
        "portal_cold": PortalFleet(),
        "portal_warm": PortalWarm(),
    }


def end_to_end(phase) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric except ``setup_s``.

    Times are in reference loops: each operation's latency is divided by
    the timing of ``closed.ReferenceLoop`` taken just before it, so the
    metrics move with the library's code and not with the host's speed.
    Percentiles are taken over ``Phase.samples_ref``.
    """
    from closed import percentile

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    busy_ref = sum(phase.latencies_ref)
    samples = phase.samples_ref()
    return {
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ops_per_kref": (1e3 * (phase.attempted - phase.failed) / busy_ref, "1/kref"),
        "op_p50_ref": (percentile(samples, 50), "ref"),
        "op_p75_ref": (percentile(samples, 75), "ref"),
    }


class SetupClock:
    """Times one set-up at the reference speed.

    The set-up calls :meth:`lap` between pieces of its work.  Each piece's
    seconds are scaled by :data:`REFERENCE_SCALE_MS` over the reference
    loop's time around it.  Like the ``ref`` metrics, this cancels the
    host's speed, which on a shared host moves plain set-up seconds by up to
    60% between runs.  The reference timings themselves are not counted.
    """

    def __init__(self, host) -> None:
        self.scaled_s = 0.0
        self._host = host
        self._reference_ms = self._host.time_ms()
        self._tick = time.perf_counter()

    def lap(self) -> None:
        elapsed = time.perf_counter() - self._tick
        reference_ms = self._host.time_ms()
        mean_ms = (self._reference_ms + reference_ms) / 2
        self.scaled_s += elapsed * REFERENCE_SCALE_MS / mean_ms
        self._reference_ms = reference_ms
        self._tick = time.perf_counter()


def overhead_pct(untraced, traced) -> float:
    """Traced minus untraced time over the operations both phases ran."""
    n = min(len(untraced.latencies_ref), len(traced.latencies_ref))
    if n == 0:
        return 0.0
    base = sum(untraced.latencies_ref[:n])
    with_tracing = sum(traced.latencies_ref[:n])
    return 100.0 * (with_tracing / base - 1.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="swap two entries of one output before it is checked (self-test)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import layers
    from closed import ReferenceLoop, percentile
    from fleet import host_cpus
    from tracer import Tracer

    workload = workloads()[args.workload]
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": host_cpus(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print("# host " + json.dumps(stamp), flush=True)

    host = ReferenceLoop()

    def timed_setups(count: int):
        """Set up ``count`` times and for SETUP_SECONDS; return the inputs."""
        started = time.perf_counter()
        made = 0
        while made < count or time.perf_counter() - started < SETUP_SECONDS:
            inputs = None
            # Time only the set-up's own garbage collection, not that of
            # what the run already holds.
            gc.collect()
            gc.freeze()
            clock = SetupClock(host)
            inputs = workload.setup(args.seed, clock.lap)
            clock.lap()
            gc.unfreeze()
            setup_times.append(clock.scaled_s)
            made += 1
        return inputs

    # Set-ups before measuring and after it, so the median samples the host
    # at two moments of the run.
    setup_times: list[float] = []
    inputs = timed_setups(SETUP_MIN_EACH if args.trace == 0 else 1)

    if args.trace == 0:
        phase, outputs = workload.measure(inputs, args.seconds, None)
        workload.verify(inputs, phase, outputs, args.corrupt)
        metrics = end_to_end(phase)
        phases = [phase]
    else:
        untraced, outputs = workload.measure(inputs, args.seconds / 2, None)
        workload.verify(inputs, untraced, outputs, args.corrupt)
        tracer = Tracer()
        layers.install(tracer, getattr(workload, "finalize_span", "service.finalize"))
        try:
            traced, outputs = workload.measure(inputs, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        workload.verify(inputs, traced, outputs, args.corrupt)
        extra = dict(traced.extra)
        extra["bench.op_p50_ms"] = percentile(traced.latencies_ms, 50)
        extra["bench.reference_ms"] = traced.reference()
        extra["trace.coverage"] = tracer.coverage(OPERATION_SPANS)
        extra["trace.overhead_pct"] = overhead_pct(untraced, traced)
        values = layers.layer_metrics(tracer, traced.attempted, extra)
        metrics = {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}
        phases = [untraced, traced]
        # Checks the tracer's bookkeeping: the issuing thread's span self
        # times add up to its wall time.
        span_wall_ratio = tracer.thread_self_ms(traced.thread) / (traced.wall_s * 1e3)
    if args.trace == 0:
        timed_setups(SETUP_MIN_EACH)
        metrics["setup_s"] = (statistics.median(setup_times), "s")

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    detail = {
        "failed_fraction": failed / attempted,
        "samples": [len(p.latencies_ms) for p in phases],
        "setups": len(setup_times),
        "notes": [note for p in phases for note in p.notes][:10],
    }
    if args.trace == 1:
        detail["span_wall_ratio"] = span_wall_ratio
    print("# detail " + json.dumps(detail), flush=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
