"""The traced run's instrumentation plan and its per-layer metrics.

:func:`install` wraps each layer's public entry points at the attribute the
caller looks up (see ``tracer.py``); :func:`layer_metrics` folds the spans
and counters into the ``per_layer`` metrics of ``BENCHMARK.json``.  Every
time is *self* time (a span minus its traced children), reported per
operation of the workload, so nested layers never double-count and the layer
times of one operation add up to its wall time.
"""

from __future__ import annotations

from tracer import Tracer

PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # (name, unit, better)
    ("rfid.scheduling_ms", "ms", "lower"),
    ("rfid.sweep_attempts", "count", "lower"),
    ("rfid.rolled_back_rounds", "count", "lower"),
    ("rfid.per_round_fallbacks", "count", "lower"),
    ("rfid.coupling_ms", "ms", "lower"),
    ("rfid.sweep_setup_ms", "ms", "lower"),
    ("rfid.events", "count", "lower"),
    ("rfid.reads_per_event", "ratio", "higher"),
    ("rf.physics_ms", "ms", "lower"),
    ("simulation.sweep_ms", "ms", "lower"),
    ("simulation.profiles_ms", "ms", "lower"),
    ("simulation.reads", "count", "higher"),
    ("scenarios.scene_build_ms", "ms", "lower"),
    ("core.segment_ms", "ms", "lower"),
    ("core.align_ms", "ms", "lower"),
    ("core.vzone_fit_ms", "ms", "lower"),
    ("core.order_x_ms", "ms", "lower"),
    ("core.order_y_ms", "ms", "lower"),
    ("core.localize_ms", "ms", "lower"),
    ("core.tags_localized", "count", "higher"),
    ("core.longest_run_fallbacks", "count", "lower"),
    ("core.incremental_segment_ms", "ms", "lower"),
    ("core.incremental_align_ms", "ms", "lower"),
    ("baselines.backpos_ms", "ms", "lower"),
    ("baselines.otrack_ms", "ms", "lower"),
    ("baselines.landmarc_ms", "ms", "lower"),
    ("baselines.grssi_ms", "ms", "lower"),
    ("evaluation.metrics_ms", "ms", "lower"),
    ("evaluation.stpp_accuracy", "fraction", "higher"),
    ("service.provisional_ms", "ms", "lower"),
    ("service.finalize_cold_ms", "ms", "lower"),
    ("service.finalize_warm_ms", "ms", "lower"),
    ("service.stream_quality_ms", "ms", "lower"),
    ("service.session_ingest_ms", "ms", "lower"),
    ("service.checkpoint_ms", "ms", "lower"),
    ("service.enqueue_ms", "ms", "lower"),
    ("service.reads_ingested", "count", "higher"),
    ("service.drain_wait_ms", "ms", "lower"),
    ("service.queue_depth_max", "count", "lower"),
    ("loadgen.close_p50_ms", "ms", "lower"),
    ("loadgen.close_p90_ms", "ms", "lower"),
    ("loadgen.provisional_p50_ms", "ms", "lower"),
    ("loadgen.provisional_p95_ms", "ms", "lower"),
    ("bench.op_p50_ms", "ms", "lower"),
    ("bench.reference_ms", "ms", "lower"),
    ("bench.glue_ms", "ms", "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)

# Span name -> per-layer metric fed by that span's self time.
_SELF_TIME = {
    "rfid.packed_neighbors": "rfid.coupling_ms",
    "simulation.collect_sweep": "simulation.sweep_ms",
    "simulation.profiles": "simulation.profiles_ms",
    "scenarios.scenario_experiment": "scenarios.scene_build_ms",
    "core.segment": "core.segment_ms",
    "core.align": "core.align_ms",
    "core.vzone_fit": "core.vzone_fit_ms",
    "core.order_x": "core.order_x_ms",
    "core.order_y": "core.order_y_ms",
    "core.localize": "core.localize_ms",
    "core.stpp_scheme": "core.localize_ms",
    "core.incremental_segment": "core.incremental_segment_ms",
    "core.incremental_align": "core.incremental_align_ms",
    "baselines.backpos": "baselines.backpos_ms",
    "baselines.otrack": "baselines.otrack_ms",
    "baselines.landmarc": "baselines.landmarc_ms",
    "baselines.grssi": "baselines.grssi_ms",
    "evaluation.metrics": "evaluation.metrics_ms",
    "service.provisional": "service.provisional_ms",
    "service.stream_quality": "service.stream_quality_ms",
    "service.session_ingest": "service.session_ingest_ms",
    "service.checkpoint": "service.checkpoint_ms",
    "service.enqueue": "service.enqueue_ms",
    "service.fleet_finalize": "service.drain_wait_ms",
    "bench.op": "bench.glue_ms",
}

_SCHEME_SPANS = {
    "STPP": "core.stpp_scheme",
    "BackPos": "baselines.backpos",
    "OTrack": "baselines.otrack",
    "Landmarc": "baselines.landmarc",
    "G-RSSI": "baselines.grssi",
}


def _after_sweep_events(tracer: Tracer, args, kwargs, table) -> None:
    stats = args[0].last_sweep_stats
    tracer.count("rfid.scheduling_s", stats["scheduling_s"])
    tracer.count("rfid.physics_s", stats["physics_s"])
    tracer.count("rfid.sweep_attempts", stats["attempts"])
    tracer.count("rfid.rolled_back_rounds", stats["rolled_back_rounds"])
    tracer.count("rfid.per_round_fallbacks", int(stats["per_round_fallback"]))
    tracer.count("rfid.events", len(table))


def _after_collect_sweep(tracer: Tracer, args, kwargs, sweep) -> None:
    tracer.count("simulation.reads", len(sweep.read_log))


def _count_vzones(tracer: Tracer, result) -> None:
    tracer.count("core.tags_localized", len(result.vzones))
    tracer.count(
        "core.longest_run_fallbacks",
        sum(1 for vzone in result.vzones.values() if vzone.method == "longest_run"),
    )


def _after_localize(tracer: Tracer, args, kwargs, result) -> None:
    _count_vzones(tracer, result)


def _after_finalize(tracer: Tracer, args, kwargs, update) -> None:
    _count_vzones(tracer, update.result)
    tracer.count("service.reads_ingested", update.reads_ingested)


def install(tracer: Tracer, finalize_span: str = "service.finalize") -> None:
    """Wrap every layer boundary the per-layer metrics read.

    ``finalize_span`` names the session-finalize span, so a workload can
    file its finalizes as cold or warm.
    """
    from repro.core import dtw, localizer, segmentation, vzone
    from repro.evaluation import runner
    from repro.rfid import coupling, reader
    from repro.scenarios import builders
    from repro.baselines import stpp_scheme
    from repro.service import fleet, session
    from repro.simulation import collector

    wrap = tracer.wrap
    wrap(reader.RFIDReader, "sweep_events", "rfid.sweep_events", _after_sweep_events)
    wrap(coupling.NeighborGrid, "packed_neighbors", "rfid.packed_neighbors")
    wrap(collector, "collect_sweep", "simulation.collect_sweep", _after_collect_sweep)
    wrap(runner, "collect_sweep", "simulation.collect_sweep", _after_collect_sweep)
    wrap(collector, "profiles_from_read_log", "simulation.profiles")
    wrap(stpp_scheme, "profiles_from_read_log", "simulation.profiles")
    wrap(builders, "scenario_experiment", "scenarios.scenario_experiment")
    wrap(vzone, "segment_profile_arrays", "core.segment")
    wrap(vzone, "segmented_dtw_align_batch", "core.align")
    wrap(vzone, "fit_vzone", "core.vzone_fit")
    for module in (localizer, session):
        wrap(module, "order_tags_x", "core.order_x")
        wrap(module, "order_tags_y", "core.order_y")
    wrap(localizer.STPPLocalizer, "localize", "core.localize", _after_localize)
    wrap(segmentation.IncrementalSegmenter, "extend", "core.incremental_segment")
    wrap(dtw.ResumableSegmentAligner, "align", "core.incremental_align")
    wrap(
        runner.SweepExperiment,
        "run_scheme",
        lambda args, kwargs: _SCHEME_SPANS[args[1].name],
    )
    wrap(runner, "evaluate_ordering", "evaluation.metrics")
    Session = session.LocalizationSession
    wrap(Session, "ingest_batch", "service.session_ingest")
    wrap(Session, "checkpoint", "service.checkpoint")
    wrap(Session, "provisional", "service.provisional")
    wrap(Session, "finalize", finalize_span, _after_finalize)
    wrap(Session, "stream_quality", "service.stream_quality")
    wrap(fleet.FleetService, "ingest", "service.enqueue")
    wrap(fleet.FleetService, "finalize", "service.fleet_finalize")


def layer_metrics(tracer: Tracer, ops: int, extra: dict[str, float]) -> dict:
    """Per-operation layer metrics; ``extra`` supplies the workload's own."""
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    self_ms = tracer.self_ms()
    for span_name, total in self_ms.items():
        metric = _SELF_TIME.get(span_name)
        if metric is not None:
            values[metric] += total
    values["service.finalize_cold_ms"] = self_ms.get("service.finalize_cold", 0.0)
    values["service.finalize_warm_ms"] = self_ms.get("service.finalize_warm", 0.0)

    counters = tracer.counters
    scheduling_ms = counters["rfid.scheduling_s"] * 1e3
    physics_ms = counters["rfid.physics_s"] * 1e3
    sweep_events_self = self_ms.get("rfid.sweep_events", 0.0)
    values["rfid.scheduling_ms"] = scheduling_ms
    # physics_s includes the coupling build, which is a child span.
    values["rf.physics_ms"] = physics_ms - values["rfid.coupling_ms"]
    values["rfid.sweep_setup_ms"] = (
        sweep_events_self - scheduling_ms - values["rf.physics_ms"]
    )
    for name in (
        "rfid.sweep_attempts",
        "rfid.rolled_back_rounds",
        "rfid.per_round_fallbacks",
        "rfid.events",
        "simulation.reads",
        "core.tags_localized",
        "core.longest_run_fallbacks",
        "service.reads_ingested",
    ):
        values[name] = counters[name]

    per_op = {name: value / ops for name, value in values.items()}
    events = counters["rfid.events"]
    per_op["rfid.reads_per_event"] = counters["simulation.reads"] / events if events else 0.0
    per_op.update(extra)
    return per_op
