"""The declarative fault layer: specs, injectors, and scenario integration.

Three contracts under test:

* **strictness** — ``FaultSpec`` parses in the scenario-spec style: unknown
  keys and out-of-range values raise :class:`SpecError` with the dotted path
  of the offending field, and specs round-trip exactly through JSON;
* **seeded determinism** — building the same spec twice degrades a stream
  identically; distinct ``seed_offset`` values decorrelate; injectors never
  mutate their input batches;
* **zero-fault pass-through** — a spec with no injectors (and every
  injector at rate 0) replays a stream bit-identically, which is the
  foundation the robustness benchmark's rate-0 rungs stand on.

Scenario integration rides along: a spec's optional ``faults`` section
round-trips, committed specs stay clean (no ``faults`` key emitted), and
``scenario_experiment`` applies the profile deterministically.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.faults import (
    INJECTOR_KINDS,
    FaultPipeline,
    FaultSpec,
    InjectorSpec,
    apply_to_log,
    build_pipeline,
)
from repro.rfid.reading import ReadBatch, ReadLog
from repro.scenarios import (
    ScenarioSpec,
    SpecError,
    default_registry,
    load_builtin_specs,
)


def _spec(*injectors: dict, seed: int = 9) -> FaultSpec:
    return FaultSpec.from_json({"seed": seed, "injectors": list(injectors)})


def _batches(seed: int = 5, rounds: int = 8, reads: int = 20) -> list[ReadBatch]:
    rng = np.random.default_rng(seed)
    out = []
    start = 0.0
    for round_index in range(rounds):
        times = start + np.sort(rng.uniform(0.0, 0.05, reads))
        start += 0.06
        out.append(
            ReadBatch(
                timestamps_s=times,
                tag_ids=tuple(f"t{int(i)}" for i in rng.integers(0, 4, reads)),
                phases_rad=rng.uniform(0.0, 2.0 * np.pi, reads),
                rssi_dbm=rng.uniform(-70.0, -40.0, reads),
                channel_index=6,
                round_index=round_index,
            )
        )
    return out


def _log(batches: list[ReadBatch]) -> ReadLog:
    log = ReadLog()
    for batch in batches:
        log.extend_batch(batch)
    return log


def _snapshot(batch: ReadBatch):
    return (
        batch.timestamps_s.copy(),
        batch.tag_ids,
        batch.phases_rad.copy(),
        batch.rssi_dbm.copy(),
    )


# ---------------------------------------------------------------------------
# Spec parsing and validation
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_round_trips_exactly(self):
        spec = _spec(
            {"kind": "read_loss", "rate": 0.2},
            {"kind": "clock_skew", "rate": 0.5, "max_skew_s": 0.02},
        )
        assert FaultSpec.from_json(spec.to_json()) == spec

    def test_defaults_are_made_explicit(self):
        spec = _spec({"kind": "rssi_corruption", "rate": 0.1})
        assert spec.injectors[0].param("sigma_db") == 6.0
        assert spec.to_json()["injectors"][0]["sigma_db"] == 6.0

    def test_hashable_and_picklable(self):
        spec = _spec({"kind": "duplicate", "rate": 0.3})
        assert hash(spec) == hash(FaultSpec.from_json(spec.to_json()))
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_unknown_top_level_key_names_the_path(self):
        with pytest.raises(SpecError, match="faults.extra"):
            FaultSpec.from_json({"seed": 1, "injectors": [], "extra": 1})

    def test_unknown_kind_lists_the_known_ones(self):
        with pytest.raises(SpecError, match="read_loss"):
            _spec({"kind": "gremlins", "rate": 0.1})

    def test_unknown_injector_param_names_the_indexed_path(self):
        with pytest.raises(SpecError, match=r"faults.injectors\[1\]"):
            _spec(
                {"kind": "read_loss", "rate": 0.1},
                {"kind": "duplicate", "rate": 0.1, "banana": 1},
            )

    def test_rate_out_of_range_rejected_with_path(self):
        with pytest.raises(SpecError, match=r"faults.injectors\[0\].rate"):
            _spec({"kind": "read_loss", "rate": 1.5})

    def test_missing_required_param_rejected(self):
        with pytest.raises(SpecError, match="rate"):
            _spec({"kind": "read_loss"})

    def test_burst_bounds_must_be_ordered(self):
        with pytest.raises(SpecError, match="min_reads"):
            _spec({"kind": "burst_loss", "rate": 0.1, "min_reads": 5, "max_reads": 2})

    def test_seed_must_be_a_nonnegative_integer(self):
        with pytest.raises(SpecError, match="faults.seed"):
            FaultSpec(seed=-1)
        with pytest.raises(SpecError, match="faults.seed"):
            FaultSpec(seed=True)
        with pytest.raises(SpecError, match="faults.seed"):
            FaultSpec.from_json({"seed": "nine"})

    def test_describe_is_compact(self):
        assert FaultSpec().describe() == "clean"
        spec = _spec({"kind": "read_loss", "rate": 0.2}, {"kind": "duplicate", "rate": 0.1})
        assert spec.describe() == "read_loss(rate=0.2)+duplicate(rate=0.1)"

    def test_injector_order_is_part_of_identity(self):
        forward = _spec({"kind": "duplicate", "rate": 0.5}, {"kind": "read_loss", "rate": 0.5})
        backward = _spec({"kind": "read_loss", "rate": 0.5}, {"kind": "duplicate", "rate": 0.5})
        assert forward != backward

    def test_every_kind_parses_with_required_params_only(self):
        required = {
            "read_loss": {"rate": 0.1},
            "burst_loss": {"rate": 0.1},
            "duplicate": {"rate": 0.1},
            "clock_skew": {"rate": 0.1},
            "phase_corruption": {"rate": 0.1},
            "rssi_corruption": {"rate": 0.1},
            "stall": {"start_s": 1.0, "duration_s": 0.5},
            "disconnect": {"start_batch": 2},
            "truncate": {"after_batches": 4},
        }
        assert set(required) == set(INJECTOR_KINDS)
        for kind, params in required.items():
            spec = _spec({"kind": kind, **params})
            assert spec.injectors[0].kind == kind


# ---------------------------------------------------------------------------
# Injector behaviour
# ---------------------------------------------------------------------------


class TestInjectors:
    def test_read_loss_drops_and_counts(self):
        batches = _batches()
        pipeline = _spec({"kind": "read_loss", "rate": 0.3}).build()
        out = [b for batch in batches for b in pipeline.push(batch)]
        counters = pipeline.counters()
        total_in = sum(len(b) for b in batches)
        total_out = sum(len(b) for b in out)
        assert 0 < total_out < total_in
        assert counters["reads_dropped"] == total_in - total_out
        assert counters["reads_in"] == total_in
        assert counters["reads_out"] == total_out

    def test_burst_loss_drops_consecutive_runs(self):
        batch = _batches(rounds=1, reads=200)[0]
        pipeline = _spec(
            {"kind": "burst_loss", "rate": 0.02, "min_reads": 5, "max_reads": 5}
        ).build()
        (out,) = pipeline.push(batch)
        dropped = pipeline.counters()["reads_dropped"]
        assert dropped > 0 and dropped % 5 == 0 or dropped >= 5  # full runs (last may clip)
        # Surviving timestamps are a subsequence of the originals.
        assert set(out.timestamps_s).issubset(set(batch.timestamps_s))

    def test_duplicate_emits_adjacent_copies(self):
        batch = _batches(rounds=1, reads=100)[0]
        pipeline = _spec({"kind": "duplicate", "rate": 0.2}).build()
        (out,) = pipeline.push(batch)
        duplicated = pipeline.counters()["reads_duplicated"]
        assert duplicated > 0
        assert len(out) == len(batch) + duplicated
        # Every duplicated read sits next to its original, field-for-field.
        pairs = 0
        for i in range(len(out) - 1):
            if (
                out.timestamps_s[i] == out.timestamps_s[i + 1]
                and out.tag_ids[i] == out.tag_ids[i + 1]
                and out.phases_rad[i] == out.phases_rad[i + 1]
                and out.rssi_dbm[i] == out.rssi_dbm[i + 1]
            ):
                pairs += 1
        assert pairs >= duplicated

    def test_clock_skew_is_bounded_and_timestamp_only(self):
        batch = _batches(rounds=1, reads=100)[0]
        pipeline = _spec(
            {"kind": "clock_skew", "rate": 0.5, "max_skew_s": 0.01}
        ).build()
        (out,) = pipeline.push(batch)
        assert pipeline.counters()["reads_skewed"] > 0
        assert np.max(np.abs(out.timestamps_s - batch.timestamps_s)) <= 0.01
        assert out.tag_ids == batch.tag_ids
        assert np.array_equal(out.phases_rad, batch.phases_rad)
        assert np.array_equal(out.rssi_dbm, batch.rssi_dbm)

    def test_phase_corruption_touches_only_phases(self):
        batch = _batches(rounds=1, reads=100)[0]
        pipeline = _spec({"kind": "phase_corruption", "rate": 0.3}).build()
        (out,) = pipeline.push(batch)
        corrupted = pipeline.counters()["reads_corrupted"]
        changed = int(np.count_nonzero(out.phases_rad != batch.phases_rad))
        assert 0 < changed <= corrupted
        assert np.all((out.phases_rad >= 0.0) & (out.phases_rad < 2.0 * np.pi))
        assert np.array_equal(out.timestamps_s, batch.timestamps_s)
        assert np.array_equal(out.rssi_dbm, batch.rssi_dbm)

    def test_rssi_corruption_touches_only_rssi(self):
        batch = _batches(rounds=1, reads=100)[0]
        pipeline = _spec(
            {"kind": "rssi_corruption", "rate": 0.3, "sigma_db": 3.0}
        ).build()
        (out,) = pipeline.push(batch)
        assert pipeline.counters()["reads_corrupted"] > 0
        assert np.any(out.rssi_dbm != batch.rssi_dbm)
        assert np.array_equal(out.phases_rad, batch.phases_rad)

    def test_stall_silences_the_window(self):
        batches = _batches(rounds=6)
        pipeline = _spec(
            {"kind": "stall", "start_s": 0.06, "duration_s": 0.12}
        ).build()
        out = [b for batch in batches for b in pipeline.push(batch)]
        survivors = np.concatenate([b.timestamps_s for b in out])
        assert not np.any((survivors >= 0.06) & (survivors < 0.18))
        assert pipeline.counters()["reads_dropped"] == sum(
            len(b) for b in batches
        ) - survivors.size

    def test_disconnect_drops_whole_batches(self):
        batches = _batches(rounds=6)
        pipeline = _spec(
            {"kind": "disconnect", "start_batch": 2, "batch_count": 2}
        ).build()
        out = [pipeline.push(batch) for batch in batches]
        assert [len(survivors) for survivors in out] == [1, 1, 0, 0, 1, 1]
        assert pipeline.counters()["batches_dropped"] == 2

    def test_truncate_cuts_the_stream_short(self):
        batches = _batches(rounds=6)
        pipeline = _spec({"kind": "truncate", "after_batches": 3}).build()
        out = [pipeline.push(batch) for batch in batches]
        assert [len(survivors) for survivors in out] == [1, 1, 1, 0, 0, 0]

    def test_injectors_never_mutate_their_input(self):
        batches = _batches(rounds=4)
        snapshots = [_snapshot(batch) for batch in batches]
        pipeline = _spec(
            {"kind": "duplicate", "rate": 0.3},
            {"kind": "clock_skew", "rate": 0.5, "max_skew_s": 0.01},
            {"kind": "phase_corruption", "rate": 0.3},
            {"kind": "rssi_corruption", "rate": 0.3},
            {"kind": "read_loss", "rate": 0.3},
        ).build()
        for batch in batches:
            pipeline.push(batch)
        for batch, (times, ids, phases, rssis) in zip(batches, snapshots):
            assert np.array_equal(batch.timestamps_s, times)
            assert batch.tag_ids == ids
            assert np.array_equal(batch.phases_rad, phases)
            assert np.array_equal(batch.rssi_dbm, rssis)


# ---------------------------------------------------------------------------
# Pipeline determinism and pass-through
# ---------------------------------------------------------------------------


class TestPipeline:
    CHAIN = (
        {"kind": "read_loss", "rate": 0.15},
        {"kind": "duplicate", "rate": 0.1},
        {"kind": "clock_skew", "rate": 0.3, "max_skew_s": 0.01},
    )

    def test_build_twice_degrades_identically(self):
        log = _log(_batches())
        spec = _spec(*self.CHAIN)
        assert apply_to_log(spec, log) == apply_to_log(spec, log)

    def test_seed_offsets_decorrelate(self):
        log = _log(_batches())
        spec = _spec(*self.CHAIN)
        assert apply_to_log(spec, log, seed_offset=1) != apply_to_log(
            spec, log, seed_offset=2
        )

    def test_no_injectors_is_bit_identical_pass_through(self):
        log = _log(_batches())
        assert apply_to_log(FaultSpec(seed=3), log) == log

    def test_zero_rates_are_bit_identical_pass_through(self):
        log = _log(_batches())
        spec = _spec(
            {"kind": "read_loss", "rate": 0.0},
            {"kind": "duplicate", "rate": 0.0},
            {"kind": "clock_skew", "rate": 0.0},
            {"kind": "phase_corruption", "rate": 0.0},
            {"kind": "rssi_corruption", "rate": 0.0},
        )
        pipeline = spec.build()
        assert apply_to_log(pipeline, log) == log
        assert pipeline.faults_injected == 0
        counters = pipeline.counters()
        assert counters["reads_in"] == counters["reads_out"] == len(log)

    def test_faults_injected_sums_injector_counters(self):
        pipeline = _spec(*self.CHAIN).build()
        for batch in _batches():
            pipeline.push(batch)
        counters = pipeline.counters()
        assert pipeline.faults_injected == (
            counters["reads_dropped"]
            + counters["reads_duplicated"]
            + counters["reads_skewed"]
        )
        assert pipeline.faults_injected > 0

    def test_push_returns_zero_or_one_batches(self):
        pipeline = _spec({"kind": "disconnect", "start_batch": 0}).build()
        assert pipeline.push(_batches(rounds=1)[0]) == []

    def test_apply_matches_manual_push_flush(self):
        batches = _batches()
        via_apply = list(_spec(*self.CHAIN).build().apply(batches))
        manual_pipeline = _spec(*self.CHAIN).build()
        manual = [b for batch in batches for b in manual_pipeline.push(batch)]
        manual.extend(manual_pipeline.flush())
        assert len(via_apply) == len(manual)
        for a, b in zip(via_apply, manual):
            assert np.array_equal(a.timestamps_s, b.timestamps_s)
            assert a.tag_ids == b.tag_ids

    def test_build_pipeline_returns_pipeline(self):
        assert isinstance(build_pipeline(_spec(*self.CHAIN)), FaultPipeline)


# ---------------------------------------------------------------------------
# Scenario integration
# ---------------------------------------------------------------------------


def _minimal_scenario(**overrides):
    payload = {
        "name": "faulttest",
        "description": "a minimal valid spec",
        "layout": {"kind": "row", "spacing_m": 0.1},
        "population": {"count": 6},
        "motion": {"kind": "handheld"},
    }
    payload.update(overrides)
    return payload


class TestScenarioFaults:
    FAULTS = {
        "seed": 4,
        "injectors": [{"kind": "read_loss", "rate": 0.2}],
    }

    def test_faults_section_round_trips(self):
        spec = ScenarioSpec.from_json(_minimal_scenario(faults=self.FAULTS))
        assert spec.faults == FaultSpec.from_json(self.FAULTS)
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_clean_specs_emit_no_faults_key(self):
        spec = ScenarioSpec.from_json(_minimal_scenario())
        assert spec.faults is None
        assert "faults" not in spec.to_json()

    @pytest.mark.parametrize(
        "spec", load_builtin_specs(), ids=lambda spec: spec.name
    )
    def test_committed_specs_stay_clean(self, spec):
        assert spec.faults is None
        assert "faults" not in spec.to_json()

    def test_bad_faults_section_names_the_dotted_path(self):
        with pytest.raises(SpecError, match=r"faults.injectors\[0\].rate"):
            ScenarioSpec.from_json(
                _minimal_scenario(
                    faults={"injectors": [{"kind": "read_loss", "rate": 2.0}]}
                )
            )

    def test_degraded_experiment_is_deterministic_and_lossy(self):
        from repro.scenarios.builders import scenario_experiment

        registry = default_registry()
        clean_spec = registry.get("library")
        degraded_spec = dataclasses.replace(
            clean_spec, name="library_degraded", faults=FaultSpec.from_json(self.FAULTS)
        )
        clean = scenario_experiment(0, 77, clean_spec)
        first = scenario_experiment(0, 77, degraded_spec)
        second = scenario_experiment(0, 77, degraded_spec)
        assert first.read_log == second.read_log
        assert len(first.read_log) < len(clean.read_log)
        # A different rep seed degrades differently (seed offsets the faults).
        other = scenario_experiment(0, 78, degraded_spec)
        assert other.read_log != first.read_log
