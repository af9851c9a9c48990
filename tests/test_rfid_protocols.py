"""Unit tests for the C1G2 substrate: EPC, tags, ALOHA, tree walking, reader."""

import numpy as np
import pytest

from repro.rf.geometry import Point3D
from repro.rfid.aloha import (
    AlohaTimings,
    FrameSlottedAloha,
    QAlgorithm,
    SlotOutcome,
    expected_success_rate,
)
from repro.rfid.epc import EPC, generate_epcs
from repro.rfid.reader import ReaderConfig, RFIDReader
from repro.rfid.tag import PAPER_TAG_MODELS, Tag, TagCollection, make_tags
from repro.rfid.tree_walking import identification_order, query_overhead, tree_walk

from oracles.scalar_sweep import coupling_scatterers


class TestEPC:
    def test_roundtrip_hex(self):
        epc = EPC.from_fields(0x123456, 0x7, 42)
        assert EPC.from_hex(str(epc)) == epc

    def test_bits_length(self):
        assert len(EPC.from_fields(1, 1, 1).bits()) == 96

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            EPC(1 << 96)
        with pytest.raises(ValueError):
            EPC.from_fields(1 << 24, 0, 0)

    def test_generate_unique(self):
        epcs = generate_epcs(50, rng=np.random.default_rng(0))
        assert len(set(epcs)) == 50

    def test_generate_serials_not_sequential_in_position(self):
        # Identification order must not encode spatial placement; random
        # serials are what guarantees that.
        epcs = generate_epcs(20, rng=np.random.default_rng(1))
        serials = [e.serial for e in epcs]
        assert serials == sorted(serials)  # generator returns sorted for determinism
        assert len(set(serials)) == 20


class TestTags:
    def test_make_tags_positions_and_labels(self):
        positions = [Point3D(0, 0, 0), Point3D(0.1, 0, 0)]
        tags = make_tags(positions, labels=["a", "b"], seed=0)
        assert len(tags) == 2
        assert tags[0].label == "a"
        assert tags.positions()[tags[1].tag_id] == positions[1]

    def test_tag_id_is_a_stored_field(self):
        import dataclasses
        import pickle

        tag = make_tags([Point3D(0, 0, 0)], seed=0)[0]
        assert tag.tag_id == str(tag.epc)
        # Derived from the EPC: not a constructor argument, not part of
        # equality or the repr, and recomputed by replace() and unpickling.
        assert tag == Tag(epc=tag.epc, position=tag.position, model=tag.model)
        assert "tag_id" not in repr(tag)
        other = EPC(tag.epc.value + 1)
        assert dataclasses.replace(tag, epc=other).tag_id == str(other)
        assert pickle.loads(pickle.dumps(tag)).tag_id == tag.tag_id
        with pytest.raises(TypeError):
            Tag(epc=tag.epc, position=tag.position, tag_id="x")

    def test_duplicate_epc_rejected(self):
        tags = make_tags([Point3D(0, 0, 0)], seed=0)
        with pytest.raises(ValueError):
            tags.add(tags[0])

    def test_order_along_axes(self):
        positions = [Point3D(0.2, 0.0, 0), Point3D(0.0, 0.1, 0), Point3D(0.1, 0.2, 0)]
        tags = make_tags(positions, seed=0)
        order_x = tags.order_along("x")
        assert [tags.by_id(t).position.x for t in order_x] == sorted(p.x for p in positions)
        order_y = tags.order_along("y")
        assert [tags.by_id(t).position.y for t in order_y] == sorted(p.y for p in positions)

    def test_order_along_invalid_axis(self):
        tags = make_tags([Point3D(0, 0, 0)], seed=0)
        with pytest.raises(ValueError):
            tags.order_along("w")

    def test_paper_tag_models_present(self):
        assert len(PAPER_TAG_MODELS) == 4

    def test_mismatched_labels_rejected(self):
        with pytest.raises(ValueError):
            make_tags([Point3D(0, 0, 0)], labels=["a", "b"])


class TestAloha:
    def test_round_reads_at_most_one_per_slot(self):
        aloha = FrameSlottedAloha(initial_q=3, adaptive=False)
        rng = np.random.default_rng(0)
        events = aloha.run_round(["t1", "t2", "t3"], 0.0, rng)
        successes = [e for e in events if e.outcome is SlotOutcome.SUCCESS]
        assert len(events) == 8
        assert all(e.tag_id is not None for e in successes)
        assert len(successes) <= 3

    def test_round_times_increase(self):
        aloha = FrameSlottedAloha(initial_q=2, adaptive=False)
        events = aloha.run_round(["a", "b"], 1.0, np.random.default_rng(1))
        starts = [e.start_time_s for e in events]
        assert starts == sorted(starts)
        assert starts[0] >= 1.0

    def test_empty_population_round(self):
        aloha = FrameSlottedAloha()
        events = aloha.run_round([], 0.0, np.random.default_rng(0))
        assert len(events) == 1
        assert events[0].outcome is SlotOutcome.EMPTY

    def test_q_algorithm_adapts(self):
        q = QAlgorithm(q_fp=4.0)
        for _ in range(10):
            q.on_slot(SlotOutcome.COLLISION)
        assert q.q > 4
        for _ in range(30):
            q.on_slot(SlotOutcome.EMPTY)
        assert q.q < 7

    def test_expected_success_rate_peak_near_frame_equal_population(self):
        # Slotted ALOHA throughput peaks when population ~= frame size.
        rates = {n: expected_success_rate(n, 16) for n in (4, 16, 64)}
        assert rates[16] > rates[4]
        assert rates[16] > rates[64]

    def test_identification_order_is_random_not_spatial(self):
        # Over one round, successful tag order should not follow insertion order
        # systematically; just verify all successes are valid tag ids.
        aloha = FrameSlottedAloha(initial_q=4, adaptive=False)
        tags = [f"tag{i}" for i in range(10)]
        events = aloha.run_round(tags, 0.0, np.random.default_rng(3))
        success_ids = [e.tag_id for e in events if e.outcome is SlotOutcome.SUCCESS]
        assert set(success_ids) <= set(tags)

    def test_timings_validation(self):
        with pytest.raises(ValueError):
            AlohaTimings(empty_slot_s=0.0)

    def test_q_algorithm_validation(self):
        with pytest.raises(ValueError, match="c must be non-negative"):
            QAlgorithm(c=-0.1)
        with pytest.raises(ValueError, match="c must be non-negative"):
            QAlgorithm(c=float("nan"))
        with pytest.raises(ValueError, match="q_min must not exceed q_max"):
            QAlgorithm(q_min=6.0, q_max=5.0)
        # The boundaries themselves are valid: a frozen Q, a single Q.
        QAlgorithm(c=0.0)
        QAlgorithm(q_fp=5.0, q_min=5.0, q_max=5.0)


class TestTreeWalking:
    def test_order_is_lexicographic(self):
        ids = {"a": "0010", "b": "0001", "c": "1000"}
        assert identification_order(ids) == ["b", "a", "c"]

    def test_all_tags_identified(self):
        rng = np.random.default_rng(0)
        ids = {f"t{i}": format(int(rng.integers(0, 2**16)), "016b") for i in range(20)}
        result = tree_walk(ids)
        assert sorted(result.identified_order) == sorted(ids)

    def test_query_overhead_at_least_one(self):
        ids = {"a": "00", "b": "01", "c": "11"}
        assert query_overhead(ids) >= 1.0

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            tree_walk({"a": "00", "b": "000"})

    def test_empty_population(self):
        assert tree_walk({}).identified_order == []


class TestReader:
    def test_sweep_produces_reads_for_all_tags(self, small_row_sweep):
        tags, _scene, sweep = small_row_sweep
        counts = sweep.read_log.read_counts()
        assert set(counts) == set(tags.ids())
        assert all(count > 20 for count in counts.values())

    def test_reads_sorted_and_in_range(self, small_row_sweep):
        _tags, scene, sweep = small_row_sweep
        times = [r.timestamp_s for r in sweep.read_log]
        assert times == sorted(times)
        assert times[-1] <= scene.scenario.duration_s

    def test_phases_wrapped(self, small_row_sweep):
        _tags, _scene, sweep = small_row_sweep
        phases = [r.phase_rad for r in sweep.read_log]
        assert all(0.0 <= p < 2 * np.pi for p in phases)

    def test_invalid_duration_rejected(self):
        reader = RFIDReader(ReaderConfig())
        tags = make_tags([Point3D(0, 0, 0)], seed=0)
        with pytest.raises(ValueError):
            reader.sweep(tags, lambda t: Point3D(0, 0, 0.3), duration_s=0.0)

    def test_coupling_disabled_returns_no_scatterers(self):
        config = ReaderConfig(tag_coupling_coefficient=0.0)
        tags = make_tags([Point3D(0, 0, 0), Point3D(0.01, 0, 0)], seed=0)
        tags_by_id = {t.tag_id: t for t in tags}
        scatterers = coupling_scatterers(
            config,
            tags.ids()[0],
            Point3D(0, 0, 0),
            tags_by_id,
            lambda tid, t: tags_by_id[tid].position,
            0.0,
        )
        assert scatterers == ()

    def test_coupling_includes_only_nearby_tags(self):
        config = ReaderConfig(tag_coupling_radius_m=0.05)
        tags = make_tags(
            [Point3D(0, 0, 0), Point3D(0.02, 0, 0), Point3D(0.5, 0, 0)], seed=0
        )
        tags_by_id = {t.tag_id: t for t in tags}
        scatterers = coupling_scatterers(
            config,
            tags.ids()[0],
            Point3D(0, 0, 0),
            tags_by_id,
            lambda tid, t: tags_by_id[tid].position,
            0.0,
        )
        assert len(scatterers) == 1
