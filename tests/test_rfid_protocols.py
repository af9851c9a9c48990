"""Unit tests for the C1G2 substrate: EPC, tags, ALOHA, reader."""

import numpy as np
import pytest

from repro.rf.geometry import Point3D
from repro.rfid.aloha import AlohaTimings, FrameSlottedAloha, QAlgorithm, SlotSource
from repro.rfid.epc import EPC, generate_epcs
from repro.rfid.reader import ReaderConfig, RFIDReader
from repro.rfid.tag import PAPER_TAG_MODELS, Tag, TagCollection, make_tags
from oracles.scalar_sweep import coupling_positions


class TestEPC:
    def test_str_is_24_hex_digits(self):
        # The tag id: all 96 bits as zero-padded hex, header byte first.
        epc = EPC.from_fields(1, 1, 1)
        assert str(epc).startswith("30")
        assert len(str(epc)) == 24 and int(str(epc), 16) == epc.value
        assert str(EPC(1)) == "0" * 23 + "1"

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
        serials = [e.value & ((1 << 38) - 1) for e in epcs]  # SGTIN-96 serial
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
        by_id = {tag.tag_id: tag for tag in tags}
        assert [by_id[t].position.x for t in order_x] == sorted(p.x for p in positions)
        order_y = tags.order_along("y")
        assert [by_id[t].position.y for t in order_y] == sorted(p.y for p in positions)

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
        slots = SlotSource(np.random.default_rng(0))
        success_ids, success_ends, _ = aloha.run_round_schedule(np.arange(3), 0.0, slots)
        assert len(success_ids) <= 3
        assert len(set(success_ids.tolist())) == len(success_ids)
        assert set(success_ids.tolist()) <= {0, 1, 2}
        assert len(success_ends) == len(success_ids)

    def test_round_times_increase(self):
        aloha = FrameSlottedAloha(initial_q=2, adaptive=False)
        _, ends, duration = aloha.run_round_schedule(
            np.arange(2), 1.0, SlotSource(np.random.default_rng(1))
        )
        assert ends.tolist() == sorted(ends.tolist())
        assert all(1.0 < end <= 1.0 + duration for end in ends.tolist())

    def test_empty_population_round(self):
        aloha = FrameSlottedAloha()
        success_ids, _, duration = aloha.run_round_schedule(
            np.arange(0), 0.0, SlotSource(np.random.default_rng(0))
        )
        timings = aloha.timings
        assert list(success_ids) == []
        assert duration == pytest.approx(timings.round_overhead_s + timings.empty_slot_s)
        assert aloha.scheduling_checkpoint() == aloha.initial_q

    def test_q_algorithm_adapts(self):
        # A crowded frame collides and walks Q up; a lone tag's mostly empty
        # frames walk it back down.
        aloha = FrameSlottedAloha(initial_q=4.0)
        slots = SlotSource(np.random.default_rng(2))
        aloha.run_round_schedule(np.arange(200), 0.0, slots)
        assert aloha.scheduling_checkpoint() > 7.0
        for _ in range(3):
            aloha.run_round_schedule(np.arange(1), 0.0, slots)
        assert aloha.scheduling_checkpoint() < 4.0

    def test_identification_order_is_random_not_spatial(self):
        # Over one round, successful tag order should not follow insertion order
        # systematically; just verify all successes are valid tag ids.
        aloha = FrameSlottedAloha(initial_q=4, adaptive=False)
        success_ids, _, _ = aloha.run_round_schedule(
            np.arange(10), 0.0, SlotSource(np.random.default_rng(3))
        )
        assert set(success_ids.tolist()) <= set(range(10))

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


class TestReader:
    def test_sweep_produces_reads_for_all_tags(self, small_row_sweep):
        tags, _scene, sweep = small_row_sweep
        log = sweep.read_log
        assert set(log.tag_ids()) == set(tags.ids())
        assert all(log.timestamps(tag_id).size > 20 for tag_id in tags.ids())

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
        scatterers = coupling_positions(
            config,
            tags.ids()[0],
            Point3D(0, 0, 0),
            tags_by_id,
            lambda tid, t: tags_by_id[tid].position,
            0.0,
        )
        assert scatterers == []

    def test_coupling_includes_only_nearby_tags(self):
        config = ReaderConfig(tag_coupling_radius_m=0.05)
        tags = make_tags(
            [Point3D(0, 0, 0), Point3D(0.02, 0, 0), Point3D(0.5, 0, 0)], seed=0
        )
        tags_by_id = {t.tag_id: t for t in tags}
        scatterers = coupling_positions(
            config,
            tags.ids()[0],
            Point3D(0, 0, 0),
            tags_by_id,
            lambda tid, t: tags_by_id[tid].position,
            0.0,
        )
        assert len(scatterers) == 1
