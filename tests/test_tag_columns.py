"""The columnar tag population, from layout to sweep.

A :class:`TagCollection` stores ids, EPCs, an ``(N, 3)`` position array and
model codes.  These tests pin that an array and the same positions as
:class:`Point3D` objects build the same population and the same read logs,
that ids stay unique on every path that adds tags, that the reader rejects a
provider implementing only part of the contract, and that a sweep over a
10k-tag grid builds no per-tag ``Tag`` or ``Point3D``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.motion.scenarios import (
    BeltTagPositions,
    StaticAntennaPosition,
    SweepScenario,
)
from repro.motion.speed_profiles import jittered_speed_profile
from repro.rf.geometry import Point3D
from repro.rfid.reader import RFIDReader
from repro.rfid.tag import ALIEN_ALN_9634, Tag, TagCollection, make_tags
from repro.simulation.collector import collect_sweep
from repro.simulation.presets import (
    SweepGeometry,
    standard_antenna_moving_scene,
    standard_reader_config,
)
from repro.simulation.scene import Scene
from repro.workloads.layouts import grid_layout

# Few distinct coordinates, so generated layouts tie on some axes and the
# ground-truth orders exercise their tie-breaks.
_COORDINATES = st.sampled_from([-0.12, -0.03, 0.0, 0.02, 0.05, 0.09, 0.2])


@st.composite
def layouts(draw) -> np.ndarray:
    count = draw(st.integers(1, 10))
    rows = [[draw(_COORDINATES), draw(_COORDINATES), draw(_COORDINATES)] for _ in range(count)]
    return np.array(rows)


def _belt_scene(tags: TagCollection, seed: int) -> Scene:
    """Tags carried past a fixed antenna by a surging belt, coupling on."""
    profile = jittered_speed_profile(0.4, 6.0, rng=np.random.default_rng(seed))
    scenario = SweepScenario(
        antenna_position=StaticAntennaPosition(Point3D(-0.3, -0.3, 0.3)),
        tag_position=BeltTagPositions(tags.tag_ids, tags.position_array, profile),
        duration_s=2.0,
        description="belt",
    )
    return Scene(
        tags=tags,
        scenario=scenario,
        reader_config=standard_reader_config(tags, seed=seed),
        seed=seed,
    )


def _sorted_ids(tags: TagCollection, key_order: tuple[int, int, int]) -> list[str]:
    """Ground truth the slow way: a stable sort of the Tag objects."""

    def key(tag: Tag) -> tuple[float, ...]:
        coords = (tag.position.x, tag.position.y, tag.position.z)
        return tuple(coords[i] for i in key_order)

    return [tag.tag_id for tag in sorted(tags, key=key)]


class TestArrayInputEqualsPointInput:
    @settings(max_examples=20, deadline=None)
    @given(positions=layouts(), seed=st.integers(0, 2**16))
    def test_same_population_and_read_logs(self, positions, seed):
        points = [Point3D(*row) for row in positions.tolist()]
        from_array = make_tags(positions, seed=seed)
        from_points = make_tags(points, seed=seed)

        assert from_array.ids() == from_points.ids()
        assert [t.epc for t in from_array] == [t.epc for t in from_points]
        assert from_array.position_array.tobytes() == from_points.position_array.tobytes()
        assert from_array.position_array.tobytes() == positions.tobytes()
        for axis, key_order in (("x", (0, 1, 2)), ("y", (1, 0, 2)), ("z", (2, 0, 1))):
            order = from_array.order_along(axis)
            assert order == from_points.order_along(axis)
            assert order == _sorted_ids(from_points, key_order)
        assert list(from_array) == list(from_points)
        assert [t.position for t in from_array] == points

        static = [
            collect_sweep(standard_antenna_moving_scene(tags, seed=seed)).read_log
            for tags in (from_array, from_points)
        ]
        assert static[0] == static[1]
        belt = [
            collect_sweep(_belt_scene(tags, seed)).read_log
            for tags in (from_array, from_points)
        ]
        assert belt[0] == belt[1]


class TestProviderRows:
    def test_provider_in_another_order_gives_the_same_log(self):
        tags = make_tags(grid_layout(4, 3, 0.03, 0.04), seed=5)
        scene = _belt_scene(tags, 5)
        profile = scene.scenario.tag_position.speed_profile
        order = np.random.default_rng(1).permutation(len(tags))
        shuffled = BeltTagPositions(
            [tags.tag_ids[i] for i in order], tags.position_array[order], profile
        )
        assert shuffled.rows_for(tags.tag_ids).tolist() == np.argsort(order).tolist()
        reshuffled = Scene(
            tags=tags,
            scenario=SweepScenario(
                antenna_position=scene.scenario.antenna_position,
                tag_position=shuffled,
                duration_s=scene.scenario.duration_s,
            ),
            reader_config=scene.reader_config,
            seed=5,
        )
        assert collect_sweep(reshuffled).read_log == collect_sweep(scene).read_log

    def test_own_collection_resolves_to_identity_rows(self):
        tags = make_tags(grid_layout(3, 2, 0.05, 0.05), seed=2)
        provider = BeltTagPositions(
            tags.tag_ids, tags.position_array, jittered_speed_profile(0.3, 2.0)
        )
        assert provider.rows_for(tags.tag_ids) is None
        assert np.shares_memory(provider.starts, tags.position_array)

    def test_partial_provider_is_rejected(self):
        class NoPairedQuery:
            is_static = False

            def __call__(self, tag_id, time_s):
                return Point3D(0.0, 0.0, 0.0)

            def rows_for(self, tag_ids):
                return None

            def positions_at(self, times_s, rows=None):
                return np.zeros((len(times_s), 2, 3))

        tags = make_tags(grid_layout(2, 1, 0.05, 0.05), seed=3)
        reader = RFIDReader(config=standard_reader_config(tags, seed=3))
        with pytest.raises(TypeError, match="positions_paired"):
            reader.sweep(
                tags,
                StaticAntennaPosition(Point3D(0.0, -0.2, 0.3)),
                1.0,
                tag_position=NoPairedQuery(),
                rng=np.random.default_rng(3),
            )


class TestUniqueIds:
    def test_duplicate_on_construction(self):
        tag = make_tags([Point3D(0.0, 0.0, 0.0)], seed=1)[0]
        with pytest.raises(ValueError, match="duplicate EPC"):
            TagCollection([tag, Tag(epc=tag.epc, position=Point3D(1.0, 0.0, 0.0))])

    def test_duplicate_on_add(self):
        tags = make_tags(grid_layout(3, 1, 0.05, 0.05), seed=1)
        with pytest.raises(ValueError, match="duplicate EPC"):
            tags.add(Tag(epc=tags[1].epc, position=Point3D(1.0, 0.0, 0.0)))
        assert len(tags) == 3

    def test_duplicate_on_concat(self):
        tags = make_tags(grid_layout(3, 1, 0.05, 0.05), seed=1)
        with pytest.raises(ValueError, match="duplicate EPC"):
            tags.concat(TagCollection([tags[2]]))

    def test_add_and_concat_extend_every_column(self):
        tags = make_tags(grid_layout(2, 1, 0.05, 0.05), seed=1)
        other = make_tags([Point3D(0.5, 0.1, 0.0)], model=ALIEN_ALN_9634, seed=2)
        ids = tags.ids() + other.ids()
        joined = tags.concat(other)
        tags.add(other[0])
        for collection in (joined, tags):
            assert collection.ids() == ids
            assert collection.position_array[-1].tolist() == [0.5, 0.1, 0.0]
            assert collection.models[collection.model_codes[-1]] == ALIEN_ALN_9634
            assert list(collection)[-1] == other[0]
            assert collection.tag_ids == tuple(collection.ids())


class TestNoPerTagObjectsOnTheSweepPath:
    def test_ten_thousand_tag_sweep(self, monkeypatch):
        tags = make_tags(grid_layout(100, 100, 0.03, 0.03), seed=7)
        built = {"Tag": 0, "Point3D": 0}

        def counting(cls_name, init):
            def counted(self, *args, **kwargs):
                built[cls_name] += 1
                init(self, *args, **kwargs)

            return counted

        monkeypatch.setattr(Tag, "__init__", counting("Tag", Tag.__init__))
        monkeypatch.setattr(Point3D, "__init__", counting("Point3D", Point3D.__init__))
        scene = standard_antenna_moving_scene(
            tags,
            speed_mps=0.5,
            jitter_fraction=0.02,
            geometry=SweepGeometry(standoff_m=0.5),
            seed=7,
        )
        # The scene build makes a few points (trajectory ends, reflectors).
        assert built["Tag"] == 0
        assert built["Point3D"] < 100
        built.update(Tag=0, Point3D=0)
        sweep = collect_sweep(scene)
        assert len(sweep.read_log) > 0
        assert built == {"Tag": 0, "Point3D": 0}
