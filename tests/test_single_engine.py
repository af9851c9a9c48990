"""The simulator's public surface has exactly one sweep engine.

``RFIDReader`` runs the fused two-phase engine and nothing else: there is no
engine, physics-backend, batching or pipeline option, and no environment
variable that selects one.  An option that were silently accepted would let a
caller believe they had picked a code path, so each removed keyword must be
rejected outright.  The same holds for the localizer's batching switch and
the deprecated belt-speed aliases of the workload modules.
"""

import dataclasses
import importlib

import pytest

from repro.core.localizer import STPPConfig, STPPLocalizer
from repro.evaluation.sweep import SweepService
from repro.rf.geometry import Point3D
from repro.rfid.reader import RFIDReader
from repro.rfid.tag import make_tags
from repro.simulation.collector import collect_sweep
from repro.simulation.presets import standard_antenna_moving_scene
from repro.simulation.scene import Scene

REMOVED_SWEEP_OPTIONS = {
    "engine": "round",
    "batched": False,
    "physics_backend": "threads",
}


def tiny_scene() -> Scene:
    tags = make_tags([Point3D(i * 0.08, 0.0, 0.0) for i in range(3)], seed=8)
    scene = standard_antenna_moving_scene(tags, seed=8)
    scenario = dataclasses.replace(scene.scenario, duration_s=0.8)
    return dataclasses.replace(scene, scenario=scenario)


def sweep_args(scene: Scene) -> tuple:
    scenario = scene.scenario
    return (
        scene.tags,
        scenario.antenna_position,
        scenario.duration_s,
        scenario.tag_position,
        scene.rng(),
    )


def reader_for(scene: Scene) -> RFIDReader:
    return RFIDReader(config=scene.reader_config, protocol=scene.protocol)


class TestRemovedOptionsAreRejected:
    @pytest.mark.parametrize("option", sorted(REMOVED_SWEEP_OPTIONS))
    def test_reader_constructor(self, option):
        scene = tiny_scene()
        with pytest.raises(TypeError, match=option):
            RFIDReader(
                config=scene.reader_config,
                protocol=scene.protocol,
                **{option: REMOVED_SWEEP_OPTIONS[option]},
            )

    @pytest.mark.parametrize("option", sorted(REMOVED_SWEEP_OPTIONS))
    @pytest.mark.parametrize("method", ["sweep", "sweep_events"])
    def test_reader_sweep_methods(self, method, option):
        scene = tiny_scene()
        sweep = getattr(reader_for(scene), method)
        with pytest.raises(TypeError, match=option):
            sweep(*sweep_args(scene), **{option: REMOVED_SWEEP_OPTIONS[option]})

    @pytest.mark.parametrize("option", sorted(REMOVED_SWEEP_OPTIONS))
    def test_collect_sweep(self, option):
        with pytest.raises(TypeError, match=option):
            collect_sweep(tiny_scene(), **{option: REMOVED_SWEEP_OPTIONS[option]})

    @pytest.mark.parametrize(
        "option, value",
        [
            ("physics_backend", "threads"),
            ("pipeline", True),
            ("parallel", False),
            ("shard_size", 2),
        ],
    )
    def test_sweep_service(self, option, value):
        with pytest.raises(TypeError, match=option):
            SweepService(**{option: value})

    def test_localizer_batching_switch(self):
        with pytest.raises(TypeError, match="batched"):
            STPPLocalizer(STPPConfig(), batched=False)
        detector = STPPLocalizer(STPPConfig()).detector
        with pytest.raises(TypeError, match="batched"):
            detector.detect_all([], batched=False)


class TestNoBackendSelection:
    def test_backends_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.rfid.backends")

    @pytest.mark.parametrize("value", ["threads", "process", "no-such-backend"])
    def test_environment_variable_is_ignored(self, monkeypatch, value):
        monkeypatch.delenv("REPRO_PHYSICS_BACKEND", raising=False)
        expected = collect_sweep(tiny_scene()).read_log
        monkeypatch.setenv("REPRO_PHYSICS_BACKEND", value)
        assert len(expected) > 0
        assert collect_sweep(tiny_scene()).read_log == expected

    def test_sweep_stats_describe_the_fused_engine_only(self):
        scene = tiny_scene()
        reader = reader_for(scene)
        reader.sweep(*sweep_args(scene))
        assert set(reader.last_sweep_stats) == {
            "scheduling_s",
            "physics_s",
            "attempts",
            "rolled_back_rounds",
            "zone_corrections",
            "per_round_fallback",
        }


class TestDeprecatedBeltSpeedAliasesRemoved:
    @pytest.mark.parametrize(
        "module_name, alias",
        [
            ("repro.workloads", "BELT_SPEED_MPS"),
            ("repro.workloads", "NOMINAL_BELT_SPEED_MPS"),
            ("repro.workloads.airport", "BELT_SPEED_MPS"),
            ("repro.workloads.warehouse", "NOMINAL_BELT_SPEED_MPS"),
        ],
    )
    def test_alias_is_gone(self, module_name, alias):
        module = importlib.import_module(module_name)
        assert alias not in getattr(module, "__all__", ())
        with pytest.raises(AttributeError):
            getattr(module, alias)
