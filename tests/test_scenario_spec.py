"""Schema tests for the declarative scenario spec.

Covers the strictness contract: specs round-trip exactly through JSON,
unknown keys and out-of-range values are rejected with the dotted path of
the offending field, and errors raised while parsing a *document* carry the
1-based line the field sits on — the property that makes a typo in a
committed spec fail CI with a message pointing at the line to fix.
"""

from __future__ import annotations

import json

import pytest

from repro.scenarios import ScenarioSpec, SpecError, load_builtin_specs
from repro.scenarios.spec import Layout, Motion, TagPopulation


def minimal_payload(**overrides):
    payload = {
        "name": "testbed",
        "description": "a minimal valid spec",
        "layout": {"kind": "row", "spacing_m": 0.1},
        "population": {"count": 8},
        "motion": {"kind": "handheld"},
    }
    payload.update(overrides)
    return payload


class TestRoundTrip:
    def test_minimal_spec_round_trips(self):
        spec = ScenarioSpec.from_json(minimal_payload())
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_text_round_trip_is_identity(self):
        spec = ScenarioSpec.from_json(minimal_payload())
        assert ScenarioSpec.from_text(json.dumps(spec.to_json(), indent=2)) == spec

    @pytest.mark.parametrize(
        "spec", load_builtin_specs(), ids=lambda spec: spec.name
    )
    def test_every_committed_spec_round_trips(self, spec):
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert ScenarioSpec.from_text(json.dumps(spec.to_json(), indent=2)) == spec

    def test_defaults_are_made_explicit_by_to_json(self):
        spec = ScenarioSpec.from_json(minimal_payload())
        payload = spec.to_json()
        assert payload["channel"]["phase_noise_std_rad"] == 0.25
        assert payload["placement"]["reference_spacing_m"] is None
        assert payload["motion"]["speed_mps"] == 0.3

    def test_specs_are_hashable_and_picklable(self):
        import pickle

        spec = ScenarioSpec.from_json(minimal_payload())
        assert hash(spec) == hash(ScenarioSpec.from_json(spec.to_json()))
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestUnknownKeys:
    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError) as err:
            ScenarioSpec.from_json(minimal_payload(antenna={"gain": 6}))
        assert err.value.path == "antenna"

    def test_unknown_layout_param_names_the_dotted_path(self):
        payload = minimal_payload()
        payload["layout"]["spacings_m"] = 0.1
        with pytest.raises(SpecError) as err:
            ScenarioSpec.from_json(payload)
        assert err.value.path == "layout.spacings_m"
        assert "allowed:" in err.value.message

    def test_unknown_motion_param(self):
        payload = minimal_payload(motion={"kind": "belt", "jitter_fraction": 0.1})
        with pytest.raises(SpecError) as err:
            ScenarioSpec.from_json(payload)
        # plain 'belt' is constant-speed; jitter_fraction belongs to belt_jittered
        assert err.value.path == "motion.jitter_fraction"

    def test_unknown_channel_key(self):
        payload = minimal_payload(channel={"snr_db": 20})
        with pytest.raises(SpecError, match=r"channel\.snr_db"):
            ScenarioSpec.from_json(payload)


class TestRanges:
    def test_negative_speed_rejected_with_path(self):
        payload = minimal_payload(motion={"kind": "handheld", "speed_mps": -0.3})
        with pytest.raises(SpecError) as err:
            ScenarioSpec.from_json(payload)
        assert err.value.path == "motion.speed_mps"
        assert "must be >" in err.value.message

    def test_dropout_probability_capped(self):
        payload = minimal_payload(
            channel={"random_dropout_probability": 0.99}
        )
        with pytest.raises(SpecError, match=r"channel\.random_dropout_probability"):
            ScenarioSpec.from_json(payload)

    def test_type_errors_name_the_field(self):
        payload = minimal_payload(population={"count": "eight"})
        with pytest.raises(SpecError, match=r"population\.count"):
            ScenarioSpec.from_json(payload)

    def test_bool_is_not_a_number(self):
        payload = minimal_payload()
        payload["layout"]["spacing_m"] = True
        with pytest.raises(SpecError, match=r"layout\.spacing_m"):
            ScenarioSpec.from_json(payload)

    def test_missing_required_layout_param(self):
        with pytest.raises(SpecError) as err:
            ScenarioSpec.from_json(minimal_payload(layout={"kind": "row"}))
        assert err.value.path == "layout.spacing_m"
        assert "required" in err.value.message


class TestCrossFieldValidation:
    def test_random_row_spacing_order(self):
        layout = {"kind": "random_row", "min_spacing_m": 0.2, "max_spacing_m": 0.1}
        with pytest.raises(SpecError, match=r"layout\.max_spacing_m"):
            ScenarioSpec.from_json(minimal_payload(layout=layout))

    def test_conveyor_lateral_jitter_below_half_pitch(self):
        layout = {"kind": "conveyor_lanes", "lane_pitch_m": 0.1, "lateral_jitter_m": 0.06}
        payload = minimal_payload(
            layout=layout,
            population={"groups": 2, "per_group": 3},
            motion={"kind": "belt"},
        )
        with pytest.raises(SpecError, match=r"layout\.lateral_jitter_m"):
            ScenarioSpec.from_json(payload)

    def test_belt_layout_rejects_antenna_motion(self):
        payload = minimal_payload(
            layout={
                "kind": "baggage_belt",
                "gap_ranges_m": [[0.05, 0.2]],
            },
            population={"count": 5},
            motion={"kind": "handheld"},
        )
        with pytest.raises(SpecError, match=r"motion\.kind"):
            ScenarioSpec.from_json(payload)

    def test_bookshelf_rejects_belt_motion(self):
        payload = minimal_payload(
            layout={"kind": "bookshelf"},
            population={"groups": 1, "per_group": 5},
            motion={"kind": "belt"},
        )
        with pytest.raises(SpecError, match=r"motion\.kind"):
            ScenarioSpec.from_json(payload)

    def test_grouped_layout_needs_per_group(self):
        payload = minimal_payload(
            layout={"kind": "grid", "x_spacing_m": 0.1, "y_spacing_m": 0.1},
            population={"count": 5},
        )
        with pytest.raises(SpecError, match=r"population\.per_group"):
            ScenarioSpec.from_json(payload)

    def test_gap_ranges_must_be_ordered_pairs(self):
        payload = minimal_payload(
            layout={"kind": "baggage_belt", "gap_ranges_m": [[0.3, 0.1]]},
            population={"count": 5},
            motion={"kind": "belt"},
        )
        with pytest.raises(SpecError, match=r"gap_ranges_m\[0\]"):
            ScenarioSpec.from_json(payload)


class TestLinePointingErrors:
    def test_bad_value_error_carries_its_line(self):
        text = (
            '{\n'
            '  "name": "t",\n'
            '  "layout": {"kind": "row", "spacing_m": 0.1},\n'
            '  "population": {"count": 4},\n'
            '  "motion": {\n'
            '    "kind": "handheld",\n'
            '    "speed_mps": -1.0\n'
            '  }\n'
            '}\n'
        )
        with pytest.raises(SpecError) as err:
            ScenarioSpec.from_text(text)
        assert err.value.path == "motion.speed_mps"
        assert err.value.line == 7
        assert "(line 7)" in str(err.value)

    def test_unknown_key_error_carries_its_line(self):
        text = (
            '{\n'
            '  "name": "t",\n'
            '  "layout": {"kind": "row", "spacing_m": 0.1},\n'
            '  "population": {"count": 4},\n'
            '  "motion": {"kind": "handheld"},\n'
            '  "channel": {"snr_db": 20}\n'
            '}\n'
        )
        with pytest.raises(SpecError) as err:
            ScenarioSpec.from_text(text)
        assert err.value.path == "channel.snr_db"
        assert err.value.line == 6

    def test_invalid_json_reports_decoder_line(self):
        with pytest.raises(SpecError) as err:
            ScenarioSpec.from_text('{\n  "name": "t",,\n}\n')
        assert err.value.line == 2

    def test_plain_from_json_has_no_line(self):
        with pytest.raises(SpecError) as err:
            ScenarioSpec.from_json(minimal_payload(motion={"kind": "warp"}))
        assert err.value.line is None


class TestNameValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(SpecError, match="name"):
            ScenarioSpec.from_json(minimal_payload(name=""))

    def test_names_with_spaces_rejected(self):
        with pytest.raises(SpecError, match="name"):
            ScenarioSpec.from_json(minimal_payload(name="two words"))

    def test_grid_variant_charset_is_allowed(self):
        spec = ScenarioSpec.from_json(
            minimal_payload(name="base[motion.speed_mps=0.5]")
        )
        assert spec.name == "base[motion.speed_mps=0.5]"


class TestSectionHelpers:
    def test_layout_param_lookup(self):
        layout = Layout.from_json({"kind": "row", "spacing_m": 0.1})
        assert layout.param("spacing_m") == 0.1
        with pytest.raises(KeyError):
            layout.param("nope")

    def test_population_total_interprets_layout_kind(self):
        population = TagPopulation(count=7, groups=3, per_group=4)
        assert population.total("row") == 7
        assert population.total("grid") == 12
        assert population.total("staircase") == 7

    def test_motion_is_belt(self):
        assert Motion.from_json({"kind": "belt"}).is_belt
        assert not Motion.from_json({"kind": "robot"}).is_belt

    def test_committed_specs_match_their_filenames(self):
        from repro.scenarios import spec_files

        for path, spec in zip(spec_files(), load_builtin_specs()):
            assert spec.name == path.stem
