"""Unit tests for the phase model, link budget, antenna, multipath, and noise."""

import math

import numpy as np
import pytest

from repro.rf.antenna import DirectionalAntenna, ReadingZone
from repro.rf.channel import BackscatterChannel
from repro.rf.constants import TWO_PI, channel_wavelength_m
from repro.rf.geometry import Point3D
from repro.rf.multipath import MultipathChannel, Reflector, typical_indoor_reflectors
from repro.rf.noise import NOISELESS, NoiseModel
from repro.rf.phase_model import (
    DeviceOffsets,
    quantise_phase,
    round_trip_phase,
    wrap_phase,
)
from repro.rf.propagation import LinkBudget, free_space_path_loss_db

from oracles.scalar_sweep import observe, scattering_attenuation, zone_contains


def phase_distance(theta_a: float, theta_b: float) -> float:
    """Smallest angular distance between two wrapped phases, in [0, pi]."""
    diff = abs(wrap_phase(theta_a) - wrap_phase(theta_b))
    return min(diff, TWO_PI - diff)


def boresight_link(distances_m: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """(reverse-link dBm, decodable) of tags on the default antenna's boresight."""
    tags = np.array([[0.0, 0.0, d] for d in distances_m])
    distances = np.array(distances_m)
    return LinkBudget().link_observables(np.zeros(3), tags, 920e6, distances)


class TestPhaseModel:
    def test_phase_periodic_in_half_wavelength(self):
        wavelength = channel_wavelength_m(6)
        theta0 = round_trip_phase(1.0, wavelength)
        theta1 = round_trip_phase(1.0 + wavelength / 2.0, wavelength)
        assert phase_distance(theta0, theta1) < 1e-6

    def test_phase_range(self):
        wavelength = channel_wavelength_m(6)
        distances = np.linspace(0.1, 5.0, 500)
        phases = round_trip_phase(distances, wavelength)
        assert np.all(phases >= 0.0)
        assert np.all(phases < TWO_PI)

    def test_device_offsets_shift_phase(self):
        wavelength = channel_wavelength_m(6)
        offsets = DeviceOffsets(theta_tx=0.5, theta_rx=0.25, theta_tag=0.25)
        base = round_trip_phase(1.0, wavelength)
        shifted = round_trip_phase(1.0, wavelength, offsets)
        assert phase_distance(shifted, wrap_phase(base + 1.0)) < 1e-9

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            round_trip_phase(-0.1, 0.3)

    def test_quantise_phase_resolution(self):
        theta = 1.234567
        quantised = quantise_phase(theta, bits=12)
        assert abs(quantised - theta) <= TWO_PI / (1 << 12)

    def test_quantise_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            quantise_phase(1.0, bits=0)

    def test_scalar_like_inputs_return_floats(self):
        # Regression: np.isscalar(np.array(0.3)) is False, so 0-d arrays used
        # to leak back out as 0-d ndarrays instead of Python floats.
        for value in (0.3, np.float64(0.3), np.array(0.3)):
            wrapped = wrap_phase(value)
            assert type(wrapped) is float
            assert wrapped == pytest.approx(0.3)
            quantised = quantise_phase(value)
            assert type(quantised) is float
        for distance in (1.0, np.float64(1.0), np.array(1.0)):
            theta = round_trip_phase(distance, 0.326)
            assert type(theta) is float

    def test_array_inputs_stay_arrays(self):
        values = np.array([0.1, TWO_PI + 0.1, -0.1])
        assert isinstance(wrap_phase(values), np.ndarray)
        assert isinstance(quantise_phase(values), np.ndarray)
        assert isinstance(round_trip_phase(np.array([1.0, 2.0]), 0.326), np.ndarray)
        # One-element arrays are arrays, not scalars.
        assert isinstance(wrap_phase(np.array([0.1])), np.ndarray)


class TestLinkBudget:
    def test_fspl_increases_with_distance(self):
        assert free_space_path_loss_db(2.0, 920e6) > free_space_path_loss_db(1.0, 920e6)

    def test_rssi_decreases_with_distance(self):
        (near, far), _ = boresight_link([0.5, 2.0])
        assert near > far

    def test_read_range_is_metres_scale(self):
        _, decodable = boresight_link([0.5, 1.0, 40.0, 50.0])
        assert decodable.tolist() == [True, True, False, False]


class TestAntennaAndZone:
    def test_boresight_gain_is_max(self):
        antenna = DirectionalAntenna(boresight=(0, 0, 1))
        origin = Point3D(0, 0, 0)
        on_axis, off_axis = antenna.gains_dbi_towards(
            origin.as_array(), np.array([[0.0, 0, 1], [1.0, 0, 1]])
        )
        assert on_axis == pytest.approx(antenna.gain_dbi)
        assert off_axis < on_axis

    def test_half_power_at_half_beamwidth(self):
        antenna = DirectionalAntenna(gain_dbi=6.0, beamwidth_deg=70.0, boresight=(0, 0, 1))
        origin = Point3D(0, 0, 0)
        angle = math.radians(35.0)
        target = Point3D(math.sin(angle), 0.0, math.cos(angle))
        gain = antenna.gains_dbi_towards(origin.as_array(), target.as_array())
        assert gain == pytest.approx(3.0, abs=0.2)

    def test_behind_panel_rejected(self):
        antenna = DirectionalAntenna(boresight=(0, 0, 1))
        gain = antenna.gains_dbi_towards(np.zeros(3), np.array([0.0, 0.0, -1.0]))
        assert gain <= antenna.gain_dbi - 20.0 + 1e-9

    def test_invalid_beamwidth(self):
        with pytest.raises(ValueError):
            DirectionalAntenna(beamwidth_deg=0.0)

    def test_reading_zone_range_limit(self):
        zone = ReadingZone(max_range_m=1.0, beam_limited=False)
        assert zone_contains(zone, Point3D(0, 0, 0), Point3D(0, 0, 0.5))
        assert not zone_contains(zone, Point3D(0, 0, 0), Point3D(0, 0, 1.5))

    def test_reading_zone_beam_limit(self):
        antenna = DirectionalAntenna(beamwidth_deg=60.0, boresight=(0, 0, 1))
        zone = ReadingZone(max_range_m=5.0, antenna=antenna, beam_limited=True)
        assert zone_contains(zone, Point3D(0, 0, 0), Point3D(0, 0, 1.0))
        assert not zone_contains(zone, Point3D(0, 0, 0), Point3D(5.0, 0, 0.5))

    def test_tags_in_zone_filtering(self):
        zone = ReadingZone(max_range_m=1.0, beam_limited=False)
        tags = {"near": Point3D(0, 0, 0.5), "far": Point3D(0, 0, 3.0), "side": Point3D(0.6, 0, 0.6)}
        rows = np.array([p.as_array() for p in tags.values()])
        mask = zone.contains_many(np.zeros(3), rows)
        assert [tag_id for tag_id, inside in zip(tags, mask) if inside] == ["near", "side"]


def gains(channel: MultipathChannel, tag: Point3D, **coupling) -> np.ndarray:
    """Complex gains for one antenna at the origin and one tag."""
    return channel.complex_gains(
        np.zeros((1, 3)), tag.as_array()[None, :], 0.326, **coupling
    )


class TestMultipath:
    def test_no_reflectors_identity(self):
        gain = gains(MultipathChannel(), Point3D(0, 0, 1))
        assert gain.tolist() == [1.0 + 0.0j]
        fade_db, perturbation = MultipathChannel.fades_and_perturbations(gain)
        assert fade_db.tolist() == [0.0]
        assert perturbation.tolist() == [0.0]

    def test_reflector_perturbs_phase(self):
        channel = MultipathChannel(
            reflectors=(Reflector(Point3D(0.5, 0.5, 0.5), reflection_coefficient=0.5),)
        )
        _, (perturbation,) = MultipathChannel.fades_and_perturbations(
            gains(channel, Point3D(0, 0, 1))
        )
        assert perturbation != 0.0
        assert -math.pi <= perturbation <= math.pi

    def test_reflection_coefficient_validated(self):
        with pytest.raises(ValueError):
            Reflector(Point3D(0, 0, 0), reflection_coefficient=1.5)

    @staticmethod
    def coupling_attenuation(distance_m: float, decay_m: float) -> float:
        """The coupling term of ``complex_gains`` over its undamped amplitude."""
        tag = Point3D(0.0, 0.0, 0.3)
        neighbour = Point3D(distance_m, 0.0, 0.3)
        (gain,) = gains(
            MultipathChannel(),
            tag,
            extra_positions=neighbour.as_array()[None, :],
            extra_event_index=np.zeros(1, dtype=np.intp),
            tag_coupling_coefficient=0.5,
            tag_coupling_decay_m=decay_m,
        )
        direct = 2.0 * 0.3
        reflected = 2.0 * (neighbour.distance_to(Point3D(0, 0, 0)) + distance_m)
        return abs(gain - 1.0) / (0.5 * direct / reflected)

    def test_scatterer_attenuation_decays(self):
        near = self.coupling_attenuation(0.02, 0.02)
        far = self.coupling_attenuation(0.10, 0.02)
        assert near == pytest.approx(1.0)
        assert far < 0.1

    def test_scatterer_attenuation_curve_is_squared(self):
        # The roll-off beyond the decay scale is (decay / distance) ** 2, the
        # squared near-field form complex_gains documents; the coupling term
        # follows the oracle's curve at every distance.
        decay = 0.02
        for distance in (0.005, 0.01, 0.02):
            # At or inside the decay scale: no extra attenuation.
            assert scattering_attenuation(decay, distance) == 1.0
        for distance in (0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.10):
            assert self.coupling_attenuation(distance, decay) == pytest.approx(
                scattering_attenuation(decay, distance), rel=1e-9
            )
        for distance in (0.03, 0.04, 0.05, 0.10):
            expected = (decay / distance) ** 2
            assert scattering_attenuation(decay, distance) == pytest.approx(
                expected, rel=1e-12
            )
        # Spot values: strong at 2 cm, marginal at 4 cm, negligible at 10 cm.
        assert scattering_attenuation(decay, 0.04) == pytest.approx(0.25)
        assert scattering_attenuation(decay, 0.10) == pytest.approx(0.04)

    def test_typical_indoor_reflectors_outside_region(self):
        rng = np.random.default_rng(0)
        reflectors = typical_indoor_reflectors(
            Point3D(0, 0, 0), Point3D(1, 1, 0), count=5, rng=rng
        )
        assert len(reflectors) == 5
        for reflector in reflectors:
            assert 0.0 < reflector.reflection_coefficient <= 1.0


class TestNoise:
    def test_noiseless_is_identity(self):
        rng = np.random.default_rng(0)
        assert NOISELESS.noisy_phase(1.0, rng) == pytest.approx(1.0)
        assert NOISELESS.noisy_rssi(-60.0, rng) == pytest.approx(-60.0)
        assert not NOISELESS.read_dropped(-100.0, rng)

    def test_noisy_phase_stays_wrapped(self):
        model = NoiseModel(phase_noise_std_rad=0.5)
        rng = np.random.default_rng(1)
        for _ in range(200):
            value = model.noisy_phase(0.01, rng)
            assert 0.0 <= value < TWO_PI

    def test_fade_dropout(self):
        model = NoiseModel(random_dropout_probability=0.0, fade_dropout_threshold_db=-10.0)
        rng = np.random.default_rng(2)
        assert model.read_dropped(-15.0, rng)
        assert not model.read_dropped(-5.0, rng)

    def test_random_dropout_rate(self):
        model = NoiseModel(random_dropout_probability=0.3, fade_dropout_threshold_db=-100.0)
        rng = np.random.default_rng(3)
        drops = sum(model.read_dropped(0.0, rng) for _ in range(2000))
        assert 0.25 < drops / 2000 < 0.35

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NoiseModel(phase_noise_std_rad=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(random_dropout_probability=1.5)


class TestBackscatterChannel:
    def test_ideal_phase_matches_model(self):
        channel = BackscatterChannel(quantise=False, noise=NOISELESS)
        antenna = Point3D(0, 0, 0)
        tag = Point3D(0, 0, 1.0)
        expected = round_trip_phase(1.0, channel.wavelength_m, channel.device_offsets)
        physics = channel.sweep_physics(antenna.as_array()[None, :], tag.as_array()[None, :])
        assert physics.wrapped_phase_rad[0] == pytest.approx(expected)

    def test_observation_fields(self):
        channel = BackscatterChannel(noise=NOISELESS)
        obs = observe(channel, Point3D(0, 0, 0), Point3D(0, 0, 1.0), np.random.default_rng(0))
        assert obs.readable
        assert 0 <= obs.phase_rad < TWO_PI
        assert obs.true_distance_m == pytest.approx(1.0)

    def test_extra_reflectors_change_observation(self):
        channel = BackscatterChannel(noise=NOISELESS, quantise=False)
        rng = np.random.default_rng(0)
        plain = observe(channel, Point3D(0, 0, 0), Point3D(0, 0, 1.0), rng)
        coupling = [Point3D(0.2, 0.0, 0.5)]
        perturbed = observe(
            channel, Point3D(0, 0, 0), Point3D(0, 0, 1.0), rng, coupling, 0.6, 1.0
        )
        assert perturbed.phase_rad != pytest.approx(plain.phase_rad)
