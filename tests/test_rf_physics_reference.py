"""The RF physics of a sweep, checked against a scalar textbook reference.

``BackscatterChannel.sweep_physics`` and ``observe_scheduled`` evaluate the
link budget, the antenna pattern, multipath and Eq. (1) over whole arrays of
reply attempts.  The read-at-a-time oracle in ``tests/oracles/scalar_sweep.py``
calls the same two methods, so fused == oracle checks scheduling and batching
but not this arithmetic.  Here every quantity is recomputed one reply at a
time in plain ``math``/``cmath`` straight from the equations the modules
document:

* Eq. (1): ``theta = (2*pi * 2*l / lambda + mu) mod 2*pi``;
* the monostatic link budget
  ``P_rx = P_tx - 2*L_cable + 2*G_reader + 2*G_tag - 2*FSPL(d) - L_bs``, with
  the forward link ``P_tx - L_cable + G_reader + G_tag - FSPL(d)`` deciding
  whether the tag energises;
* the cosine-power panel pattern, -3 dB at half the beamwidth, -20 dB
  behind the panel;
* the first-order image model
  ``h = 1 + sum_k rho_k * (d_direct / d_k) * exp(-j*2*pi*(d_k - d_direct)/lambda)``
  over round-trip lengths, with neighbouring tags as scatterers damped by
  ``(decay / distance) ** 2`` beyond the decay scale.

Each geometry is random per seed: a tilted antenna, tags near and far (some
behind the panel, some out of range), indoor reflectors and zero to three
coupled neighbours per reply.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from repro.rf.antenna import DirectionalAntenna
from repro.rf.channel import BackscatterChannel
from repro.rf.constants import (
    ISM_CHANNEL_COUNT,
    SPEED_OF_LIGHT,
    TWO_PI,
    channel_frequency_hz,
    channel_wavelength_m,
)
from repro.rf.geometry import Point3D
from repro.rf.multipath import MultipathChannel, typical_indoor_reflectors
from repro.rf.noise import NoiseModel
from repro.rf.phase_model import DeviceOffsets
from repro.rf.propagation import LinkBudget

SEEDS = range(8)
COUPLING_COEFFICIENT = 0.75
COUPLING_DECAY_M = 0.022


def circular_gap(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def reference_gain_dbi(antenna: DirectionalAntenna, a, t) -> float:
    """Panel gain towards ``t`` from ``a``: cosine-power pattern, -20 dB behind."""
    d = [ti - ai for ti, ai in zip(t, a)]
    norm = math.sqrt(sum(c * c for c in d))
    b_norm = math.sqrt(sum(c * c for c in antenna.boresight))
    if norm == 0.0:
        angle = 0.0
    else:
        cos = sum(di * bi for di, bi in zip(d, antenna.boresight)) / (norm * b_norm)
        angle = math.acos(min(1.0, max(-1.0, cos)))
    if angle >= math.pi / 2.0:
        return antenna.gain_dbi - 20.0
    # n such that 10*log10(cos(half beamwidth) ** n) = -3 dB.
    n = -3.0 / (10.0 * math.log10(math.cos(math.radians(antenna.beamwidth_deg / 2.0))))
    pattern_db = 10.0 * n * math.log10(max(math.cos(angle), 1e-9))
    return antenna.gain_dbi + max(pattern_db, -20.0)


def reference_link(budget: LinkBudget, a, t, frequency_hz: float) -> tuple[float, bool]:
    """(reverse-link dBm, decodable) of one reply, from the radar equation."""
    gain = reference_gain_dbi(budget.antenna, a, t)
    d = max(math.dist(a, t), 0.01)
    fspl = 20.0 * math.log10(4.0 * math.pi * d * frequency_hz / SPEED_OF_LIGHT)
    forward = budget.tx_power_dbm - budget.cable_loss_db + gain + budget.tag_gain_dbi - fspl
    reverse = (
        budget.tx_power_dbm
        - 2.0 * budget.cable_loss_db
        + 2.0 * gain
        + 2.0 * budget.tag_gain_dbi
        - 2.0 * fspl
        - budget.backscatter_loss_db
    )
    decodable = forward >= budget.tag_sensitivity_dbm and reverse >= budget.reader_sensitivity_dbm
    return reverse, decodable


def reference_gain(a, t, reflectors, wavelength_m, neighbours=()) -> complex:
    """Complex channel gain of one reply under the first-order image model."""
    direct = 2.0 * math.dist(a, t)

    def path(via, rho: float) -> complex:
        reflected = 2.0 * (math.dist(a, via) + math.dist(via, t))
        amplitude = rho * max(direct, 1e-3) / max(reflected, 1e-3)
        return amplitude * cmath.exp(-1j * TWO_PI * (reflected - direct) / wavelength_m)

    h = 1.0 + 0.0j
    for reflector in reflectors:
        p = reflector.position
        h += path((p.x, p.y, p.z), reflector.reflection_coefficient)
    for neighbour in neighbours:
        to_tag = math.dist(neighbour, t)
        damping = 1.0 if to_tag <= COUPLING_DECAY_M else (COUPLING_DECAY_M / to_tag) ** 2
        h += path(neighbour, COUPLING_COEFFICIENT * damping)
    return h


def reference_fade(h: complex) -> tuple[float, float]:
    """(fade dB floored at -40, phase perturbation rad) of a complex gain."""
    magnitude = abs(h)
    fade_db = 20.0 * math.log10(magnitude) if magnitude > 1e-4 else -40.0
    return fade_db, cmath.phase(h)


def random_sweep(seed: int, events: int = 160):
    """A channel and a random batch of reply attempts with coupled neighbours."""
    rng = np.random.default_rng(seed)
    tilt = rng.normal(0.0, 0.3, size=2)
    antenna = DirectionalAntenna(
        beamwidth_deg=float(rng.uniform(40.0, 110.0)),
        boresight=(float(tilt[0]), float(tilt[1]), 1.0),
    )
    # Strong reflectors, so that some replies fall into a deep fade.
    reflectors = typical_indoor_reflectors(
        Point3D(-0.6, -0.3, 0.2),
        Point3D(0.6, 0.3, 1.5),
        count=2 + seed % 3,
        rng=rng,
        reflection_coefficient=0.75,
    )
    channel = BackscatterChannel(
        channel_index=seed % ISM_CHANNEL_COUNT,
        antenna=antenna,
        link_budget=LinkBudget(antenna=antenna),
        multipath=MultipathChannel(reflectors=reflectors),
        noise=NoiseModel(),
        device_offsets=DeviceOffsets(*rng.uniform(0.0, TWO_PI, size=3)),
    )
    antennas = np.column_stack(
        [rng.uniform(-1.0, 1.0, events), rng.uniform(-0.1, 0.1, events), np.zeros(events)]
    )
    tags = np.column_stack(
        [
            rng.uniform(-0.6, 0.6, events),
            rng.uniform(-0.3, 0.3, events),
            rng.uniform(0.2, 1.5, events),
        ]
    )
    # A few replies from far out of range and from behind the panel.
    tags[:4, 2] = rng.uniform(20.0, 60.0, 4)
    tags[4:8, 2] = -rng.uniform(0.2, 1.0, 4)
    counts = rng.integers(0, 4, events)
    event_index = np.repeat(np.arange(events), counts)
    extras = tags[event_index] + rng.normal(0.0, 0.03, size=(event_index.size, 3))
    return channel, antennas, tags, extras, event_index, rng


def sweep_physics(channel, antennas, tags, extras, event_index, offsets=None):
    return channel.sweep_physics(
        antennas,
        tags,
        device_offsets_total=offsets,
        extra_positions=extras,
        extra_event_index=event_index,
        tag_coupling_coefficient=COUPLING_COEFFICIENT,
        tag_coupling_decay_m=COUPLING_DECAY_M,
    )


class TestSweepPhysicsReference:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_distance_and_eq1_phase(self, seed):
        channel, antennas, tags, extras, index, rng = random_sweep(seed)
        wavelength = channel_wavelength_m(channel.channel_index)
        per_event = rng.uniform(0.0, TWO_PI, len(tags))
        for offsets in (None, per_event):
            physics = sweep_physics(channel, antennas, tags, extras, index, offsets)
            for i, (a, t) in enumerate(zip(antennas.tolist(), tags.tolist())):
                l = math.dist(a, t)
                mu = channel.device_offsets.total if offsets is None else offsets[i]
                theta = (TWO_PI * 2.0 * l / wavelength + mu) % TWO_PI
                assert physics.true_distance_m[i] == pytest.approx(l, rel=1e-12)
                assert 0.0 <= physics.wrapped_phase_rad[i] < TWO_PI
                assert circular_gap(physics.wrapped_phase_rad[i], theta) < 1e-9

    @pytest.mark.parametrize("seed", SEEDS)
    def test_link_budget(self, seed):
        channel, antennas, tags, extras, index, _ = random_sweep(seed)
        physics = sweep_physics(channel, antennas, tags, extras, index)
        frequency = channel_frequency_hz(channel.channel_index)
        for i, (a, t) in enumerate(zip(antennas.tolist(), tags.tolist())):
            reverse, decodable = reference_link(channel.link_budget, a, t, frequency)
            assert physics.rssi_base_dbm[i] == pytest.approx(reverse, rel=1e-9, abs=1e-9)
            assert bool(physics.decodable[i]) == decodable
        # The geometry spans both sides of the read range.
        assert physics.decodable.any() and not physics.decodable.all()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_static_reflector_multipath(self, seed):
        channel, antennas, tags, *_ = random_sweep(seed)
        physics = channel.sweep_physics(antennas, tags)
        wavelength = channel_wavelength_m(channel.channel_index)
        threshold = channel.noise.fade_dropout_threshold_db
        for i, (a, t) in enumerate(zip(antennas.tolist(), tags.tolist())):
            h = reference_gain(a, t, channel.multipath.reflectors, wavelength)
            fade_db, perturbation = reference_fade(h)
            assert physics.fade_db[i] == pytest.approx(fade_db, rel=1e-9, abs=1e-9)
            assert circular_gap(physics.perturbation_rad[i], perturbation) < 1e-9
            assert bool(physics.deep_fade[i]) == (fade_db <= threshold)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tag_coupling_multipath(self, seed):
        channel, antennas, tags, extras, index, _ = random_sweep(seed)
        physics = sweep_physics(channel, antennas, tags, extras, index)
        wavelength = channel_wavelength_m(channel.channel_index)
        for i, (a, t) in enumerate(zip(antennas.tolist(), tags.tolist())):
            neighbours = extras[index == i].tolist()
            h = reference_gain(a, t, channel.multipath.reflectors, wavelength, neighbours)
            fade_db, perturbation = reference_fade(h)
            assert physics.fade_db[i] == pytest.approx(fade_db, rel=1e-9, abs=1e-9)
            assert circular_gap(physics.perturbation_rad[i], perturbation) < 1e-9
        # Coupling changes the replies that have neighbours, and only those.
        plain = channel.sweep_physics(antennas, tags)
        coupled = np.isin(np.arange(len(tags)), index)
        assert (physics.fade_db[~coupled] == plain.fade_db[~coupled]).all()
        assert (physics.fade_db[coupled] != plain.fade_db[coupled]).any()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scheduled_observation(self, seed):
        # Wrapped phase + perturbation, wrap, + noise, wrap, quantise to the
        # 12-bit word; RSSI = base + fade + noise; a reply is readable when
        # decodable and neither dropped nor in a deep fade.
        channel, antennas, tags, extras, index, rng = random_sweep(seed)
        physics = sweep_physics(channel, antennas, tags, extras, index)
        m = len(tags)
        dropped = rng.random(m) < 0.2
        phase_noise = rng.normal(0.0, 0.2, m)
        rssi_noise = rng.normal(0.0, 2.0, m)
        observed = channel.observe_scheduled(physics, dropped, phase_noise, rssi_noise)
        step = TWO_PI / 4096
        for i in range(m):
            phase = (physics.wrapped_phase_rad[i] + physics.perturbation_rad[i]) % TWO_PI
            phase = (phase + phase_noise[i]) % TWO_PI
            phase = (round(phase / step) * step) % TWO_PI
            assert circular_gap(observed.phase_rad[i], phase) < 1e-12
            assert observed.rssi_dbm[i] == pytest.approx(
                physics.rssi_base_dbm[i] + physics.fade_db[i] + rssi_noise[i], rel=1e-12
            )
            readable = physics.decodable[i] and not (dropped[i] or physics.deep_fade[i])
            assert bool(observed.readable[i]) == readable
            assert observed.true_distance_m[i] == physics.true_distance_m[i]
