"""Unit tests for repro.rf.constants and repro.rf.geometry."""

import numpy as np
import pytest

from repro.rf import constants
from repro.rf.geometry import Point3D


class TestBandPlan:
    def test_channel_frequency_in_band(self):
        for channel in range(constants.ISM_CHANNEL_COUNT):
            freq = constants.channel_frequency_hz(channel)
            assert constants.ISM_BAND_LOW_HZ <= freq <= constants.ISM_BAND_HIGH_HZ

    def test_channel_spacing(self):
        assert constants.channel_frequency_hz(7) - constants.channel_frequency_hz(6) == pytest.approx(
            constants.ISM_CHANNEL_SPACING_HZ
        )

    def test_invalid_channel_rejected(self):
        with pytest.raises(ValueError):
            constants.channel_frequency_hz(-1)
        with pytest.raises(ValueError):
            constants.channel_frequency_hz(constants.ISM_CHANNEL_COUNT)

    def test_wavelength_about_32cm(self):
        wavelength = constants.channel_wavelength_m(constants.DEFAULT_CHANNEL_INDEX)
        assert 0.32 < wavelength < 0.33

    def test_wavelength_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            constants.wavelength_m(0.0)


class TestPoint3D:
    def test_distance_symmetric(self):
        a = Point3D(0.0, 0.0, 0.0)
        b = Point3D(3.0, 4.0, 0.0)
        assert a.distance_to(b) == pytest.approx(5.0)
        assert b.distance_to(a) == pytest.approx(5.0)

    def test_as_array(self):
        arr = Point3D(1.0, 2.0, 3.0).as_array()
        assert arr.shape == (3,)
        assert np.allclose(arr, [1.0, 2.0, 3.0])
