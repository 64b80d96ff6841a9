"""Unit tests for repro.channels.geometry."""

import pytest

from repro.channels import (
    max_doppler_frequency,
    normalized_doppler,
    wavelength,
)
from repro.channels.geometry import SPEED_OF_LIGHT
from repro.exceptions import SpecificationError


class TestWavelength:
    def test_gsm900_wavelength(self):
        assert wavelength(900e6) == pytest.approx(0.333, rel=1e-2)

    def test_scales_inversely_with_frequency(self):
        assert wavelength(1e9) == pytest.approx(wavelength(2e9) * 2)

    def test_invalid_frequency(self):
        with pytest.raises(SpecificationError):
            wavelength(0.0)


class TestMaxDoppler:
    def test_paper_scenario_60kmh_900mhz(self):
        # The paper quotes Fm = 50 Hz for 900 MHz at 60 km/h (using c ~ 3e8).
        speed = 60.0 / 3.6  # m/s
        fm = max_doppler_frequency(speed, 900e6)
        assert fm == pytest.approx(50.0, rel=0.01)

    def test_zero_speed_gives_zero_doppler(self):
        assert max_doppler_frequency(0.0, 2e9) == 0.0

    def test_negative_speed_raises(self):
        with pytest.raises(SpecificationError):
            max_doppler_frequency(-1.0, 2e9)

    def test_formula(self):
        assert max_doppler_frequency(30.0, 1e9) == pytest.approx(30.0 * 1e9 / SPEED_OF_LIGHT)


class TestNormalizedDoppler:
    def test_paper_value(self):
        assert normalized_doppler(50.0, 1000.0) == pytest.approx(0.05)

    def test_invalid_sampling_frequency(self):
        with pytest.raises(SpecificationError):
            normalized_doppler(50.0, 0.0)

    def test_negative_doppler_rejected(self):
        with pytest.raises(SpecificationError):
            normalized_doppler(-1.0, 1000.0)

