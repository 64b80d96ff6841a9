"""Unit tests for repro.channels.geometry."""

import pytest

from repro.channels import normalized_doppler
from repro.exceptions import SpecificationError


class TestNormalizedDoppler:
    def test_paper_value(self):
        assert normalized_doppler(50.0, 1000.0) == pytest.approx(0.05)

    def test_invalid_sampling_frequency(self):
        with pytest.raises(SpecificationError):
            normalized_doppler(50.0, 0.0)

    def test_negative_doppler_rejected(self):
        with pytest.raises(SpecificationError):
            normalized_doppler(-1.0, 1000.0)

