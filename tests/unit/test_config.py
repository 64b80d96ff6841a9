"""Unit tests for repro.config."""

import dataclasses

import pytest

from repro.config import DEFAULTS, NumericDefaults


class TestNumericDefaults:
    def test_defaults_is_a_numeric_defaults_instance(self):
        assert isinstance(DEFAULTS, NumericDefaults)

    def test_defaults_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULTS.hermitian_atol = 1.0  # type: ignore[misc]

    def test_tolerances_are_positive(self):
        assert DEFAULTS.hermitian_atol > 0
        assert DEFAULTS.hermitian_rtol > 0
        assert DEFAULTS.eig_clip_tol > 0
        assert DEFAULTS.psd_tol > 0
        assert DEFAULTS.cholesky_jitter > 0
        assert DEFAULTS.bessel_series_tol > 0

    def test_bessel_terms_is_reasonably_large(self):
        assert DEFAULTS.bessel_series_terms >= 32

    def test_default_seed_is_an_int(self):
        assert isinstance(DEFAULTS.default_rng_seed, int)
