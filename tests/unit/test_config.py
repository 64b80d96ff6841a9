"""Unit tests for repro.config."""

from repro import config


class TestConstants:
    def test_tolerances_are_positive(self):
        assert config.HERMITIAN_ATOL > 0
        assert config.HERMITIAN_RTOL > 0
        assert config.EIG_CLIP_TOL > 0
        assert config.PSD_TOL > 0
        assert config.CHOLESKY_JITTER > 0
        assert config.BESSEL_SERIES_TOL > 0

    def test_bessel_terms_is_reasonably_large(self):
        assert isinstance(config.BESSEL_SERIES_TERMS, int)
        assert config.BESSEL_SERIES_TERMS >= 32

    def test_default_seed_is_an_int(self):
        assert isinstance(config.DEFAULT_RNG_SEED, int)
