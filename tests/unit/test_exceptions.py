"""Unit tests for the exception hierarchy."""

import pytest

from repro import exceptions as exc


class TestHierarchy:
    @pytest.mark.parametrize(
        "subclass",
        [
            exc.SpecificationError,
            exc.DimensionError,
            exc.PowerError,
            exc.CovarianceError,
            exc.NotHermitianError,
            exc.NotPositiveSemiDefiniteError,
            exc.DecompositionError,
            exc.CholeskyError,
            exc.ColoringError,
            exc.DopplerError,
            exc.FilterDesignError,
            exc.GenerationError,
            exc.ExperimentError,
            exc.ParallelExecutionError,
        ],
    )
    def test_all_derive_from_repro_error(self, subclass):
        assert issubclass(subclass, exc.ReproError)

    def test_specification_error_is_value_error(self):
        assert issubclass(exc.SpecificationError, ValueError)

    def test_cholesky_error_is_decomposition_error(self):
        assert issubclass(exc.CholeskyError, exc.DecompositionError)

    def test_filter_design_error_is_doppler_error(self):
        assert issubclass(exc.FilterDesignError, exc.DopplerError)

    def test_dimension_and_power_are_specification_errors(self):
        assert issubclass(exc.DimensionError, exc.SpecificationError)
        assert issubclass(exc.PowerError, exc.SpecificationError)


class TestNotPositiveSemiDefiniteError:
    def test_records_min_eigenvalue(self):
        error = exc.NotPositiveSemiDefiniteError("bad matrix", min_eigenvalue=-0.5)
        assert error.min_eigenvalue == -0.5

    def test_min_eigenvalue_defaults_to_none(self):
        error = exc.NotPositiveSemiDefiniteError("bad matrix")
        assert error.min_eigenvalue is None

    def test_can_be_caught_as_covariance_error(self):
        with pytest.raises(exc.CovarianceError):
            raise exc.NotPositiveSemiDefiniteError("bad matrix")
