"""Unit tests for the forced-PSD procedure (Section 4.2)."""

import numpy as np
import pytest

from repro.core import compare_forcing_methods, force_positive_semidefinite
from repro.linalg import frobenius_distance, is_positive_semidefinite


class TestForcePositiveSemidefiniteClip:
    def test_psd_input_returned_unchanged(self, eq22_covariance):
        result = force_positive_semidefinite(eq22_covariance, method="clip")
        assert not result.was_modified
        assert np.array_equal(result.matrix, eq22_covariance)
        assert result.frobenius_error == 0.0
        assert result.negative_eigenvalues.size == 0

    def test_indefinite_input_repaired(self, indefinite_covariance):
        result = force_positive_semidefinite(indefinite_covariance, method="clip")
        assert result.was_modified
        assert is_positive_semidefinite(result.matrix)
        assert result.negative_eigenvalues.size == 1
        assert result.frobenius_error > 0

    def test_frobenius_error_equals_clipped_mass(self, indefinite_covariance):
        # Clipping removes exactly the negative eigenvalues, so the Frobenius
        # error equals the root-sum-square of the clipped eigenvalues.
        result = force_positive_semidefinite(indefinite_covariance, method="clip")
        expected = np.sqrt(np.sum(result.negative_eigenvalues**2))
        assert result.frobenius_error == pytest.approx(expected, rel=1e-10)

    def test_records_requested_matrix(self, indefinite_covariance):
        result = force_positive_semidefinite(indefinite_covariance)
        assert np.allclose(result.requested, indefinite_covariance)

    def test_min_eigenvalue_in_extra(self, indefinite_covariance):
        result = force_positive_semidefinite(indefinite_covariance)
        assert result.extra["min_eigenvalue"] == pytest.approx(
            float(np.min(np.linalg.eigvalsh(indefinite_covariance)))
        )

    def test_unknown_method_rejected(self, eq22_covariance):
        with pytest.raises(ValueError):
            force_positive_semidefinite(eq22_covariance, method="magic")


class TestForcePositiveSemidefiniteEpsilon:
    def test_result_is_positive_definite(self, indefinite_covariance):
        result = force_positive_semidefinite(
            indefinite_covariance, method="epsilon", epsilon=1e-4
        )
        assert np.min(np.linalg.eigvalsh(result.matrix)) > 0

    def test_always_counts_as_modified(self, eq23_covariance):
        # The epsilon method perturbs even PSD matrices with zero eigenvalues;
        # for strictly PD inputs the numerical change is zero but the method is
        # flagged as a modification of the request.
        result = force_positive_semidefinite(eq23_covariance, method="epsilon")
        assert result.was_modified

    def test_epsilon_recorded(self, indefinite_covariance):
        result = force_positive_semidefinite(
            indefinite_covariance, method="epsilon", epsilon=3e-5
        )
        assert result.extra["epsilon"] == 3e-5

    def test_clip_is_closer_than_epsilon(self, indefinite_covariance):
        results = compare_forcing_methods(indefinite_covariance, epsilon=1e-2)
        assert results["clip"].frobenius_error <= results["epsilon"].frobenius_error


class TestForcePositiveSemidefiniteHigham:
    def test_preserves_diagonal(self, indefinite_covariance):
        result = force_positive_semidefinite(indefinite_covariance, method="higham")
        assert np.allclose(
            np.diag(result.matrix), np.diag(indefinite_covariance), atol=1e-6
        )

    def test_result_is_psd(self, indefinite_covariance):
        result = force_positive_semidefinite(indefinite_covariance, method="higham")
        assert is_positive_semidefinite(result.matrix)

    def test_psd_input_untouched(self, eq22_covariance):
        result = force_positive_semidefinite(eq22_covariance, method="higham")
        assert np.array_equal(result.matrix, eq22_covariance)


class TestCompareForcingMethods:
    def test_returns_all_methods(self, indefinite_covariance):
        results = compare_forcing_methods(indefinite_covariance)
        assert set(results) == {"clip", "epsilon", "higham"}

    def test_all_results_are_psd(self, indefinite_covariance):
        for result in compare_forcing_methods(indefinite_covariance).values():
            assert is_positive_semidefinite(result.matrix)

    def test_higham_no_worse_than_epsilon_on_diagonal(self, indefinite_covariance):
        results = compare_forcing_methods(indefinite_covariance, epsilon=1e-1)
        higham_diag_error = frobenius_distance(
            np.diag(np.diag(results["higham"].matrix)),
            np.diag(np.diag(indefinite_covariance)),
        )
        assert higham_diag_error <= 1e-6
