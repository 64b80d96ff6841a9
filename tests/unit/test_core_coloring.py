"""Unit tests for the coloring-matrix computation (Section 4.3)."""

import numpy as np
import pytest

from repro.core import compute_coloring
from repro.core.coloring import (
    coloring_matrix_cholesky,
    coloring_matrix_eigen,
    coloring_matrix_svd,
)
from repro.exceptions import CholeskyError, ColoringError
from repro.linalg import clip_negative_eigenvalues


class TestColoringMatrixEigen:
    def test_reconstructs_pd_matrix(self, eq22_covariance):
        factor = coloring_matrix_eigen(eq22_covariance)
        assert np.allclose(factor @ factor.conj().T, eq22_covariance, atol=1e-12)

    def test_reconstructs_singular_psd_matrix(self):
        matrix = np.ones((4, 4), dtype=complex)
        factor = coloring_matrix_eigen(matrix)
        assert np.allclose(factor @ factor.conj().T, matrix, atol=1e-12)

    def test_matches_paper_construction_v_sqrt_lambda(self, eq23_covariance):
        # L = V sqrt(Lambda) from the descending-ordered eigendecomposition.
        from repro.linalg import hermitian_eigendecomposition

        decomp = hermitian_eigendecomposition(eq23_covariance)
        expected = decomp.eigenvectors * np.sqrt(decomp.eigenvalues)
        assert np.allclose(coloring_matrix_eigen(eq23_covariance), expected)

    def test_square_not_triangular(self, eq22_covariance):
        factor = coloring_matrix_eigen(eq22_covariance)
        assert factor.shape == (3, 3)
        # Generally dense: the strict upper triangle is not all zeros.
        assert np.any(np.abs(np.triu(factor, k=1)) > 1e-10)

    def test_indefinite_input_rejected(self, indefinite_covariance):
        with pytest.raises(ColoringError):
            coloring_matrix_eigen(indefinite_covariance)


class TestColoringMatrixCholesky:
    def test_reconstructs_pd_matrix(self, eq23_covariance):
        factor = coloring_matrix_cholesky(eq23_covariance)
        assert np.allclose(factor @ factor.conj().T, eq23_covariance, atol=1e-12)

    def test_lower_triangular(self, eq23_covariance):
        factor = coloring_matrix_cholesky(eq23_covariance)
        assert np.allclose(np.triu(factor, k=1), 0.0)

    def test_fails_on_singular(self):
        with pytest.raises(CholeskyError):
            coloring_matrix_cholesky(np.ones((3, 3)))


class TestColoringMatrixSvd:
    def test_reconstructs_pd_matrix(self, eq22_covariance):
        factor = coloring_matrix_svd(eq22_covariance)
        assert np.allclose(factor @ factor.conj().T, eq22_covariance, atol=1e-10)

    def test_reconstructs_singular_matrix(self):
        matrix = np.ones((3, 3), dtype=complex)
        factor = coloring_matrix_svd(matrix)
        assert np.allclose(factor @ factor.conj().T, matrix, atol=1e-10)

    def test_rejects_indefinite(self, indefinite_covariance):
        with pytest.raises(ColoringError):
            coloring_matrix_svd(indefinite_covariance)


class TestComputeColoring:
    def test_pd_request_not_repaired(self, eq22_covariance):
        decomp = compute_coloring(eq22_covariance)
        assert not decomp.was_repaired
        assert np.allclose(decomp.effective_covariance, eq22_covariance)

    def test_indefinite_request_repaired_to_clip(self, indefinite_covariance):
        decomp = compute_coloring(indefinite_covariance)
        assert decomp.was_repaired
        assert np.allclose(
            decomp.effective_covariance,
            clip_negative_eigenvalues(indefinite_covariance),
            atol=1e-12,
        )

    def test_coloring_realizes_effective_covariance(self, indefinite_covariance):
        decomp = compute_coloring(indefinite_covariance)
        assert decomp.reconstruction_error() < 1e-10

    def test_epsilon_psd_method_passthrough(self, indefinite_covariance):
        decomp = compute_coloring(indefinite_covariance, psd_method="epsilon")
        assert decomp.extra["psd_method"] == "epsilon"
        assert np.min(np.linalg.eigvalsh(decomp.effective_covariance)) > 0

    def test_cholesky_method_on_pd_matrix(self, eq23_covariance):
        decomp = compute_coloring(eq23_covariance, method="cholesky")
        assert decomp.method == "cholesky"
        assert decomp.reconstruction_error() < 1e-10

    def test_cholesky_method_fails_on_exactly_singular(self):
        # The fully-correlated (all-ones) covariance is PSD but singular, so it
        # passes the forcing step untouched and then breaks the Cholesky path.
        with pytest.raises(CholeskyError):
            compute_coloring(np.ones((3, 3), dtype=complex), method="cholesky")

    def test_unknown_method_rejected(self, eq22_covariance):
        with pytest.raises(ValueError):
            compute_coloring(eq22_covariance, method="qr")

    def test_eigen_and_svd_realize_same_covariance(self, eq22_covariance):
        eigen = compute_coloring(eq22_covariance, method="eigen")
        svd = compute_coloring(eq22_covariance, method="svd")
        assert np.allclose(
            eigen.coloring_matrix @ eigen.coloring_matrix.conj().T,
            svd.coloring_matrix @ svd.coloring_matrix.conj().T,
            atol=1e-10,
        )
