"""Unit tests for repro.linalg.eigen."""

import numpy as np
import pytest

from repro.linalg import EigenDecomposition, hermitian_eigendecomposition, reconstruct_from_eigen


class TestHermitianEigendecomposition:
    def test_eigenvalues_descending(self, eq22_covariance):
        decomp = hermitian_eigendecomposition(eq22_covariance)
        assert np.all(np.diff(decomp.eigenvalues) <= 0)

    def test_reconstruction_matches_input(self, eq22_covariance):
        decomp = hermitian_eigendecomposition(eq22_covariance)
        rebuilt = reconstruct_from_eigen(decomp.eigenvalues, decomp.eigenvectors)
        assert np.allclose(rebuilt, eq22_covariance, atol=1e-12)

    def test_eigenvalues_are_real(self, eq22_covariance):
        decomp = hermitian_eigendecomposition(eq22_covariance)
        assert not np.iscomplexobj(decomp.eigenvalues)

    def test_eigenvectors_orthonormal(self, eq23_covariance):
        decomp = hermitian_eigendecomposition(eq23_covariance)
        gram = decomp.eigenvectors.conj().T @ decomp.eigenvectors
        assert np.allclose(gram, np.eye(3), atol=1e-12)

    def test_identity_eigenvalues(self):
        decomp = hermitian_eigendecomposition(np.eye(4) * 3.0)
        assert np.allclose(decomp.eigenvalues, 3.0)

    def test_min_max_properties(self, indefinite_covariance):
        decomp = hermitian_eigendecomposition(indefinite_covariance)
        eigs = np.linalg.eigvalsh(indefinite_covariance)
        assert decomp.min_eigenvalue == pytest.approx(np.min(eigs))
        assert decomp.max_eigenvalue == pytest.approx(np.max(eigs))

    def test_size_property(self, eq22_covariance):
        assert hermitian_eigendecomposition(eq22_covariance).size == 3

    def test_nearly_hermitian_input_symmetrized(self):
        matrix = np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
        decomp = hermitian_eigendecomposition(matrix)
        assert isinstance(decomp, EigenDecomposition)


class TestReconstructFromEigen:
    def test_identity_reconstruction(self):
        values = np.array([2.0, 1.0])
        vectors = np.eye(2)
        assert np.allclose(reconstruct_from_eigen(values, vectors), np.diag(values))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            reconstruct_from_eigen(np.ones(3), np.eye(2))

    def test_complex_reconstruction_is_hermitian(self, eq22_covariance):
        decomp = hermitian_eigendecomposition(eq22_covariance)
        rebuilt = reconstruct_from_eigen(decomp.eigenvalues, decomp.eigenvectors)
        assert np.allclose(rebuilt, rebuilt.conj().T)
