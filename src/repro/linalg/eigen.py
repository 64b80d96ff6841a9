"""Hermitian eigendecomposition wrapper used by the coloring procedure.

The paper computes the coloring matrix from the eigendecomposition
``K = V G V^H`` (Section 4.3).  This module wraps numpy's ``eigh`` with the
symmetrization and bookkeeping the rest of the package relies on: a
:class:`EigenDecomposition` records eigenvalues in descending order together
with the matrix of eigenvectors and knows how to reconstruct the original
matrix, report negative eigenvalues, and expose the numerical rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import assert_square, hermitian_part

__all__ = ["EigenDecomposition", "hermitian_eigendecomposition", "reconstruct_from_eigen"]


@dataclass(frozen=True)
class EigenDecomposition:
    """Result of a Hermitian eigendecomposition ``K = V diag(eigenvalues) V^H``.

    Attributes
    ----------
    eigenvalues:
        Real eigenvalues sorted in descending order.
    eigenvectors:
        Matrix whose columns are the corresponding orthonormal eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def size(self) -> int:
        """Dimension of the decomposed matrix."""
        return int(self.eigenvalues.shape[0])

    @property
    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue."""
        return float(self.eigenvalues[-1])

    @property
    def max_eigenvalue(self) -> float:
        """Largest eigenvalue."""
        return float(self.eigenvalues[0])


def hermitian_eigendecomposition(matrix: np.ndarray) -> EigenDecomposition:
    """Eigendecompose a (nearly) Hermitian matrix.

    The matrix is symmetrized with :func:`repro.linalg.checks.hermitian_part`
    before calling ``numpy.linalg.eigh`` so that tiny floating-point
    asymmetries cannot produce complex eigenvalues.  Eigenvalues are returned
    in descending order (the paper's notation lists the dominant eigenvalue
    first).
    """
    arr = assert_square(matrix, "matrix for eigendecomposition")
    herm = hermitian_part(arr)
    eigenvalues, eigenvectors = np.linalg.eigh(herm)
    # eigh returns ascending order; flip to descending.
    order = np.argsort(eigenvalues)[::-1]
    return EigenDecomposition(
        eigenvalues=np.ascontiguousarray(eigenvalues[order]),
        eigenvectors=np.ascontiguousarray(eigenvectors[:, order]),
    )


def reconstruct_from_eigen(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> np.ndarray:
    """Return ``V diag(lambda) V^H`` for the given eigenpairs."""
    eigenvalues = np.asarray(eigenvalues)
    eigenvectors = np.asarray(eigenvectors)
    if eigenvectors.ndim != 2 or eigenvectors.shape[1] != eigenvalues.shape[0]:
        raise ValueError(
            "eigenvectors must be a 2-D matrix with one column per eigenvalue; "
            f"got eigenvectors {eigenvectors.shape} and {eigenvalues.shape[0]} eigenvalues"
        )
    return (eigenvectors * eigenvalues) @ eigenvectors.conj().T
