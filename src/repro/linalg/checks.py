"""Structural checks for covariance matrices.

Every predicate takes the matrix as-is (no copies unless needed) and uses the
package-wide tolerances from :mod:`repro.config`, so that
the notion of "Hermitian" or "positive semi-definite" is identical everywhere
in the library.
"""

from __future__ import annotations

import numpy as np

from ..config import HERMITIAN_ATOL, HERMITIAN_RTOL, PSD_TOL
from ..exceptions import DimensionError, NotHermitianError

__all__ = [
    "assert_square",
    "is_hermitian",
    "assert_hermitian",
    "hermitian_part",
    "min_eigenvalue",
    "is_positive_semidefinite",
]


def all_close(a: np.ndarray, b: np.ndarray, *, rtol: float, atol: float) -> bool:
    """``np.allclose(a, b, rtol=rtol, atol=atol)``, returning early when ``a == b``.

    Exactly equal arrays (an exactly Hermitian matrix, a diagonal read off
    itself) are the common case on admission; they need one ``a == b`` pass
    instead of ``np.allclose``'s argument set-up.  Anything else is decided by
    ``np.allclose`` itself, so the answer is numpy's for every input.
    Internal to the admission checks; not part of :mod:`repro.linalg`.
    """
    return bool((a == b).all()) or bool(np.allclose(a, b, rtol=rtol, atol=atol))


def assert_square(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``matrix`` is a 2-D square array and return it as ndarray.

    Raises
    ------
    DimensionError
        If the array is not two-dimensional or not square.
    """
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise DimensionError(f"{name} must be non-empty")
    return arr


def is_hermitian(matrix: np.ndarray) -> bool:
    """Return ``True`` if ``matrix`` equals its conjugate transpose.

    The tolerance is :data:`repro.config.HERMITIAN_ATOL` and
    :data:`repro.config.HERMITIAN_RTOL`.
    """
    arr = assert_square(matrix)
    return all_close(arr, arr.conj().T, atol=HERMITIAN_ATOL, rtol=HERMITIAN_RTOL)


def assert_hermitian(matrix: np.ndarray, name: str = "covariance matrix") -> np.ndarray:
    """Validate Hermitian symmetry, returning the array.

    Raises
    ------
    NotHermitianError
        If the matrix is not Hermitian within tolerance.
    """
    arr = assert_square(matrix, name)
    if not is_hermitian(arr):
        max_asym = float(np.max(np.abs(arr - arr.conj().T)))
        raise NotHermitianError(
            f"{name} is not Hermitian (max |K - K^H| element = {max_asym:.3e})"
        )
    return arr


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """Return the Hermitian part ``(K + K^H)/2`` of a square matrix.

    Used to remove tiny asymmetries introduced by floating-point assembly of
    covariance matrices before eigendecomposition.
    """
    arr = assert_square(matrix)
    return 0.5 * (arr + arr.conj().T)


def min_eigenvalue(matrix: np.ndarray) -> float:
    """Return the smallest eigenvalue of a Hermitian matrix.

    The matrix is symmetrized first so the result is always real.
    """
    herm = hermitian_part(matrix)
    return float(np.min(np.linalg.eigvalsh(herm)))


def is_positive_semidefinite(matrix: np.ndarray) -> bool:
    """Return ``True`` if the Hermitian matrix has no eigenvalue below ``-tol_eff``.

    The effective tolerance is :data:`repro.config.PSD_TOL` scaled by the
    largest absolute eigenvalue, so the predicate is invariant to uniform
    scaling of the matrix.
    """
    herm = hermitian_part(matrix)
    eigvals = np.linalg.eigvalsh(herm)
    scale = float(np.max(np.abs(eigvals))) if eigvals.size else 0.0
    tol_eff = PSD_TOL * max(scale, 1.0)
    return bool(np.min(eigvals) >= -tol_eff)

