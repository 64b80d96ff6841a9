"""Cholesky factorization with explicit failure reporting.

The conventional correlated-Rayleigh generators reviewed in Section 1 of the
paper ([3], [4], [5], [6]) all obtain their coloring matrix from a Cholesky
factorization of the covariance matrix, which requires positive definiteness
and — as the paper stresses — breaks down through round-off even for some
matrices that are theoretically positive semi-definite.  The wrappers here
expose that failure mode explicitly (``CholeskyError`` / ``CholeskyResult``)
so the baselines can reproduce it and the benchmarks can count it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import CHOLESKY_JITTER
from ..exceptions import CholeskyError
from .checks import assert_square, hermitian_part

__all__ = ["CholeskyResult", "cholesky_factor", "try_cholesky"]

#: Jitter magnitudes ``try_cholesky`` tries, from ``CHOLESKY_JITTER`` up by
#: a factor of 10 each.
_JITTER_ATTEMPTS = 3


@dataclass(frozen=True)
class CholeskyResult:
    """Outcome of an attempted Cholesky factorization.

    Attributes
    ----------
    factor:
        Lower-triangular factor ``L`` with ``L L^H = K`` when ``success`` is
        ``True``; ``None`` otherwise.
    success:
        Whether the factorization succeeded.
    jitter_used:
        Diagonal jitter added before the successful attempt (0.0 when no
        jitter was needed, ``None`` when the factorization failed outright).
    message:
        Human-readable description of the outcome.
    """

    factor: Optional[np.ndarray]
    success: bool
    jitter_used: Optional[float]
    message: str


def cholesky_factor(matrix: np.ndarray) -> np.ndarray:
    """Return the lower-triangular Cholesky factor of a Hermitian matrix.

    Raises
    ------
    CholeskyError
        If the matrix is not positive definite (numpy's LinAlgError is
        translated so callers can distinguish this failure from other linear
        algebra problems).
    """
    arr = assert_square(matrix, "matrix for Cholesky factorization")
    herm = hermitian_part(arr)
    try:
        return np.linalg.cholesky(herm)
    except np.linalg.LinAlgError as exc:
        raise CholeskyError(
            "Cholesky factorization failed: matrix is not positive definite "
            f"({exc}). The eigendecomposition coloring path does not have this requirement."
        ) from exc


def try_cholesky(
    matrix: np.ndarray,
    *,
    allow_jitter: bool = False,
) -> CholeskyResult:
    """Attempt a Cholesky factorization without raising.

    Parameters
    ----------
    matrix:
        Hermitian matrix to factor.
    allow_jitter:
        If ``True`` and the plain factorization fails, retry with a small
        multiple of the identity added to the diagonal (growing by a factor
        of 10 each of three attempts).  This mimics the ad-hoc repairs
        practitioners apply to Cholesky-based generators; the proposed
        algorithm never needs it.

    Returns
    -------
    CholeskyResult
    """
    arr = assert_square(matrix, "matrix for Cholesky factorization")
    herm = hermitian_part(arr)
    try:
        factor = np.linalg.cholesky(herm)
        return CholeskyResult(factor, True, 0.0, "factorization succeeded without jitter")
    except np.linalg.LinAlgError:
        pass

    if allow_jitter:
        scale = float(np.max(np.abs(np.diag(herm)))) or 1.0
        jitter = CHOLESKY_JITTER * scale
        identity = np.eye(herm.shape[0], dtype=herm.dtype)
        for _ in range(_JITTER_ATTEMPTS):
            try:
                factor = np.linalg.cholesky(herm + jitter * identity)
                return CholeskyResult(
                    factor,
                    True,
                    jitter,
                    f"factorization succeeded after adding diagonal jitter {jitter:.3e}",
                )
            except np.linalg.LinAlgError:
                jitter *= 10.0

    return CholeskyResult(
        None,
        False,
        None,
        "factorization failed: matrix is not positive definite",
    )
