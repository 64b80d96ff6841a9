"""Positive-semi-definite approximations of indefinite covariance matrices.

Three approximations are provided:

* :func:`clip_negative_eigenvalues` — the paper's proposed procedure
  (Section 4.2): negative eigenvalues are replaced by exactly zero.
* :func:`replace_nonpositive_eigenvalues` — the procedure of Sorooshyari &
  Daut [6]: non-positive eigenvalues are replaced by a small positive
  ``epsilon``.  Kept as a baseline so benchmarks can show the paper's claim
  that clipping is closer to the original matrix in Frobenius norm.
* :func:`nearest_psd_higham` — Higham's alternating-projections nearest
  correlation/covariance matrix, included as an extension for users who also
  need the diagonal preserved.

All functions operate on the Hermitian part of their input, return Hermitian
matrices, and never mutate their argument.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import CovarianceError
from .checks import assert_square, hermitian_part, is_positive_semidefinite
from .eigen import hermitian_eigendecomposition, reconstruct_from_eigen

__all__ = [
    "clip_negative_eigenvalues",
    "replace_nonpositive_eigenvalues",
    "nearest_psd_higham",
    "frobenius_distance",
]

#: Most alternating-projection sweeps :func:`nearest_psd_higham` runs.
_HIGHAM_MAX_ITERATIONS = 100

#: Convergence tolerance on the Frobenius norm of a Higham sweep's update.
_HIGHAM_TOL = 1e-10


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of the difference of two matrices of equal shape."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"matrices must have the same shape, got {a.shape} and {b.shape}")
    return float(np.linalg.norm(a - b, ord="fro"))


def clip_negative_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Force positive semi-definiteness by zeroing negative eigenvalues.

    Implements the approximation of Section 4.2 of the paper:

    .. math::

        \\hat\\lambda_j = \\begin{cases}\\lambda_j & \\lambda_j \\ge 0\\\\
        0 & \\lambda_j < 0\\end{cases}

    followed by the reconstruction ``K_bar = V diag(lambda_hat) V^H``.  When
    the input is already positive semi-definite the reconstruction equals the
    (Hermitian part of the) input up to floating-point error.
    """
    arr = assert_square(matrix, "covariance matrix")
    decomp = hermitian_eigendecomposition(arr)
    clipped = np.where(decomp.eigenvalues >= 0.0, decomp.eigenvalues, 0.0)
    return reconstruct_from_eigen(clipped, decomp.eigenvectors)


def replace_nonpositive_eigenvalues(
    matrix: np.ndarray,
    epsilon: float = 1e-6,
) -> np.ndarray:
    """Force positive definiteness by replacing non-positive eigenvalues with ``epsilon``.

    This is the approximation used by Sorooshyari & Daut [6]:

    .. math::

        \\hat\\lambda_j = \\begin{cases}\\lambda_j & \\lambda_j > 0\\\\
        \\varepsilon & \\lambda_j \\le 0\\end{cases}

    It guarantees Cholesky-factorizability but, as the paper notes, moves the
    matrix further (in Frobenius norm) from the desired covariance than the
    clipping procedure does, and perturbs matrices that were exactly
    semi-definite.
    """
    if epsilon <= 0.0 or not np.isfinite(epsilon):
        raise ValueError(f"epsilon must be a positive finite number, got {epsilon!r}")
    arr = assert_square(matrix, "covariance matrix")
    decomp = hermitian_eigendecomposition(arr)
    replaced = np.where(decomp.eigenvalues > 0.0, decomp.eigenvalues, epsilon)
    return reconstruct_from_eigen(replaced, decomp.eigenvectors)


def nearest_psd_higham(
    matrix: np.ndarray,
    *,
    preserve_diagonal: bool = False,
) -> np.ndarray:
    """Nearest positive-semi-definite matrix by Higham's alternating projections.

    Parameters
    ----------
    matrix:
        Hermitian (or nearly Hermitian) matrix.
    preserve_diagonal:
        If ``True`` the original diagonal is restored after each projection,
        which computes the nearest matrix in the *correlation-matrix* sense
        (unit/fixed diagonal), useful when the diagonal carries the branch
        powers that must not change.

    Raises
    ------
    CovarianceError
        If the iteration does not converge within ``_HIGHAM_MAX_ITERATIONS``
        sweeps (to ``_HIGHAM_TOL``).

    Notes
    -----
    Without the diagonal constraint a single eigenvalue clipping already
    yields the Frobenius-nearest PSD matrix, so this function only iterates
    when ``preserve_diagonal`` is requested.

    The iterate the loop stops at is PSD only to ``PSD_TOL``, while the
    eigen coloring rejects negative eigenvalues below the tighter
    ``EIG_CLIP_TOL`` (both in :mod:`repro.config`).  So the eigenvalues are clipped once more and
    the requested diagonal ``d`` is restored by the congruence ``S·Y·S``
    with ``S = diag(sqrt(d / diag(Y)))``, which keeps the matrix PSD.
    """
    arr = hermitian_part(assert_square(matrix, "covariance matrix"))
    if not preserve_diagonal:
        return clip_negative_eigenvalues(arr)

    original_diagonal = np.diag(arr).copy()
    y = arr.copy()
    delta = np.zeros_like(arr)
    for _ in range(_HIGHAM_MAX_ITERATIONS):
        r = y - delta
        x = clip_negative_eigenvalues(r)
        delta = x - r
        y_next = x.copy()
        np.fill_diagonal(y_next, original_diagonal)
        change = frobenius_distance(y_next, y)
        y = y_next
        if change < _HIGHAM_TOL and is_positive_semidefinite(y):
            break
    else:
        raise CovarianceError(
            "Higham's alternating projections did not converge within "
            f"{_HIGHAM_MAX_ITERATIONS} iterations"
        )
    clipped = clip_negative_eigenvalues(y)
    current = np.diag(clipped).real
    # A zero diagonal entry of the clipped matrix scales its row and column
    # to zero; the requested entry written back below keeps it PSD.
    scale = np.sqrt(
        np.divide(
            original_diagonal.real, current, out=np.zeros_like(current), where=current > 0.0
        )
    )
    restored = hermitian_part(scale[:, np.newaxis] * clipped * scale[np.newaxis, :])
    # The congruence leaves the diagonal within a few ulp of ``d``; write it
    # back exactly so the branch powers are the requested ones.
    np.fill_diagonal(restored, original_diagonal)
    return restored
