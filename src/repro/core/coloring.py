"""Coloring-matrix computation (Section 4.3 of the paper).

A coloring matrix ``L`` of the covariance ``K`` satisfies ``L L^H = K``;
multiplying a vector of independent unit-variance complex Gaussians by ``L``
produces Gaussians with covariance ``K``.  The paper computes ``L`` from the
eigendecomposition

.. math::

    K = V \\Lambda V^H, \\qquad L = V \\sqrt{\\Lambda},

which only requires positive *semi*-definiteness (guaranteed after the
forcing step), unlike the Cholesky factorization used by the conventional
methods.  All three strategies are implemented so the experiments can compare
them:

* :func:`coloring_matrix_eigen` — the paper's method;
* :func:`coloring_matrix_cholesky` — the conventional method, which raises
  :class:`repro.exceptions.CholeskyError` on matrices that are not positive
  definite (reproducing the failure the paper reports);
* :func:`coloring_matrix_svd` — an extension using the singular value
  decomposition, numerically equivalent to the eigen path for Hermitian PSD
  matrices.

:func:`compute_coloring` is the full pipeline used by the generators: force
PSD (Section 4.2) then color (Section 4.3), returning a
:class:`repro.linalg.ColoringDecomposition` with diagnostics.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..config import EIG_CLIP_TOL
from ..exceptions import ColoringError
from ..linalg import (
    ColoringDecomposition,
    assert_matrix_stack,
    batched_cholesky_factor,
    batched_hermitian_eigendecomposition,
    cholesky_factor,
    hermitian_eigendecomposition,
)
from ..linalg.batched import _force_psd_stack
from .psd import force_positive_semidefinite

__all__ = [
    "coloring_matrix_eigen",
    "coloring_matrix_cholesky",
    "coloring_matrix_svd",
    "compute_coloring",
    "compute_coloring_batch",
]


def coloring_matrix_eigen(covariance: np.ndarray) -> np.ndarray:
    """Coloring matrix ``L = V sqrt(Lambda)`` by Hermitian eigendecomposition.

    The input must already be positive semi-definite (eigenvalues below the
    numerical clip tolerance are treated as zero); otherwise the square root
    would be complex and ``L L^H`` would no longer equal ``K`` — precisely the
    reason the paper forces PSD first.

    Raises
    ------
    ColoringError
        If the matrix has a genuinely negative eigenvalue.
    """
    decomp = hermitian_eigendecomposition(covariance)
    scale = max(abs(decomp.max_eigenvalue), 1.0)
    tol = EIG_CLIP_TOL * scale
    if decomp.min_eigenvalue < -tol:
        raise ColoringError(
            "eigen coloring requires a positive semi-definite matrix "
            f"(min eigenvalue {decomp.min_eigenvalue:.3e}); apply "
            "force_positive_semidefinite first"
        )
    eigenvalues = np.clip(decomp.eigenvalues, 0.0, None)
    return decomp.eigenvectors * np.sqrt(eigenvalues)


def coloring_matrix_cholesky(covariance: np.ndarray) -> np.ndarray:
    """Lower-triangular coloring matrix by Cholesky factorization (conventional).

    Raises
    ------
    CholeskyError
        If the matrix is not positive definite — the restriction the paper's
        eigen path removes.
    """
    return cholesky_factor(covariance)


def coloring_matrix_svd(covariance: np.ndarray) -> np.ndarray:
    """Coloring matrix ``L = U sqrt(S)`` from the singular value decomposition.

    For a Hermitian positive semi-definite matrix the SVD coincides with the
    eigendecomposition, so this is an alternative formulation of the paper's
    method; it is exposed separately because the SVD is sometimes preferred
    for numerical-rank decisions.
    """
    arr = np.asarray(covariance, dtype=complex)
    u, s, vh = np.linalg.svd(0.5 * (arr + arr.conj().T))
    # For PSD Hermitian input, u == v (up to sign/phase); verify consistency
    # via the reconstruction instead of trusting it blindly.
    candidate = u * np.sqrt(s)
    reconstruction = candidate @ candidate.conj().T
    if not np.allclose(reconstruction, 0.5 * (arr + arr.conj().T), atol=1e-8):
        raise ColoringError(
            "SVD coloring failed: the matrix is not positive semi-definite "
            "(U and V differ); apply force_positive_semidefinite first"
        )
    return candidate


_STRATEGIES = {
    "eigen": coloring_matrix_eigen,
    "cholesky": coloring_matrix_cholesky,
    "svd": coloring_matrix_svd,
}


def compute_coloring(
    covariance: np.ndarray,
    method: str = "eigen",
    *,
    psd_method: str = "clip",
) -> ColoringDecomposition:
    """Force positive semi-definiteness, then compute a coloring matrix.

    This is the composite of steps 3–5 of the algorithm in Section 4.4: the
    requested covariance is repaired if necessary (Section 4.2) and a
    coloring matrix of the repaired covariance is returned (Section 4.3).

    Parameters
    ----------
    covariance:
        Desired covariance matrix ``K``.
    method:
        Coloring strategy: ``"eigen"`` (paper, default), ``"cholesky"`` or
        ``"svd"``.  The Cholesky strategy receives the *forced-PSD* matrix
        and may still fail when that matrix is singular (positive
        semi-definite but not definite) — the residual weakness of the
        conventional approach.
    psd_method:
        Strategy passed to :func:`repro.core.psd.force_positive_semidefinite`
        (``"epsilon"`` replaces non-positive eigenvalues by its default
        ``epsilon``, 1e-6).

    Returns
    -------
    repro.linalg.ColoringDecomposition
    """
    if method not in _STRATEGIES:
        raise ValueError(
            f"unknown coloring method {method!r}; choose from {sorted(_STRATEGIES)}"
        )
    forcing = force_positive_semidefinite(covariance, method=psd_method)
    if method == "eigen":
        factor = coloring_matrix_eigen(forcing.matrix)
    elif method == "cholesky":
        factor = coloring_matrix_cholesky(forcing.matrix)
    else:
        factor = coloring_matrix_svd(forcing.matrix)

    return ColoringDecomposition(
        coloring_matrix=factor,
        effective_covariance=forcing.matrix,
        requested_covariance=forcing.requested,
        method=method,
        was_repaired=forcing.was_modified,
        negative_eigenvalue_count=int(forcing.negative_eigenvalues.size),
        # The forcing step already eigendecomposed the requested matrix; its
        # recorded minimum is bit-identical to recomputing it here.
        min_eigenvalue=float(forcing.extra["min_eigenvalue"]),
        extra={"psd_method": psd_method, "psd_frobenius_error": forcing.frobenius_error},
    )


def compute_coloring_batch(
    stack: np.ndarray,
    method: str = "eigen",
    *,
    psd_method: str = "clip",
    epsilon: float = 1e-6,
) -> List[ColoringDecomposition]:
    """Force PSD and color every covariance matrix in a ``(B, N, N)`` stack.

    Batched analogue of :func:`compute_coloring`: the PSD forcing and the
    coloring eigendecomposition / Cholesky factorization each run as one
    stacked numpy call.  Every returned
    :class:`repro.linalg.ColoringDecomposition` is bit-identical to the one
    :func:`compute_coloring` produces for the corresponding slice — the
    equivalence the batched engine relies on.  The ``"eigen"`` strategy
    eigendecomposes again only the slices the forcing repaired: for an
    unmodified slice the forcing already decomposed the very same matrix.

    The ``"svd"`` strategy falls back to a per-slice loop (its verification
    step is inherently per-matrix); ``"eigen"`` (the paper's method) and
    ``"cholesky"`` are fully batched.

    A PSD-forcing, eigen or Cholesky failure on one slice raises with that
    slice's index in its message and in the exception's ``stack_index``.
    """
    if method not in _STRATEGIES:
        raise ValueError(
            f"unknown coloring method {method!r}; choose from {sorted(_STRATEGIES)}"
        )
    arr = assert_matrix_stack(np.asarray(stack, dtype=complex), "covariance stack")
    forcings, requested_decomp = _force_psd_stack(arr, method=psd_method, epsilon=epsilon)
    forced_stack = np.stack([forcing.matrix for forcing in forcings])

    if method == "eigen":
        eigenvalues = requested_decomp.eigenvalues
        eigenvectors = requested_decomp.eigenvectors
        repaired = np.flatnonzero([forcing.was_modified for forcing in forcings])
        if repaired.size:
            decomp = batched_hermitian_eigendecomposition(forced_stack[repaired])
            eigenvalues = eigenvalues.copy()
            eigenvectors = eigenvectors.copy()
            eigenvalues[repaired] = decomp.eigenvalues
            eigenvectors[repaired] = decomp.eigenvectors
        scales = np.maximum(np.abs(eigenvalues[:, 0]), 1.0)
        tols = EIG_CLIP_TOL * scales
        for index in range(arr.shape[0]):
            if eigenvalues[index, -1] < -tols[index]:
                raise ColoringError(
                    "eigen coloring requires a positive semi-definite matrix "
                    f"(stack index {index}, min eigenvalue "
                    f"{eigenvalues[index, -1]:.3e}); apply "
                    "force_positive_semidefinite first",
                    stack_index=index,
                )
        eigenvalues = np.clip(eigenvalues, 0.0, None)
        factors = eigenvectors * np.sqrt(eigenvalues)[:, np.newaxis, :]
    elif method == "cholesky":
        factors = batched_cholesky_factor(forced_stack)
    else:  # svd
        factors = np.stack(
            [coloring_matrix_svd(forced_stack[index]) for index in range(arr.shape[0])]
        )

    return [
        ColoringDecomposition(
            # Copy the factor slice so a cached decomposition does not pin
            # the whole (B, N, N) stack's memory.
            coloring_matrix=factors[index].copy(),
            effective_covariance=forcing.matrix,
            requested_covariance=forcing.requested,
            method=method,
            was_repaired=forcing.was_modified,
            negative_eigenvalue_count=int(forcing.negative_eigenvalues.size),
            min_eigenvalue=float(forcing.extra["min_eigenvalue"]),
            extra={
                "psd_method": psd_method,
                "psd_frobenius_error": forcing.frobenius_error,
            },
        )
        for index, forcing in enumerate(forcings)
    ]
