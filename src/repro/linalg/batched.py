"""Batched linear algebra on stacks of covariance matrices.

The batched simulation engine (:mod:`repro.engine`) stacks many same-shape
covariance matrices into one ``(B, N, N)`` array and decomposes them with a
*single* call into numpy's stacked LAPACK dispatch.  Numpy's ``eigh``,
``cholesky`` and ``matmul`` gufuncs run the same LAPACK/BLAS routine on every
2-D slice of a stack, so every function in this module is **bit-identical**,
slice for slice, to its single-matrix counterpart in
:mod:`repro.linalg.eigen` / :mod:`repro.linalg.cholesky` /
:mod:`repro.core.psd` — the property the engine's batch/single equivalence
guarantee rests on (and that the test-suite verifies).

Heavy ``O(N^3)`` work (eigendecomposition, factorization, reconstruction) is
batched; cheap per-slice scalar diagnostics (Frobenius errors, eigenvalue
counts) are computed in ordinary Python loops, exactly as the single-matrix
code paths compute them.

Every stacked ``eigh`` of the package passes through one function,
:func:`_eigh_hermitian_stack`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..config import EIG_CLIP_TOL, PSD_TOL
from ..exceptions import CholeskyError, CovarianceError, DimensionError

__all__ = [
    "BatchedEigenDecomposition",
    "assert_matrix_stack",
    "batched_hermitian_part",
    "batched_hermitian_eigendecomposition",
    "batched_cholesky_factor",
    "batched_reconstruct_from_eigen",
]


def assert_matrix_stack(stack: np.ndarray, name: str = "matrix stack") -> np.ndarray:
    """Validate that ``stack`` is a ``(B, N, N)`` array of square matrices.

    Raises
    ------
    DimensionError
        If the array is not three-dimensional with square trailing matrices.
    """
    arr = np.asarray(stack)
    if arr.ndim != 3:
        raise DimensionError(f"{name} must be 3-D (B, N, N), got ndim={arr.ndim}")
    if arr.shape[1] != arr.shape[2]:
        raise DimensionError(f"{name} matrices must be square, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DimensionError(f"{name} must be non-empty, got shape {arr.shape}")
    return arr


def batched_hermitian_part(stack: np.ndarray) -> np.ndarray:
    """Return the Hermitian part ``(K + K^H)/2`` of every matrix in a stack."""
    arr = assert_matrix_stack(stack)
    return 0.5 * (arr + arr.conj().transpose(0, 2, 1))


@dataclass(frozen=True)
class BatchedEigenDecomposition:
    """Stacked Hermitian eigendecompositions ``K_b = V_b diag(w_b) V_b^H``.

    Attributes
    ----------
    eigenvalues:
        ``(B, N)`` real eigenvalues, each row sorted in descending order
        (matching :class:`repro.linalg.EigenDecomposition`).
    eigenvectors:
        ``(B, N, N)`` matrices whose columns are the corresponding
        orthonormal eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def batch_size(self) -> int:
        """Number of matrices in the stack."""
        return int(self.eigenvalues.shape[0])

    @property
    def size(self) -> int:
        """Dimension of each decomposed matrix."""
        return int(self.eigenvalues.shape[1])

    @property
    def min_eigenvalues(self) -> np.ndarray:
        """Per-matrix smallest eigenvalue, shape ``(B,)``."""
        return self.eigenvalues[:, -1]

    @property
    def max_eigenvalues(self) -> np.ndarray:
        """Per-matrix largest eigenvalue, shape ``(B,)``."""
        return self.eigenvalues[:, 0]


def batched_hermitian_eigendecomposition(stack: np.ndarray) -> BatchedEigenDecomposition:
    """Eigendecompose every (nearly) Hermitian matrix in a ``(B, N, N)`` stack.

    One ``np.linalg.eigh`` call on the symmetrized stack; each slice of the
    result is bit-identical to
    :func:`repro.linalg.eigen.hermitian_eigendecomposition` applied to the
    corresponding single matrix, including the descending eigenvalue order.

    Raises
    ------
    CovarianceError
        If ``eigh`` does not converge; ``stack_index`` names the first
        slice it fails on.
    """
    return _eigh_hermitian_stack(batched_hermitian_part(stack))


def _eigh_hermitian_stack(herm: np.ndarray) -> BatchedEigenDecomposition:
    """:func:`batched_hermitian_eigendecomposition` of an already-Hermitian stack."""
    eigenvalues, eigenvectors = _per_stack(np.linalg.eigh, herm, "eigendecomposition")
    # eigh returns ascending order per slice; flip to descending with the
    # same argsort-and-reverse the single-matrix wrapper uses.
    order = np.argsort(eigenvalues, axis=-1)[:, ::-1]
    return BatchedEigenDecomposition(
        eigenvalues=np.ascontiguousarray(np.take_along_axis(eigenvalues, order, axis=-1)),
        eigenvectors=np.ascontiguousarray(
            np.take_along_axis(eigenvectors, order[:, np.newaxis, :], axis=-1)
        ),
    )


def _per_stack(fn, herm: np.ndarray, what: str):
    """``fn(herm)``, with a ``LinAlgError`` named after its first failing slice.

    A stacked LAPACK call fails as a whole; re-running it slice by slice
    finds the offender, so the caller gets a :class:`CovarianceError` whose
    ``stack_index`` it can map back to its own input.
    """
    try:
        return fn(herm)
    except np.linalg.LinAlgError as exc:
        for index in range(herm.shape[0]):
            try:
                fn(herm[index : index + 1])
            except np.linalg.LinAlgError:
                raise CovarianceError(
                    f"{what} did not converge at stack index {index} ({exc})",
                    stack_index=index,
                ) from exc
        raise CovarianceError(f"{what} failed on the stack ({exc})") from exc


def batched_cholesky_factor(stack: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factors of every matrix in a stack.

    Raises
    ------
    CholeskyError
        If any matrix in the stack is not positive definite; the message and
        ``stack_index`` name the first offending slice.
    """
    herm = batched_hermitian_part(stack)
    try:
        return np.linalg.cholesky(herm)
    except np.linalg.LinAlgError as exc:
        # The stacked call fails as a whole; find the first offender so the
        # error is as informative as the single-matrix path's.
        for index in range(herm.shape[0]):
            try:
                np.linalg.cholesky(herm[index])
            except np.linalg.LinAlgError:
                raise CholeskyError(
                    f"Cholesky factorization failed for stack index {index}: matrix is "
                    f"not positive definite ({exc}). The eigendecomposition coloring "
                    "path does not have this requirement.",
                    stack_index=index,
                ) from exc
        raise CholeskyError(  # pragma: no cover - stacked failure implies a slice fails
            f"Cholesky factorization failed on the stack ({exc})"
        ) from exc


def batched_reconstruct_from_eigen(
    eigenvalues: np.ndarray, eigenvectors: np.ndarray
) -> np.ndarray:
    """Return ``V_b diag(w_b) V_b^H`` for every matrix in the stack."""
    eigenvalues = np.asarray(eigenvalues)
    eigenvectors = assert_matrix_stack(eigenvectors, "eigenvector stack")
    if eigenvalues.shape != eigenvectors.shape[:2]:
        raise DimensionError(
            f"eigenvalues must have shape {eigenvectors.shape[:2]}, got {eigenvalues.shape}"
        )
    scaled = eigenvectors * eigenvalues[:, np.newaxis, :]
    adjoint = eigenvectors.conj().transpose(0, 2, 1)
    return np.matmul(scaled, adjoint)


def _force_psd_stack(
    stack: np.ndarray,
    method: str = "clip",
    *,
    epsilon: float = 1e-6,
) -> Tuple[List["PSDForcingResult"], BatchedEigenDecomposition]:
    """Force every matrix in a ``(B, N, N)`` stack positive semi-definite.

    Batched analogue of :func:`repro.core.psd.force_positive_semidefinite`:
    the eigendecomposition, the reconstructions and the final PSD check run
    as single stacked calls, and each returned
    :class:`repro.core.psd.PSDForcingResult` is bit-identical to the one the
    single-matrix function produces for that slice.  Under ``"clip"`` only
    the slices that actually have a negative eigenvalue are reconstructed;
    the others keep the caller's matrix bit for bit.  The ``"higham"``
    strategy iterates per matrix (alternating projections do not batch) and
    only pays the loop for matrices that actually need repair.

    The second value is the stacked eigendecomposition of the *requested*
    matrices.  For every slice the forcing left unmodified (its
    ``matrix`` is the requested matrix byte for byte) it is exactly the
    decomposition a coloring step would compute again, so
    :func:`repro.core.coloring.compute_coloring_batch` reuses those rows.

    Raises
    ------
    CovarianceError
        If a slice's Hermitian part is not finite, its decomposition fails,
        or a repaired slice is still not positive semi-definite; the error
        names the first such slice in its message and ``stack_index``.
    """
    from ..core.psd import PSDForcingResult, force_positive_semidefinite

    arr = assert_matrix_stack(np.asarray(stack, dtype=complex))
    if method not in ("clip", "epsilon", "higham"):
        raise ValueError(
            f"unknown PSD forcing method {method!r}; choose from ('clip', 'epsilon', 'higham')"
        )

    herm = batched_hermitian_part(arr)
    # A finite matrix whose Hermitian part overflows (entries near the
    # float maximum) has nothing LAPACK can decompose; name it here rather
    # than let eigh fail on the whole stack.  Cold path only: a cached
    # decomposition never reaches this function.
    overflowed = np.flatnonzero(~np.isfinite(herm).all(axis=(1, 2)))
    if overflowed.size:
        index = int(overflowed[0])
        raise CovarianceError(
            f"PSD forcing with method {method!r} cannot repair the matrix at "
            f"stack index {index}; its Hermitian part is not finite",
            stack_index=index,
        )
    decomp = _eigh_hermitian_stack(herm)
    scales = np.maximum(np.abs(decomp.max_eigenvalues), 1.0)
    negative_mask = decomp.eigenvalues < (-EIG_CLIP_TOL * scales)[:, np.newaxis]
    already_psd = ~np.any(negative_mask, axis=-1)

    if method == "higham":
        # No batched formulation: reuse the full single-matrix implementation
        # (iterative), which runs its own PSD check.
        results = []
        for index in range(arr.shape[0]):
            try:
                results.append(
                    force_positive_semidefinite(arr[index], method="higham", epsilon=epsilon)
                )
            except CovarianceError as exc:
                raise CovarianceError(
                    f"PSD forcing with method 'higham' failed at stack index "
                    f"{index}: {exc}",
                    stack_index=index,
                ) from exc
        return results, decomp

    if method == "clip":
        # Keep the caller's matrix bit-for-bit where nothing needs fixing and
        # reconstruct only the slices that do.
        repaired_stack = arr.copy()
        repair = np.flatnonzero(~already_psd)
        if repair.size:
            eigenvalues = decomp.eigenvalues[repair]
            clipped = np.where(eigenvalues >= 0.0, eigenvalues, 0.0)
            repaired_stack[repair] = batched_reconstruct_from_eigen(
                clipped, decomp.eigenvectors[repair]
            )
    else:  # epsilon
        replaced = np.where(decomp.eigenvalues > 0.0, decomp.eigenvalues, epsilon)
        repaired_stack = batched_reconstruct_from_eigen(replaced, decomp.eigenvectors)

    # The single-matrix PSD check (``is_positive_semidefinite``) on every
    # slice at once: numpy's stacked eigvalsh runs the same LAPACK routine
    # per slice, and the negated ``>=`` fails NaN slices as the check does.
    repaired_eigenvalues = _per_stack(
        np.linalg.eigvalsh, batched_hermitian_part(repaired_stack), "PSD check"
    )
    tolerances = PSD_TOL * np.maximum(
        np.max(np.abs(repaired_eigenvalues), axis=-1), 1.0
    )
    failed = np.flatnonzero(~(np.min(repaired_eigenvalues, axis=-1) >= -tolerances))
    if failed.size:
        index = int(failed[0])
        raise CovarianceError(
            f"PSD forcing with method {method!r} failed to produce a positive "
            f"semi-definite matrix at stack index {index}; this indicates a "
            "severely ill-conditioned input",
            stack_index=index,
        )

    from .nearest import frobenius_distance

    results: List[PSDForcingResult] = []
    for index in range(arr.shape[0]):
        requested = arr[index]
        # Copy the slice so the result does not pin the whole stack's
        # memory (results are cached and can long outlive the batch).
        repaired = repaired_stack[index].copy()
        extra = {"min_eigenvalue": float(decomp.min_eigenvalues[index])}
        if method == "epsilon":
            extra["epsilon"] = epsilon
        results.append(
            PSDForcingResult(
                matrix=repaired,
                requested=requested.copy(),
                method=method,
                was_modified=bool(not already_psd[index]) or method == "epsilon",
                negative_eigenvalues=decomp.eigenvalues[index][negative_mask[index]].copy(),
                # Per slice: a stacked Frobenius norm sums in another order.
                frobenius_error=frobenius_distance(repaired, requested),
                extra=extra,
            )
        )
    return results, decomp
