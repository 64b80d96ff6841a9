"""Linear-algebra substrate.

This subpackage implements every matrix-analytic operation the paper relies
on — Hermitian / positive-semi-definiteness checks, Hermitian
eigendecomposition, Cholesky factorization with explicit failure reporting,
and nearest-PSD approximations — as thin, well-tested wrappers with
consistent tolerances from :mod:`repro.config`.

The higher-level :mod:`repro.core` modules build the paper's coloring-matrix
and forced-PSD procedures on top of these primitives.
"""

from .checks import (
    is_hermitian,
    is_positive_semidefinite,
    hermitian_part,
    assert_hermitian,
    assert_square,
    min_eigenvalue,
)
from .eigen import hermitian_eigendecomposition, EigenDecomposition, reconstruct_from_eigen
from .cholesky import cholesky_factor, try_cholesky, CholeskyResult
from .nearest import (
    clip_negative_eigenvalues,
    replace_nonpositive_eigenvalues,
    nearest_psd_higham,
    frobenius_distance,
)
from .decomposition import ColoringDecomposition
from .batched import (
    BatchedEigenDecomposition,
    assert_matrix_stack,
    batched_hermitian_part,
    batched_hermitian_eigendecomposition,
    batched_cholesky_factor,
    batched_reconstruct_from_eigen,
)

__all__ = [
    "is_hermitian",
    "is_positive_semidefinite",
    "hermitian_part",
    "assert_hermitian",
    "assert_square",
    "min_eigenvalue",
    "hermitian_eigendecomposition",
    "EigenDecomposition",
    "reconstruct_from_eigen",
    "cholesky_factor",
    "try_cholesky",
    "CholeskyResult",
    "clip_negative_eigenvalues",
    "replace_nonpositive_eigenvalues",
    "nearest_psd_higham",
    "frobenius_distance",
    "ColoringDecomposition",
    "BatchedEigenDecomposition",
    "assert_matrix_stack",
    "batched_hermitian_part",
    "batched_hermitian_eigendecomposition",
    "batched_cholesky_factor",
    "batched_reconstruct_from_eigen",
]
