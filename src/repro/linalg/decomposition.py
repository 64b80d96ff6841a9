"""Common result type for coloring-matrix computations.

A coloring matrix ``L`` of a covariance matrix ``K`` satisfies
``L L^H = K``.  Different strategies (eigendecomposition, Cholesky, SVD)
produce different ``L`` with different shapes/structure; the
:class:`ColoringDecomposition` dataclass records which strategy was used,
whether the covariance had to be repaired (forced PSD), and how far the
repaired matrix is from the requested one — the diagnostics the paper's
discussion revolves around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from .nearest import frobenius_distance

__all__ = ["ColoringDecomposition"]


@dataclass(frozen=True)
class ColoringDecomposition:
    """A coloring matrix together with provenance diagnostics.

    Attributes
    ----------
    coloring_matrix:
        Matrix ``L`` with ``L L^H = effective_covariance``.
    effective_covariance:
        The covariance matrix actually realized (the forced-PSD matrix
        ``K_bar`` of the paper).  Equals ``requested_covariance`` whenever the
        request was already positive semi-definite.
    requested_covariance:
        The covariance matrix the caller asked for.
    method:
        Name of the strategy used (``"eigen"``, ``"cholesky"``, ``"svd"``).
    was_repaired:
        ``True`` if negative eigenvalues had to be clipped / replaced.
    negative_eigenvalue_count:
        Number of genuinely negative eigenvalues found in the request.
    min_eigenvalue:
        Smallest eigenvalue of the requested covariance.
    extra:
        Strategy-specific diagnostics.
    """

    coloring_matrix: np.ndarray
    effective_covariance: np.ndarray
    requested_covariance: np.ndarray
    method: str
    was_repaired: bool
    negative_eigenvalue_count: int
    min_eigenvalue: float
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Number of branches (rows of the coloring matrix)."""
        return int(self.coloring_matrix.shape[0])

    def reconstruction(self) -> np.ndarray:
        """Return ``L L^H`` (should equal ``effective_covariance``)."""
        return self.coloring_matrix @ self.coloring_matrix.conj().T

    def reconstruction_error(self) -> float:
        """Frobenius distance between ``L L^H`` and the effective covariance."""
        return frobenius_distance(self.reconstruction(), self.effective_covariance)
