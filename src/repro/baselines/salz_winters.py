"""Baseline [1]: Salz & Winters' real-composite coloring method.

Salz & Winters (IEEE Trans. Veh. Technol. 1994) generate the fades of an
``M``-element antenna array by stacking the real and imaginary parts of the
``M`` complex Gaussians into a single vector of ``2M`` real Gaussian
variables, forming its ``2M x 2M`` real covariance matrix from the
closed-form spatial covariances, and coloring a vector of independent real
Gaussians with a matrix square root of that covariance.

Shortcomings reproduced here (as analyzed in Section 1 of the paper):

* the construction assumes **equal branch powers** — the covariance blocks
  are all scaled by the single ``sigma^2/2`` of the array model;
* when the desired covariance matrix is **not positive semi-definite**, the
  real square root does not exist (the coloring matrix becomes complex), so
  the method cannot realize the requested correlation.  This implementation
  raises :class:`repro.exceptions.NotPositiveSemiDefiniteError` in that case
  instead of silently producing wrong statistics.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.covariance import CovarianceSpec, decompose_covariance_entry
from ..exceptions import NotPositiveSemiDefiniteError
from ..types import ComplexArray, SeedLike
from .base import BaselineGenerator, require_equal_powers

__all__ = ["SalzWintersGenerator"]


class SalzWintersGenerator(BaselineGenerator):
    """Equal-power correlated Rayleigh generator via a 2N-dimensional real coloring.

    Parameters
    ----------
    spec:
        Covariance specification (or raw complex covariance matrix).  All
        branch powers must be equal.
    rng:
        Seed or generator.
    """

    name = "salz-winters"
    reference = "[1]"

    def __init__(self, spec, rng: SeedLike = None) -> None:
        super().__init__(rng=rng)
        if not isinstance(spec, CovarianceSpec):
            spec = CovarianceSpec.from_covariance_matrix(np.asarray(spec, dtype=complex))
        self._spec = spec
        self._power = require_equal_powers(spec.gaussian_variances, self.name)
        self._real_covariance = self._build_real_covariance(spec)
        self._coloring = self._real_square_root(self._real_covariance)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _build_real_covariance(spec: CovarianceSpec) -> np.ndarray:
        """Covariance of the stacked real vector ``[x_1..x_N, y_1..y_N]``.

        The blocks are::

            [[Rxx, Rxy],
             [Ryx, Ryy]]

        with diagonals ``sigma^2 / 2`` (the per-dimension variance) and the
        off-diagonal components recovered from the complex covariance under
        the circular-symmetry conditions (``Rxx = Ryy``, ``Rxy = -Ryx``).
        """
        n = spec.n_branches
        rxx = np.zeros((n, n))
        rxy = np.zeros((n, n))
        for k in range(n):
            for j in range(n):
                if k == j:
                    continue
                xx, _, xy, _ = decompose_covariance_entry(spec.matrix[k, j])
                rxx[k, j] = xx
                rxy[k, j] = xy
        per_dim = np.real(np.diag(spec.matrix)) / 2.0
        np.fill_diagonal(rxx, per_dim)
        composite = np.block([[rxx, rxy], [rxy.T, rxx]])
        return composite

    @staticmethod
    def _real_square_root(matrix: np.ndarray) -> np.ndarray:
        """Symmetric square root of a real covariance matrix.

        Raises
        ------
        NotPositiveSemiDefiniteError
            When the matrix has negative eigenvalues, in which case the real
            square root does not exist and the method of [1] breaks down.
        """
        eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (matrix + matrix.T))
        min_eig = float(np.min(eigenvalues))
        scale = max(float(np.max(np.abs(eigenvalues))), 1.0)
        if min_eig < -1e-10 * scale:
            raise NotPositiveSemiDefiniteError(
                "the Salz-Winters construction requires a positive semi-definite "
                f"covariance matrix (min eigenvalue {min_eig:.3e}); the coloring matrix "
                "would be complex and the requested correlation cannot be realized",
                min_eigenvalue=min_eig,
            )
        return eigenvectors * np.sqrt(np.clip(eigenvalues, 0.0, None))

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #
    @property
    def n_branches(self) -> int:
        """Number of correlated branches."""
        return self._spec.n_branches

    def generate(self, n_samples: int, rng: Optional[SeedLike] = None) -> ComplexArray:
        """Generate ``(N, n_samples)`` correlated complex Gaussian samples."""
        n_samples = self._validate_n_samples(n_samples)
        gen = self._resolve_rng(rng)
        n = self.n_branches
        white = gen.standard_normal((2 * n, n_samples))
        colored = self._coloring @ white
        return colored[:n] + 1j * colored[n:]
