"""Baseline [6]: Sorooshyari & Daut's method.

Sorooshyari & Daut (PIMRC 2003) generate ``N`` equal-power correlated
Rayleigh envelopes and relax the positive-definiteness requirement by
approximating an indefinite covariance matrix with a positive-definite one:
every non-positive eigenvalue is replaced by a small ``epsilon > 0`` so that
a Cholesky factorization is always possible.

For real-time (Doppler-shaped) generation they feed the outputs of
Young–Beaulieu IDFT Rayleigh generators into their coloring step while
assuming those outputs have **unit variance**.  In reality the Doppler filter
changes the variance to ``sigma_g^2 = 2 sigma_orig^2 / M^2 * sum F[k]^2``
(Eq. 19 of the paper), so the realized covariance is scaled by that factor —
the central defect the proposed algorithm fixes by measuring and compensating
the filter-output variance.

:meth:`SorooshyariDautGenerator.generate` reproduces the snapshot mode with
the epsilon PSD approximation and Cholesky coloring.  The real-time defect is
measured by the ``variance-compensation`` experiment, which runs the Doppler
mode with and without the compensation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.covariance import CovarianceSpec
from ..core.psd import force_positive_semidefinite
from ..linalg import cholesky_factor, try_cholesky
from ..random import complex_gaussian
from ..types import ComplexArray, SeedLike
from .base import BaselineGenerator, require_equal_powers

__all__ = ["SorooshyariDautGenerator"]

#: Replacement value for non-positive eigenvalues (the method's
#: positive-definiteness repair).
_EPSILON = 1e-6


class SorooshyariDautGenerator(BaselineGenerator):
    """Equal-power generator with epsilon PSD approximation and Cholesky coloring.

    Parameters
    ----------
    spec:
        Covariance specification (or raw complex covariance matrix) with
        equal branch powers.
    rng:
        Seed or generator.
    """

    name = "sorooshyari-daut"
    reference = "[6]"

    def __init__(self, spec, *, rng: SeedLike = None) -> None:
        super().__init__(rng=rng)
        if not isinstance(spec, CovarianceSpec):
            spec = CovarianceSpec.from_covariance_matrix(np.asarray(spec, dtype=complex))
        self._spec = spec
        self._power = require_equal_powers(spec.gaussian_variances, self.name)

        # Epsilon repair (their approximation), then Cholesky (their coloring).
        forcing = force_positive_semidefinite(spec.matrix, method="epsilon", epsilon=_EPSILON)
        self._effective_covariance = forcing.matrix
        result = try_cholesky(self._effective_covariance, allow_jitter=True)
        if not result.success:
            # Mirror the documented MATLAB behaviour: the factorization can
            # still fail through round-off; surface it as the dedicated error.
            self._coloring = cholesky_factor(self._effective_covariance)
        else:
            self._coloring = result.factor

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_branches(self) -> int:
        """Number of correlated branches."""
        return self._spec.n_branches

    @property
    def effective_covariance(self) -> np.ndarray:
        """The (epsilon-repaired) covariance matrix actually targeted (copy)."""
        return self._effective_covariance.copy()

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #
    def generate(self, n_samples: int, rng: Optional[SeedLike] = None) -> ComplexArray:
        """Snapshot mode: ``(N, n_samples)`` correlated complex Gaussian samples."""
        n_samples = self._validate_n_samples(n_samples)
        gen = self._resolve_rng(rng)
        white = complex_gaussian((self.n_branches, n_samples), variance=1.0, rng=gen)
        return self._coloring @ white
