"""Baseline [5]: Natarajan, Nassar & Chandrasekhar's arbitrary-power method.

Natarajan et al. (IEEE Commun. Lett. 2000) extended the Cholesky-coloring
approach to envelopes with arbitrary (unequal) powers, targeting spread
spectrum applications.  Two restrictions remain, both reproduced here exactly
as the paper describes them:

* the covariances of the complex Gaussian branches are **forced to be
  real** (Eq. 8 of [5]) — the imaginary parts of the requested covariance
  entries are discarded, so any scenario whose physical covariances are
  genuinely complex (e.g. the paper's Eq. 22 spectral-correlation matrix) is
  realized incorrectly;
* the (realified) covariance matrix must still be **positive definite** for
  the Cholesky factorization to exist.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.covariance import CovarianceSpec
from ..linalg import cholesky_factor
from ..random import complex_gaussian
from ..types import ComplexArray, SeedLike
from .base import BaselineGenerator

__all__ = ["NatarajanGenerator"]


class NatarajanGenerator(BaselineGenerator):
    """Arbitrary-power, Cholesky-based generator with real-forced covariances.

    Parameters
    ----------
    spec:
        Covariance specification (or raw complex covariance matrix).  Unequal
        powers are supported; the off-diagonal covariances are replaced by
        their real parts before factorization (the method's documented
        limitation).
    rng:
        Seed or generator.

    Raises
    ------
    repro.exceptions.CholeskyError
        If the real-forced covariance matrix is not positive definite.
    """

    name = "natarajan"
    reference = "[5]"

    def __init__(self, spec, rng: SeedLike = None) -> None:
        super().__init__(rng=rng)
        if not isinstance(spec, CovarianceSpec):
            spec = CovarianceSpec.from_covariance_matrix(np.asarray(spec, dtype=complex))
        self._spec = spec
        # Eq. (8) of [5]: the covariances are taken to be real.
        self._realified = np.real(spec.matrix).astype(float)
        self._coloring = cholesky_factor(self._realified)

    @property
    def n_branches(self) -> int:
        """Number of correlated branches."""
        return self._spec.n_branches

    def generate(self, n_samples: int, rng: Optional[SeedLike] = None) -> ComplexArray:
        """Generate ``(N, n_samples)`` correlated complex Gaussian samples."""
        n_samples = self._validate_n_samples(n_samples)
        gen = self._resolve_rng(rng)
        white = complex_gaussian((self.n_branches, n_samples), variance=1.0, rng=gen)
        return self._coloring @ white
