"""Snapshot generator: the algorithm of Section 4.4 (steps 1–7).

Given a :class:`repro.core.covariance.CovarianceSpec` (or a bare covariance
matrix), :class:`RayleighFadingGenerator` produces blocks of ``N`` correlated
complex Gaussian samples — and their Rayleigh envelopes — whose covariance
matrix matches the (forced-PSD) desired covariance:

1. the desired per-branch Gaussian powers are fixed (converted from envelope
   powers through Eq. 11 when necessary — handled by ``CovarianceSpec``),
2. the covariance matrix ``K`` is assembled from the pairwise covariances
   (Eq. 12–13 — also ``CovarianceSpec``),
3. ``K`` is eigendecomposed and 4. negative eigenvalues are clipped
   (Section 4.2),
5. the coloring matrix ``L = V sqrt(Lambda)`` is formed (Section 4.3),
6. a vector ``W`` of independent complex Gaussian samples with *arbitrary,
   equal* variance ``sigma_w^2`` is drawn, and
7. the correlated vector is ``Z = L W / sigma_w``.

Consecutive output samples are independent in time; use
:class:`repro.core.realtime.RealTimeRayleighGenerator` when Doppler-shaped
temporal correlation is required.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..exceptions import GenerationError, PowerError
from ..linalg import ColoringDecomposition
from ..random import complex_gaussian, ensure_rng
from ..types import ComplexArray, EnvelopeBlock, GaussianBlock, SeedLike
from .coloring import compute_coloring
from .covariance import CovarianceSpec

__all__ = ["RayleighFadingGenerator"]


class RayleighFadingGenerator:
    """Generate correlated Rayleigh envelopes at independent time instants.

    Parameters
    ----------
    spec:
        Either a :class:`CovarianceSpec` or a raw complex covariance matrix
        ``K`` (in which case the branch powers are read off its diagonal).
    coloring_method:
        ``"eigen"`` (the paper's method, default), ``"cholesky"`` or
        ``"svd"``.
    psd_method:
        How non-PSD requests are repaired: ``"clip"`` (paper, default),
        ``"epsilon"`` or ``"higham"``.
    sample_variance:
        The arbitrary common variance ``sigma_w^2`` of the white complex
        Gaussian samples drawn in step 6.  The output is normalized by
        ``sigma_w`` in step 7, so its value does not affect the statistics;
        it is configurable because the real-time algorithm of Section 5 needs
        it to equal the Doppler-filter output variance of Eq. (19).
    rng:
        Seed or generator.

    The generator decomposes its covariance itself with
    :func:`repro.core.coloring.compute_coloring` and shares no state with
    any cache, so it is an independent reference for the batched engine.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import CovarianceSpec, RayleighFadingGenerator
    >>> K = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    >>> gen = RayleighFadingGenerator(CovarianceSpec.from_covariance_matrix(K), rng=7)
    >>> block = gen.generate_envelopes(10_000)
    >>> block.envelopes.shape
    (2, 10000)
    """

    def __init__(
        self,
        spec: Union[CovarianceSpec, np.ndarray],
        *,
        coloring_method: str = "eigen",
        psd_method: str = "clip",
        sample_variance: float = 1.0,
        rng: SeedLike = None,
    ) -> None:
        if not isinstance(spec, CovarianceSpec):
            spec = CovarianceSpec.from_covariance_matrix(np.asarray(spec, dtype=complex))
        if sample_variance <= 0 or not np.isfinite(sample_variance):
            raise PowerError(
                f"sample_variance must be positive and finite, got {sample_variance!r}"
            )
        self._spec = spec
        self._coloring = compute_coloring(
            spec.matrix, method=coloring_method, psd_method=psd_method
        )
        self._sample_variance = float(sample_variance)
        self._rng = ensure_rng(rng)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def spec(self) -> CovarianceSpec:
        """The covariance specification this generator realizes."""
        return self._spec

    @property
    def n_branches(self) -> int:
        """Number of correlated branches ``N``."""
        return self._spec.n_branches

    @property
    def coloring(self) -> ColoringDecomposition:
        """The coloring decomposition (with PSD-forcing diagnostics)."""
        return self._coloring

    @property
    def effective_covariance(self) -> np.ndarray:
        """The covariance matrix actually realized (``K_bar`` of the paper)."""
        return self._coloring.effective_covariance

    @property
    def sample_variance(self) -> float:
        """The white-sample variance ``sigma_w^2`` used in step 6."""
        return self._sample_variance

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #
    def color(self, white_samples: ComplexArray) -> ComplexArray:
        """Apply steps 6–7 to externally supplied white samples.

        Parameters
        ----------
        white_samples:
            Array of shape ``(N,)`` or ``(N, n_samples)`` of independent
            complex Gaussian samples, each with variance
            :attr:`sample_variance`.  The real-time generator feeds the
            Doppler-filtered IDFT outputs through this method.

        Returns
        -------
        numpy.ndarray
            ``Z = L W / sigma_w`` with the same trailing shape.
        """
        w = np.asarray(white_samples, dtype=complex)
        squeeze = False
        if w.ndim == 1:
            w = w[:, np.newaxis]
            squeeze = True
        if w.ndim != 2 or w.shape[0] != self.n_branches:
            raise GenerationError(
                f"white_samples must have shape ({self.n_branches},) or "
                f"({self.n_branches}, n_samples), got {np.asarray(white_samples).shape}"
            )
        colored = (self._coloring.coloring_matrix @ w) / np.sqrt(self._sample_variance)
        return colored[:, 0] if squeeze else colored

    def generate_gaussian(self, n_samples: int = 1, rng: Optional[SeedLike] = None) -> GaussianBlock:
        """Generate correlated complex Gaussian samples (steps 6–7).

        Parameters
        ----------
        n_samples:
            Number of independent time samples per branch.
        rng:
            Optional per-call override of the random stream.

        Returns
        -------
        GaussianBlock
            Samples of shape ``(N, n_samples)`` whose covariance is the
            effective (forced-PSD) covariance matrix.
        """
        if n_samples < 1:
            raise GenerationError(f"n_samples must be >= 1, got {n_samples}")
        gen = self._rng if rng is None else ensure_rng(rng)
        white = complex_gaussian(
            (self.n_branches, int(n_samples)), variance=self._sample_variance, rng=gen
        )
        colored = self.color(white)
        return GaussianBlock(
            samples=colored,
            variances=self._spec.gaussian_variances.copy(),
            metadata={
                "method": "snapshot",
                "coloring_method": self._coloring.method,
                "was_repaired": self._coloring.was_repaired,
            },
        )

    def generate_envelopes(self, n_samples: int = 1, rng: Optional[SeedLike] = None) -> EnvelopeBlock:
        """Generate correlated Rayleigh envelopes (the moduli of step 7's output)."""
        return self.generate_gaussian(n_samples=n_samples, rng=rng).envelopes()

    def generate(self, n_samples: int = 1, rng: Optional[SeedLike] = None) -> ComplexArray:
        """Shorthand returning only the complex sample array of shape ``(N, n_samples)``."""
        return self.generate_gaussian(n_samples=n_samples, rng=rng).samples
