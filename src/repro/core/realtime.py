"""Real-time generator with Doppler spectrum shaping (Section 5 of the paper).

The snapshot algorithm of Section 4.4 produces samples that are independent
from one time instant to the next.  Physical fading is band-limited by the
Doppler spread, so each branch must additionally exhibit the Clarke/Jakes
autocorrelation ``J0(2 pi f_m d)``.  The paper obtains this by replacing the
white samples of step 6 with the outputs of ``N`` independent Young–Beaulieu
IDFT Rayleigh generators (Fig. 3):

1. steps 1–5 of Section 4.4 produce the coloring matrix ``L``;
2. the IDFT block length ``M`` is chosen from the desired autocorrelation;
3. each branch ``j`` draws independent real Gaussian sequences ``A_j[k]``,
   ``B_j[k]`` with variance ``sigma_orig^2``;
4. they are weighted by the Doppler filter ``F[k]`` (Eq. 21);
5. an ``M``-point IDFT yields the branch sequence ``u_j[l]``;
6. the *output* variance ``sigma_g^2`` is computed from Eq. (19) — this is
   the variance-compensation step the method of [6] omits;
7. at each time instant ``l`` the vector ``W[l] = (u_1[l] ... u_N[l])^T`` is
   formed; and
8. the correlated vector is ``Z[l] = L W[l] / sigma_g``.

Setting ``compensate_variance=False`` reproduces the uncompensated behaviour
of Sorooshyari & Daut [6] (the white-sample variance is *assumed* to be 1
regardless of the filter), which the ``variance-compensation`` experiment
uses to demonstrate the resulting covariance error.

The branch substrate runs through the *batched* IDFT path
(:func:`repro.channels.idft_generator.batched_doppler_blocks`): all ``N``
branch blocks go through one stacked IDFT call instead of ``N`` separate
transforms.  The
samples are bit-identical to the historical per-branch loop, and identical
to a Doppler-mode plan entry of the batched engine with the same seed (this
generator *is* the engine's ``B = 1`` reference).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..channels.doppler import filter_output_variance, young_beaulieu_filter
from ..channels.idft_generator import batched_doppler_blocks
from ..exceptions import GenerationError
from ..random import ensure_rng, spawn_rngs
from ..types import EnvelopeBlock, GaussianBlock, SeedLike
from .covariance import CovarianceSpec
from .generator import RayleighFadingGenerator

__all__ = ["RealTimeRayleighGenerator"]


class RealTimeRayleighGenerator:
    """Generate N correlated, Doppler-shaped Rayleigh fading envelopes.

    Parameters
    ----------
    spec:
        Covariance specification (or raw covariance matrix) of the complex
        Gaussian branches.
    normalized_doppler:
        Normalized maximum Doppler frequency ``f_m = F_m / F_s`` in
        ``(0, 0.5)``.  The paper's simulations use ``f_m = 0.05``.
    n_points:
        IDFT block length ``M`` (also the number of correlated time samples
        produced per block).  The paper uses 4096.
    input_variance_per_dim:
        Variance ``sigma_orig^2`` of the real Gaussian sequences at the
        Doppler-filter inputs (paper: 1/2).
    compensate_variance:
        If ``True`` (default, the paper's algorithm) the coloring step is
        normalized by the filter-output variance of Eq. (19).  If ``False``
        the output variance is assumed to be 1 — the defect of [6].
    rng:
        Seed or generator; each branch receives an independent child stream.

    Like :class:`repro.core.generator.RayleighFadingGenerator`, the
    generator builds its filter and coloring itself and shares no state with
    any cache.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import CovarianceSpec, RealTimeRayleighGenerator
    >>> K = np.array([[1.0, 0.6], [0.6, 1.0]], dtype=complex)
    >>> gen = RealTimeRayleighGenerator(K, normalized_doppler=0.05, n_points=1024, rng=11)
    >>> block = gen.generate_envelopes()
    >>> block.envelopes.shape
    (2, 1024)
    """

    def __init__(
        self,
        spec: Union[CovarianceSpec, np.ndarray],
        *,
        normalized_doppler: float,
        n_points: int = 4096,
        input_variance_per_dim: float = 0.5,
        compensate_variance: bool = True,
        rng: SeedLike = None,
    ) -> None:
        if not isinstance(spec, CovarianceSpec):
            spec = CovarianceSpec.from_covariance_matrix(np.asarray(spec, dtype=complex))
        self._spec = spec
        self._n_points = int(n_points)
        self._normalized_doppler = float(normalized_doppler)
        self._input_variance = float(input_variance_per_dim)
        self._compensate_variance = bool(compensate_variance)

        # Design the Doppler filter once; all branches share it (the paper
        # assumes a common Doppler spectrum across branches).
        self._filter = young_beaulieu_filter(self._n_points, self._normalized_doppler)
        self._output_variance = filter_output_variance(self._filter, self._input_variance)
        effective_sample_variance = (
            self._output_variance if self._compensate_variance else 1.0
        )

        # The snapshot generator holds the coloring matrix and performs
        # steps 6-7 (its sample_variance is the sigma_g^2 of step 6).
        self._snapshot = RayleighFadingGenerator(
            spec,
            sample_variance=effective_sample_variance,
            rng=rng,
        )

        self._rng = ensure_rng(rng)
        self._branch_rngs = spawn_rngs(self._rng, spec.n_branches)

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
    def n_points(self) -> int:
        """IDFT block length ``M`` (samples per generated block)."""
        return self._n_points

    @property
    def normalized_doppler(self) -> float:
        """Normalized maximum Doppler frequency ``f_m``."""
        return self._normalized_doppler

    @property
    def doppler_filter(self) -> np.ndarray:
        """The shared Doppler filter coefficients ``F[k]`` (copy)."""
        return self._filter.copy()

    @property
    def filter_output_variance(self) -> float:
        """The theoretical filter-output variance ``sigma_g^2`` of Eq. (19)."""
        return self._output_variance

    @property
    def effective_covariance(self) -> np.ndarray:
        """The covariance matrix actually targeted by the coloring step."""
        return self._snapshot.effective_covariance

    @property
    def coloring(self):
        """The coloring decomposition (with PSD-forcing diagnostics)."""
        return self._snapshot.coloring

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #
    def generate_gaussian(self, n_blocks: int = 1) -> GaussianBlock:
        """Generate ``n_blocks`` blocks of correlated Doppler-shaped Gaussian samples.

        Returns
        -------
        GaussianBlock
            Samples of shape ``(N, n_blocks * M)``.  Within each block of
            ``M`` samples every branch has the Clarke/Jakes autocorrelation;
            across branches each time instant has the desired covariance.
        """
        if n_blocks < 1:
            raise GenerationError(f"n_blocks must be >= 1, got {n_blocks}")

        # All branch blocks through one stacked IDFT (each branch still
        # consumes only its own child stream, so the samples are
        # bit-identical to the historical per-branch, per-block loop).
        white = batched_doppler_blocks(
            self._filter,
            self._branch_rngs,
            n_blocks=int(n_blocks),
            input_variance_per_dim=self._input_variance,
        )

        colored = self._snapshot.color(white)
        return GaussianBlock(
            samples=colored,
            variances=self._spec.gaussian_variances.copy(),
            metadata={
                "method": "realtime",
                "normalized_doppler": self._normalized_doppler,
                "n_points": self._n_points,
                "filter_output_variance": self._output_variance,
                "compensate_variance": self._compensate_variance,
                "coloring_method": self._snapshot.coloring.method,
                "was_repaired": self._snapshot.coloring.was_repaired,
            },
        )

    def generate_envelopes(self, n_blocks: int = 1) -> EnvelopeBlock:
        """Generate correlated, Doppler-shaped Rayleigh envelopes."""
        return self.generate_gaussian(n_blocks=n_blocks).envelopes()

    def generate(self, n_blocks: int = 1) -> np.ndarray:
        """Shorthand returning only the complex sample array of shape ``(N, n_blocks * M)``."""
        return self.generate_gaussian(n_blocks=n_blocks).samples
