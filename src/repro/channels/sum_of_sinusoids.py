"""Sum-of-sinusoids (Jakes/Clarke) Rayleigh fading generator.

The classical alternative to the IDFT synthesis of Section 5 is the
sum-of-sinusoids construction that goes back to Clarke's scattering model and
Jakes' deterministic simulator: the fading process is the superposition of
``N_s`` plane waves with Doppler shifts ``f_m cos(alpha_n)`` and random
phases,

.. math::

    u[l] = \\sqrt{\\frac{\\sigma_g^2}{N_s}} \\sum_{n=1}^{N_s}
           e^{\\,i(2\\pi f_m \\cos(\\alpha_n)\\, l + \\phi_n)}.

With uniformly distributed arrival angles and i.i.d. phases the process is
asymptotically complex Gaussian with the Clarke autocorrelation
``J0(2 pi f_m d)``.  The implementation here follows the improved
"random arrival angle" variant (Pop–Beaulieu style): each realization draws
both the angles and the phases at random, which removes the stationarity
problems of Jakes' original deterministic angle grid.

The generator exposes the same block interface as
:class:`repro.channels.idft_generator.IDFTRayleighGenerator` so it can be
swapped into the real-time algorithm; the ``sos-vs-idft`` benchmark compares
the two substrates' autocorrelation accuracy and speed.  The IDFT method
remains the paper's (and the default) choice — the SoS generator is only
asymptotically Gaussian in the number of sinusoids, which shows up as a
slightly heavier envelope-distribution error for small ``N_s``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import DopplerError, SpecificationError
from ..random import ensure_rng
from ..types import ComplexArray, SeedLike

__all__ = ["SumOfSinusoidsGenerator"]


class SumOfSinusoidsGenerator:
    """Single-branch Rayleigh fading generator based on a sum of sinusoids.

    Parameters
    ----------
    n_points:
        Number of time samples per generated block.
    normalized_doppler:
        Normalized maximum Doppler frequency ``f_m`` in ``(0, 0.5)``.
    n_sinusoids:
        Number of superposed plane waves ``N_s`` (default 64; accuracy of the
        Gaussian approximation improves with ``N_s``).
    output_variance:
        Target variance ``sigma_g^2`` of the complex samples (default 1).
    rng:
        Seed or generator for the random angles and phases.
    """

    def __init__(
        self,
        n_points: int,
        normalized_doppler: float,
        n_sinusoids: int = 64,
        output_variance: float = 1.0,
        rng: SeedLike = None,
    ) -> None:
        if n_points < 1:
            raise SpecificationError(f"n_points must be >= 1, got {n_points}")
        if not 0.0 < float(normalized_doppler) < 0.5:
            raise DopplerError(
                f"normalized_doppler must lie in (0, 0.5), got {normalized_doppler}"
            )
        if n_sinusoids < 4:
            raise SpecificationError(
                f"n_sinusoids must be at least 4 for a usable Gaussian approximation, "
                f"got {n_sinusoids}"
            )
        if output_variance <= 0:
            raise SpecificationError(
                f"output_variance must be positive, got {output_variance}"
            )
        self._n_points = int(n_points)
        self._normalized_doppler = float(normalized_doppler)
        self._n_sinusoids = int(n_sinusoids)
        self._output_variance = float(output_variance)
        self._rng = ensure_rng(rng)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_points(self) -> int:
        """Samples per generated block."""
        return self._n_points

    @property
    def normalized_doppler(self) -> float:
        """Normalized maximum Doppler frequency ``f_m``."""
        return self._normalized_doppler

    @property
    def n_sinusoids(self) -> int:
        """Number of superposed sinusoids ``N_s``."""
        return self._n_sinusoids

    @property
    def output_variance(self) -> float:
        """Target variance ``sigma_g^2`` of the output samples."""
        return self._output_variance

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #
    def generate_block(self, rng: Optional[SeedLike] = None) -> ComplexArray:
        """Generate one block of ``n_points`` complex fading samples.

        Each call draws fresh random arrival angles and phases, so different
        blocks are independent realizations of the same Clarke process.
        """
        gen = self._rng if rng is None else ensure_rng(rng)
        angles = gen.uniform(0.0, 2.0 * np.pi, self._n_sinusoids)
        phases = gen.uniform(0.0, 2.0 * np.pi, self._n_sinusoids)
        doppler_per_wave = 2.0 * np.pi * self._normalized_doppler * np.cos(angles)

        time_indices = np.arange(self._n_points)
        # (n_sinusoids, n_points) phase matrix -> sum over waves.
        arguments = np.outer(doppler_per_wave, time_indices) + phases[:, np.newaxis]
        samples = np.exp(1j * arguments).sum(axis=0)
        return np.sqrt(self._output_variance / self._n_sinusoids) * samples
