"""Baseline [2]: Ertel & Reed's two-envelope generator.

Ertel & Reed (IEEE Commun. Lett. 1998) generate exactly **two** equal-power
Rayleigh envelopes with a prescribed envelope cross-correlation coefficient.
The construction draws two independent circular complex Gaussians ``g1, g2``
and forms

.. math::

    z_1 = g_1, \\qquad
    z_2 = \\rho_g\\, g_1 + \\sqrt{1 - |\\rho_g|^2}\\; g_2,

where ``rho_g`` is the complex correlation coefficient of the underlying
Gaussians; the envelope (power) correlation then equals ``|rho_g|^2`` (the
standard relation between Gaussian and Rayleigh-power correlation).

Shortcomings reproduced here, as listed in Section 1 of the paper:

* exactly two branches;
* equal powers only.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import SpecificationError
from ..random import complex_gaussian
from ..types import ComplexArray, SeedLike
from .base import BaselineGenerator

__all__ = ["ErtelReedGenerator"]


class ErtelReedGenerator(BaselineGenerator):
    """Two equal-power correlated Rayleigh envelopes.

    Parameters
    ----------
    envelope_correlation:
        Desired power/envelope correlation coefficient in ``[0, 1)``.
        Alternatively pass ``gaussian_correlation`` directly.
    gaussian_correlation:
        Complex correlation coefficient of the underlying Gaussians with
        ``|rho| < 1``; overrides ``envelope_correlation`` when given.
    power:
        Common complex-Gaussian power ``sigma_g^2`` of both branches.
    rng:
        Seed or generator.
    """

    name = "ertel-reed"
    reference = "[2]"

    def __init__(
        self,
        envelope_correlation: Optional[float] = None,
        *,
        gaussian_correlation: Optional[complex] = None,
        power: float = 1.0,
        rng: SeedLike = None,
    ) -> None:
        super().__init__(rng=rng)
        if power <= 0:
            raise SpecificationError(f"power must be positive, got {power}")
        if gaussian_correlation is None:
            if envelope_correlation is None:
                raise SpecificationError(
                    "provide either envelope_correlation or gaussian_correlation"
                )
            if not 0.0 <= envelope_correlation < 1.0:
                raise SpecificationError(
                    f"envelope_correlation must be in [0, 1), got {envelope_correlation}"
                )
            gaussian_correlation = complex(np.sqrt(envelope_correlation))
        rho = complex(gaussian_correlation)
        if abs(rho) >= 1.0:
            raise SpecificationError(
                f"|gaussian_correlation| must be < 1, got {abs(rho):.4f}"
            )
        self._rho = rho
        self._power = float(power)

    @property
    def n_branches(self) -> int:
        """Always 2 — the method's defining restriction."""
        return 2

    @property
    def gaussian_correlation(self) -> complex:
        """The complex Gaussian correlation coefficient being realized."""
        return self._rho

    def generate(self, n_samples: int, rng: Optional[SeedLike] = None) -> ComplexArray:
        """Generate ``(2, n_samples)`` correlated complex Gaussian samples."""
        n_samples = self._validate_n_samples(n_samples)
        gen = self._resolve_rng(rng)
        g1 = complex_gaussian(n_samples, variance=self._power, rng=gen)
        g2 = complex_gaussian(n_samples, variance=self._power, rng=gen)
        z1 = g1
        # Using conj(rho) as the mixing weight makes E{z1 conj(z2)} = rho * power,
        # i.e. the realized covariance matches covariance_matrix().
        z2 = np.conj(self._rho) * g1 + np.sqrt(1.0 - abs(self._rho) ** 2) * g2
        return np.vstack([z1, z2])
