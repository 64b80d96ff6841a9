"""Spectral (frequency/time-delay) correlation model — Section 2 of the paper.

Jakes' model gives the covariances between the real and imaginary parts of
two zero-mean complex Gaussian fading processes observed at carrier
frequencies ``f_k`` and ``f_j`` with an arrival time delay ``tau_kj``
(Eq. 3–4):

.. math::

    R_{xx}^{k,j} = R_{yy}^{k,j}
        = \\frac{\\sigma^2 J_0(2\\pi F_m \\tau_{k,j})}
               {2\\,[1 + (\\Delta\\omega_{k,j}\\,\\sigma_\\tau)^2]},
    \\qquad
    R_{xy}^{k,j} = -R_{yx}^{k,j}
        = -\\Delta\\omega_{k,j}\\,\\sigma_\\tau\\, R_{xx}^{k,j},

with ``Delta omega_{k,j} = 2 pi (f_k - f_j)`` the angular frequency
separation, ``F_m`` the maximum Doppler frequency, and ``sigma_tau`` the rms
delay spread of the channel.  These expressions assume all processes share
the same multipath coefficient set and the same power ``sigma^2`` — the
restriction the generalized algorithm then lifts by accepting arbitrary
covariance inputs.

The module exposes :func:`spectral_covariance_components`, which evaluates
these covariances for every branch pair, and a
:class:`SpectralCorrelationModel` that applies it to an OFDM-style scenario, producing the component matrices consumed by
:func:`repro.core.covariance.build_covariance_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..exceptions import DimensionError, SpecificationError

__all__ = [
    "spectral_covariance_components",
    "SpectralCorrelationModel",
]


def spectral_covariance_components(
    powers: np.ndarray,
    max_doppler_hz: float,
    delays_s: np.ndarray,
    frequencies_hz: np.ndarray,
    rms_delay_spread_s: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate the four covariance component matrices for all branch pairs.

    Parameters
    ----------
    powers:
        Per-branch powers ``sigma_g_j^2`` (length N).  Jakes' closed forms
        assume equal powers; when unequal powers are supplied the common
        ``sigma^2`` of Eq. (3) is replaced, pairwise, by the geometric mean
        ``sqrt(sigma_k^2 sigma_j^2)``, the standard heteroscedastic
        extension that keeps the implied correlation *coefficients* equal to
        the equal-power case.
    max_doppler_hz:
        Maximum Doppler frequency ``F_m`` in Hz.
    delays_s:
        Symmetric ``(N, N)`` matrix of pairwise arrival time delays
        ``tau_{k,j}`` (the diagonal is ignored).
    frequencies_hz:
        Length-N carrier frequencies ``f_j``.
    rms_delay_spread_s:
        RMS delay spread ``sigma_tau``.

    Returns
    -------
    tuple of numpy.ndarray
        ``(Rxx, Ryy, Rxy, Ryx)``, each of shape ``(N, N)`` with zero
        diagonals (diagonal variances are handled separately by the
        covariance builder).
    """
    powers = np.asarray(powers, dtype=float)
    frequencies_hz = np.asarray(frequencies_hz, dtype=float)
    delays_s = np.asarray(delays_s, dtype=float)
    n = powers.shape[0]
    if powers.ndim != 1 or n < 1:
        raise DimensionError("powers must be a non-empty 1-D array")
    if np.any(powers <= 0):
        raise SpecificationError("all powers must be positive")
    if frequencies_hz.shape != (n,):
        raise DimensionError(
            f"frequencies must have shape ({n},), got {frequencies_hz.shape}"
        )
    if delays_s.shape != (n, n):
        raise DimensionError(f"delays must have shape ({n}, {n}), got {delays_s.shape}")
    if not np.allclose(delays_s, delays_s.T):
        raise SpecificationError("the delay matrix must be symmetric")
    if np.any(delays_s < 0):
        raise SpecificationError("delays must be non-negative")

    # Pairwise effective power: geometric mean (equals sigma^2 when equal).
    pair_power = np.sqrt(np.outer(powers, powers))
    delta_omega_sigma = (
        2.0 * np.pi * (frequencies_hz[:, None] - frequencies_hz[None, :]) * rms_delay_spread_s
    )
    from scipy.special import j0

    bessel = j0(2.0 * np.pi * max_doppler_hz * delays_s)
    rxx = pair_power * bessel / (2.0 * (1.0 + delta_omega_sigma**2))
    rxy = -delta_omega_sigma * rxx
    np.fill_diagonal(rxx, 0.0)
    np.fill_diagonal(rxy, 0.0)
    return rxx, rxx.copy(), rxy, -rxy


@dataclass(frozen=True)
class SpectralCorrelationModel:
    """Jakes spectral-correlation model for an OFDM-style multi-carrier link.

    Attributes
    ----------
    frequencies_hz:
        Carrier frequency of each branch (length N).
    delays_s:
        Symmetric ``(N, N)`` matrix of pairwise arrival time delays.
    max_doppler_hz:
        Maximum Doppler frequency ``F_m``.
    rms_delay_spread_s:
        RMS delay spread ``sigma_tau``.
    """

    frequencies_hz: np.ndarray
    delays_s: np.ndarray
    max_doppler_hz: float
    rms_delay_spread_s: float

    def __post_init__(self) -> None:
        frequencies = np.asarray(self.frequencies_hz, dtype=float)
        delays = np.asarray(self.delays_s, dtype=float)
        object.__setattr__(self, "frequencies_hz", frequencies)
        object.__setattr__(self, "delays_s", delays)
        n = frequencies.shape[0]
        if frequencies.ndim != 1 or n < 1:
            raise DimensionError("frequencies_hz must be a non-empty 1-D array")
        if delays.shape != (n, n):
            raise DimensionError(
                f"delays_s must have shape ({n}, {n}), got {delays.shape}"
            )
        if self.max_doppler_hz < 0:
            raise SpecificationError("max_doppler_hz must be non-negative")
        if self.rms_delay_spread_s < 0:
            raise SpecificationError("rms_delay_spread_s must be non-negative")

    @property
    def n_branches(self) -> int:
        """Number of correlated branches."""
        return int(self.frequencies_hz.shape[0])

    def covariance_components(
        self, powers: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(Rxx, Ryy, Rxy, Ryx)`` matrices for the given branch powers."""
        return spectral_covariance_components(
            np.asarray(powers, dtype=float),
            self.max_doppler_hz,
            self.delays_s,
            self.frequencies_hz,
            self.rms_delay_spread_s,
        )
