"""Power / variance conversions between Rayleigh envelopes and complex Gaussians.

The algorithm can start either from the desired powers of the complex
Gaussian processes ``sigma_g_j^2`` or from the desired powers (variances) of
the Rayleigh envelopes themselves ``sigma_r_j^2``.  Step 1 of the algorithm
converts between the two (Eq. 11):

.. math::

    \\sigma_{g_j}^2 = \\frac{\\sigma_{r_j}^2}{1 - \\pi/4},

which follows from the Rayleigh moment relations (Eq. 14–15):

.. math::

    E\\{r_j\\} = \\sigma_{g_j} \\sqrt{\\pi}/2, \\qquad
    \\mathrm{Var}\\{r_j\\} = \\sigma_{g_j}^2 (1 - \\pi/4).

All conversions are vectorized and validate positivity.
:func:`rician_moments` gives the matching envelope moments of a Rician
branch (the ``rician`` fading model of :mod:`repro.models.fading`).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..exceptions import PowerError, SpecificationError

__all__ = [
    "RAYLEIGH_VARIANCE_FACTOR",
    "envelope_power_to_gaussian_power",
    "gaussian_power_to_envelope_power",
    "rayleigh_mean_from_gaussian_power",
    "rayleigh_variance_from_gaussian_power",
    "rayleigh_moments",
    "rician_moments",
]

#: The factor ``1 - pi/4 ~= 0.2146`` relating envelope variance to Gaussian power.
RAYLEIGH_VARIANCE_FACTOR = 1.0 - np.pi / 4.0

ArrayOrFloat = Union[float, np.ndarray]


def _validate_positive(values: ArrayOrFloat, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise PowerError(f"{name} must be non-empty")
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise PowerError(f"all entries of {name} must be positive and finite")
    return arr


def envelope_power_to_gaussian_power(envelope_variances: ArrayOrFloat) -> np.ndarray:
    """Convert desired Rayleigh-envelope variances to complex-Gaussian powers (Eq. 11).

    Parameters
    ----------
    envelope_variances:
        ``sigma_r_j^2`` — the desired variances of the Rayleigh envelopes.

    Returns
    -------
    numpy.ndarray
        ``sigma_g_j^2 = sigma_r_j^2 / (1 - pi/4)``.
    """
    arr = _validate_positive(envelope_variances, "envelope variances")
    return arr / RAYLEIGH_VARIANCE_FACTOR


def gaussian_power_to_envelope_power(gaussian_variances: ArrayOrFloat) -> np.ndarray:
    """Convert complex-Gaussian powers to the implied Rayleigh-envelope variances (Eq. 15)."""
    arr = _validate_positive(gaussian_variances, "gaussian variances")
    return arr * RAYLEIGH_VARIANCE_FACTOR


def rayleigh_mean_from_gaussian_power(gaussian_variances: ArrayOrFloat) -> np.ndarray:
    """Mean envelope value ``E{r} = sigma_g * sqrt(pi)/2 ~= 0.8862 sigma_g`` (Eq. 14)."""
    arr = _validate_positive(gaussian_variances, "gaussian variances")
    return np.sqrt(arr) * (np.sqrt(np.pi) / 2.0)


def rayleigh_variance_from_gaussian_power(gaussian_variances: ArrayOrFloat) -> np.ndarray:
    """Envelope variance ``Var{r} = sigma_g^2 (1 - pi/4) ~= 0.2146 sigma_g^2`` (Eq. 15)."""
    arr = _validate_positive(gaussian_variances, "gaussian variances")
    return arr * RAYLEIGH_VARIANCE_FACTOR


def rayleigh_moments(gaussian_variance: float) -> Tuple[float, float, float]:
    """Return ``(mean, variance, second moment)`` of a Rayleigh envelope.

    Parameters
    ----------
    gaussian_variance:
        Power ``sigma_g^2`` of the underlying complex Gaussian variable.

    Returns
    -------
    tuple
        ``(E{r}, Var{r}, E{r^2})`` where ``E{r^2} = sigma_g^2``.
    """
    arr = _validate_positive(gaussian_variance, "gaussian variance")
    sigma_g2 = float(arr)
    mean = float(np.sqrt(sigma_g2) * np.sqrt(np.pi) / 2.0)
    variance = float(sigma_g2 * RAYLEIGH_VARIANCE_FACTOR)
    return mean, variance, sigma_g2


def rician_moments(k_factor: float, total_power: float = 1.0) -> tuple:
    """Return ``(mean envelope, envelope variance)`` of a Rician branch.

    Uses the standard expressions in terms of the Laguerre polynomial
    ``L_{1/2}``:

    .. math::

        E\\{r\\} = \\sqrt{\\frac{\\pi \\Omega}{4 (K+1)}}\\; L_{1/2}(-K), \\qquad
        \\mathrm{Var}\\{r\\} = \\Omega - E\\{r\\}^2.
    """
    if k_factor < 0:
        raise SpecificationError(f"the Rician K-factor must be non-negative, got {k_factor}")
    if total_power <= 0:
        raise SpecificationError(f"total power must be positive, got {total_power}")
    # L_{1/2}(-K) = e^{-K/2} [(1+K) I0(K/2) + K I1(K/2)]
    from scipy.special import i0e, i1e

    half = k_factor / 2.0
    # i0e/i1e are exponentially scaled (I_n(x) e^{-x}), so the e^{-K/2} factor
    # combines with them as e^{+K/2} * e^{-K} = e^{-K/2}; written explicitly:
    laguerre_half = (1.0 + k_factor) * i0e(half) + k_factor * i1e(half)
    mean = float(np.sqrt(np.pi * total_power / (4.0 * (k_factor + 1.0))) * laguerre_half)
    variance = float(total_power - mean**2)
    return mean, variance
