"""Spatial correlation model for antenna arrays — Section 3 of the paper.

Salz & Winters derived the normalized covariances between the fades seen at
two elements of a uniform linear transmit array when the departure angles are
confined to ``Phi +/- Delta`` (Eq. 5–6 of the paper, Eq. A.19–A.20 of the
original reference):

.. math::

    \\tilde R_{xx}^{k,j} = \\tilde R_{yy}^{k,j}
      = J_0(z(k-j)) + 2\\sum_{m=1}^{\\infty}
        J_{2m}(z(k-j))\\,\\cos(2m\\Phi)\\,\\frac{\\sin(2m\\Delta)}{2m\\Delta},

    \\tilde R_{xy}^{k,j} = -\\tilde R_{yx}^{k,j}
      = 2\\sum_{m=0}^{\\infty} J_{2m+1}(z(k-j))\\,\\sin((2m+1)\\Phi)\\,
        \\frac{\\sin((2m+1)\\Delta)}{(2m+1)\\Delta},

where ``z = 2 pi D / lambda`` and ``k - j`` is the (signed) element index
difference.  The unnormalized covariances follow from Eq. (7):
``R = sigma^2 * R_tilde / 2``.

The Bessel series are summed adaptively: summation stops once a term falls
below :data:`repro.config.BESSEL_SERIES_TOL` (terms of ``J_q(x)``
decay super-exponentially once ``q`` exceeds ``|x|``), with a hard cap to
guarantee termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..config import BESSEL_SERIES_TERMS, BESSEL_SERIES_TOL
from ..exceptions import DimensionError, SpecificationError

__all__ = [
    "spatial_correlation_real",
    "spatial_correlation_imag",
    "spatial_covariance_components",
    "SpatialCorrelationModel",
]


def _validate_angles(mean_angle_rad: float, angular_spread_rad: float) -> Tuple[float, float]:
    mean_angle_rad = float(mean_angle_rad)
    angular_spread_rad = float(angular_spread_rad)
    if not (-np.pi <= mean_angle_rad <= np.pi):
        raise SpecificationError(
            f"mean angle Phi must lie in [-pi, pi], got {mean_angle_rad}"
        )
    if not (0.0 < angular_spread_rad <= np.pi):
        raise SpecificationError(
            f"angular spread Delta must lie in (0, pi], got {angular_spread_rad}"
        )
    return mean_angle_rad, angular_spread_rad


def spatial_correlation_real(
    element_separation: float,
    spacing_wavelengths: float,
    mean_angle_rad: float,
    angular_spread_rad: float,
) -> float:
    """Normalized covariance ``R~xx = R~yy`` between two array elements (Eq. 5).

    Parameters
    ----------
    element_separation:
        Signed element index difference ``k - j`` (an integer for a uniform
        array, but any real multiple of the spacing is accepted).
    spacing_wavelengths:
        Adjacent-element spacing ``D / lambda``.
    mean_angle_rad:
        Mean angle of departure ``Phi``.
    angular_spread_rad:
        Angular half-spread ``Delta`` (radians, in ``(0, pi]``).
    """
    mean_angle_rad, angular_spread_rad = _validate_angles(mean_angle_rad, angular_spread_rad)
    if spacing_wavelengths < 0:
        raise SpecificationError(
            f"antenna spacing must be non-negative, got {spacing_wavelengths}"
        )
    from scipy.special import jv

    z = 2.0 * np.pi * spacing_wavelengths
    argument = z * float(element_separation)
    total = float(jv(0, argument))
    for m in range(1, BESSEL_SERIES_TERMS + 1):
        order = 2 * m
        phase = 2.0 * m * angular_spread_rad
        term = (
            2.0
            * float(jv(order, argument))
            * np.cos(2.0 * m * mean_angle_rad)
            * np.sin(phase)
            / phase
        )
        total += term
        if order > abs(argument) and abs(term) < BESSEL_SERIES_TOL:
            break
    return total


def spatial_correlation_imag(
    element_separation: float,
    spacing_wavelengths: float,
    mean_angle_rad: float,
    angular_spread_rad: float,
) -> float:
    """Normalized covariance ``R~xy = -R~yx`` between two array elements (Eq. 6)."""
    mean_angle_rad, angular_spread_rad = _validate_angles(mean_angle_rad, angular_spread_rad)
    if spacing_wavelengths < 0:
        raise SpecificationError(
            f"antenna spacing must be non-negative, got {spacing_wavelengths}"
        )
    from scipy.special import jv

    z = 2.0 * np.pi * spacing_wavelengths
    argument = z * float(element_separation)
    total = 0.0
    for m in range(0, BESSEL_SERIES_TERMS + 1):
        order = 2 * m + 1
        phase = order * angular_spread_rad
        term = (
            2.0
            * float(jv(order, argument))
            * np.sin(order * mean_angle_rad)
            * np.sin(phase)
            / phase
        )
        total += term
        if order > abs(argument) and abs(term) < BESSEL_SERIES_TOL:
            break
    return total


def spatial_covariance_components(
    powers: np.ndarray,
    spacing_wavelengths: float,
    mean_angle_rad: float,
    angular_spread_rad: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Covariance component matrices ``(Rxx, Ryy, Rxy, Ryx)`` for a uniform array.

    Parameters
    ----------
    powers:
        Per-branch (per-antenna) powers ``sigma_g_j^2``.  As in the spectral
        model, unequal powers are combined pairwise through the geometric
        mean, reducing to Eq. (7) for equal powers.
    spacing_wavelengths:
        Adjacent-element spacing ``D / lambda``.
    mean_angle_rad, angular_spread_rad:
        Angle-of-departure parameters ``Phi`` and ``Delta``.

    Returns
    -------
    tuple of numpy.ndarray
        ``(Rxx, Ryy, Rxy, Ryx)`` matrices with zero diagonals, scaled to
        absolute covariances via Eq. (7): ``R = sigma^2 R_tilde / 2``.
    """
    powers = np.asarray(powers, dtype=float)
    n = powers.shape[0]
    if powers.ndim != 1 or n < 1:
        raise DimensionError("powers must be a non-empty 1-D array")
    if np.any(powers <= 0):
        raise SpecificationError("all powers must be positive")

    # Normalized correlations depend only on the index difference; evaluate
    # each distinct separation once.
    separations = np.arange(-(n - 1), n)
    real_by_sep = {
        int(d): spatial_correlation_real(
            d, spacing_wavelengths, mean_angle_rad, angular_spread_rad
        )
        for d in separations
    }
    imag_by_sep = {
        int(d): spatial_correlation_imag(
            d, spacing_wavelengths, mean_angle_rad, angular_spread_rad
        )
        for d in separations
    }

    pair_power = np.sqrt(np.outer(powers, powers))
    rxx = np.zeros((n, n), dtype=float)
    rxy = np.zeros((n, n), dtype=float)
    for k in range(n):
        for j in range(n):
            if k == j:
                continue
            d = k - j
            scale = pair_power[k, j] / 2.0  # Eq. (7)
            rxx[k, j] = scale * real_by_sep[d]
            rxy[k, j] = scale * imag_by_sep[d]
    return rxx, rxx.copy(), rxy, -rxy


@dataclass(frozen=True)
class SpatialCorrelationModel:
    """Salz–Winters spatial-correlation model for a uniform linear array.

    Attributes
    ----------
    n_antennas:
        Number of array elements (branches).
    spacing_wavelengths:
        Adjacent-element spacing ``D / lambda``.
    mean_angle_rad:
        Mean angle of departure ``Phi`` (radians, ``|Phi| <= pi``).
    angular_spread_rad:
        Angular half-spread ``Delta`` (radians, in ``(0, pi]``).
    """

    n_antennas: int
    spacing_wavelengths: float
    mean_angle_rad: float = 0.0
    angular_spread_rad: float = np.pi / 18.0

    def __post_init__(self) -> None:
        if self.n_antennas < 1:
            raise SpecificationError(f"n_antennas must be >= 1, got {self.n_antennas}")
        if self.spacing_wavelengths < 0:
            raise SpecificationError(
                f"spacing_wavelengths must be non-negative, got {self.spacing_wavelengths}"
            )
        _validate_angles(self.mean_angle_rad, self.angular_spread_rad)

    @property
    def n_branches(self) -> int:
        """Number of correlated branches (alias of ``n_antennas``)."""
        return int(self.n_antennas)

    def normalized_correlation(self, element_separation: float) -> complex:
        """Complex normalized correlation ``R~xx + i R~xy`` at an index separation."""
        real = spatial_correlation_real(
            element_separation,
            self.spacing_wavelengths,
            self.mean_angle_rad,
            self.angular_spread_rad,
        )
        imag = spatial_correlation_imag(
            element_separation,
            self.spacing_wavelengths,
            self.mean_angle_rad,
            self.angular_spread_rad,
        )
        return complex(real, imag)

    def covariance_components(
        self, powers: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(Rxx, Ryy, Rxy, Ryx)`` matrices for the given branch powers."""
        powers = np.asarray(powers, dtype=float)
        if powers.shape != (self.n_antennas,):
            raise DimensionError(
                f"powers must have shape ({self.n_antennas},), got {powers.shape}"
            )
        return spatial_covariance_components(
            powers,
            self.spacing_wavelengths,
            self.mean_angle_rad,
            self.angular_spread_rad,
        )
