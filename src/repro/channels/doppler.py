"""Doppler spectra and the Young–Beaulieu IDFT filter (Section 5 of the paper).

The real-time generator shapes white complex Gaussian noise with the filter
``F[k]`` of Eq. (21) so that each synthesized branch has the Clarke/Jakes
normalized autocorrelation ``J0(2 pi f_m d)``.  Three quantities from the
paper are implemented here:

* :func:`young_beaulieu_filter` — the filter coefficients ``F[k]`` (Eq. 21),
* :func:`filter_autocorrelation` — the output autocorrelation implied by a
  filter, ``r_RR[d] = (sigma_orig^2 / M) Re{g[d]}`` with ``g = IDFT(F^2)``
  (Eq. 16–18),
* :func:`filter_output_variance` — the output variance
  ``sigma_g^2 = 2 sigma_orig^2 / M^2 * sum F[k]^2`` (Eq. 19), the quantity
  whose omission breaks the method of Sorooshyari & Daut and whose inclusion
  is the paper's key real-time correction.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..exceptions import DopplerError, FilterDesignError

__all__ = [
    "young_beaulieu_filter",
    "filter_output_variance",
    "filter_autocorrelation",
    "validate_doppler_parameters",
]


def validate_doppler_parameters(n_points: int, normalized_doppler: float) -> int:
    """Validate ``(M, f_m)`` and return ``k_m = floor(f_m M)``.

    Requirements, from the construction of Eq. (21):

    * ``M >= 8`` so the filter has room for both spectral edges,
    * ``0 < f_m < 0.5`` so the Doppler band fits in the sampled bandwidth,
    * ``k_m = floor(f_m M) >= 1`` so the passband contains at least one bin,
    * ``2 k_m < M`` so the two band edges do not collide.

    Raises
    ------
    DopplerError / FilterDesignError
        If any requirement is violated.
    """
    if not isinstance(n_points, (int, np.integer)) or n_points < 8:
        raise DopplerError(f"the IDFT size M must be an integer >= 8, got {n_points!r}")
    normalized_doppler = float(normalized_doppler)
    if not 0.0 < normalized_doppler < 0.5:
        raise DopplerError(
            "the normalized maximum Doppler frequency f_m = F_m / F_s must lie in "
            f"(0, 0.5); got {normalized_doppler}"
        )
    k_m = int(np.floor(normalized_doppler * n_points))
    if k_m < 1:
        raise FilterDesignError(
            f"f_m * M = {normalized_doppler * n_points:.3f} < 1: the Doppler passband "
            "contains no DFT bin; increase M or f_m"
        )
    if 2 * k_m >= n_points:
        raise FilterDesignError(
            f"2 * k_m = {2 * k_m} >= M = {n_points}: the Doppler band edges overlap; "
            "decrease f_m or increase M"
        )
    return k_m


def young_beaulieu_filter(n_points: int, normalized_doppler: float) -> np.ndarray:
    """Doppler filter coefficients ``F[k]`` of Eq. (21).

    Parameters
    ----------
    n_points:
        IDFT length ``M``.
    normalized_doppler:
        Normalized maximum Doppler frequency ``f_m = F_m / F_s``.

    Returns
    -------
    numpy.ndarray
        Real non-negative array of length ``M``.  ``F[0] = 0`` (no DC term),
        the passband covers bins ``1..k_m`` and ``M-k_m..M-1`` with the
        Jakes-spectrum square-root shape, the band-edge bins ``k_m`` and
        ``M - k_m`` carry the area-matching correction term, and the
        stopband is exactly zero.
    """
    k_m = validate_doppler_parameters(n_points, normalized_doppler)
    m = int(n_points)
    f_m = float(normalized_doppler)

    coeffs = np.zeros(m, dtype=float)

    # Passband interior: k = 1 .. k_m - 1 (and mirrored M-k).
    if k_m > 1:
        k = np.arange(1, k_m)
        ratio = k / (m * f_m)
        interior = np.sqrt(1.0 / (2.0 * np.sqrt(1.0 - ratio**2)))
        coeffs[1:k_m] = interior
        coeffs[m - k_m + 1 : m] = interior[::-1]

    # Band edge: k = k_m and k = M - k_m (Eq. 21, third and fifth cases).
    edge = np.sqrt(
        (k_m / 2.0)
        * (np.pi / 2.0 - np.arctan((k_m - 1.0) / np.sqrt(max(2.0 * k_m - 1.0, 1e-300))))
    )
    coeffs[k_m] = edge
    coeffs[m - k_m] = edge
    return coeffs


def filter_output_variance(filter_coefficients: np.ndarray, input_variance_per_dim: float) -> float:
    """Variance of the IDFT-generator output sequence, Eq. (19).

    .. math::

        \\sigma_g^2 = \\frac{2\\,\\sigma_{orig}^2}{M^2} \\sum_{k=0}^{M-1} F[k]^2.

    This is the quantity the proposed algorithm feeds back into the coloring
    step so that the Doppler filter's variance-changing effect is
    compensated.  ``input_variance_per_dim`` is ``sigma_orig^2``, the common
    variance of the real sequences ``A[k]`` and ``B[k]``.
    """
    coeffs = np.asarray(filter_coefficients, dtype=float)
    if coeffs.ndim != 1 or coeffs.shape[0] == 0:
        raise FilterDesignError("filter coefficients must form a non-empty 1-D array")
    if input_variance_per_dim <= 0:
        raise DopplerError(
            f"input variance per dimension must be positive, got {input_variance_per_dim}"
        )
    m = coeffs.shape[0]
    return float(2.0 * input_variance_per_dim * np.sum(coeffs**2) / (m**2))


def filter_autocorrelation(
    filter_coefficients: np.ndarray, input_variance_per_dim: float, max_lag: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Theoretical per-dimension autocorrelation of the generator output (Eq. 16–18).

    Returns
    -------
    (r_rr, r_ri):
        ``r_rr[d] = (sigma_orig^2 / M) Re{g[d]}`` — the autocorrelation of the
        real part (equal to that of the imaginary part), and
        ``r_ri[d] = (sigma_orig^2 / M) Im{g[d]}`` — the real/imaginary
        cross-correlation, where ``g = IDFT(F^2)``.  For the real, symmetric
        filter of Eq. (21) the cross term vanishes, which is what makes the
        output envelope Rayleigh.
    """
    coeffs = np.asarray(filter_coefficients, dtype=float)
    if coeffs.ndim != 1 or coeffs.shape[0] == 0:
        raise FilterDesignError("filter coefficients must form a non-empty 1-D array")
    if input_variance_per_dim <= 0:
        raise DopplerError(
            f"input variance per dimension must be positive, got {input_variance_per_dim}"
        )
    m = coeffs.shape[0]
    if not 0 <= max_lag < m:
        raise ValueError(f"max_lag must be in [0, {m - 1}], got {max_lag}")
    g = np.fft.ifft(coeffs**2)  # numpy's ifft carries the 1/M factor of Eq. (17)
    scale = input_variance_per_dim / m
    r_rr = scale * np.real(g[: max_lag + 1])
    r_ri = scale * np.imag(g[: max_lag + 1])
    return r_rr, r_ri
