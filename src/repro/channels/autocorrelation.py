"""Theoretical fading autocorrelation references.

The Clarke/Jakes model predicts that the normalized autocorrelation of a
Rayleigh fading process with maximum normalized Doppler frequency ``f_m`` is
the zeroth-order Bessel function ``J0(2 pi f_m d)`` of the sample lag ``d``
(Eq. 20 of the paper).  The experiments compare the empirical autocorrelation
of generated branches against this reference.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..exceptions import DopplerError

__all__ = ["clarke_autocorrelation", "autocorrelation_error"]


def clarke_autocorrelation(lags: np.ndarray, normalized_doppler: float) -> np.ndarray:
    """Clarke/Jakes normalized autocorrelation ``J0(2 pi f_m d)``.

    Parameters
    ----------
    lags:
        Sample lags ``d`` (any real values).
    normalized_doppler:
        Normalized maximum Doppler frequency ``f_m`` (non-negative).
    """
    if normalized_doppler < 0:
        raise DopplerError(
            f"normalized_doppler must be non-negative, got {normalized_doppler}"
        )
    from scipy.special import j0

    lags = np.asarray(lags, dtype=float)
    return j0(2.0 * np.pi * normalized_doppler * lags)


def autocorrelation_error(
    empirical: np.ndarray, normalized_doppler: float
) -> Tuple[float, float]:
    """RMS and maximum absolute deviation of an empirical normalized autocorrelation
    from the Clarke reference.

    Parameters
    ----------
    empirical:
        Empirical normalized autocorrelation, ``empirical[0]`` being lag 0.
    normalized_doppler:
        Design value ``f_m``.

    Returns
    -------
    (rms_error, max_error)
    """
    emp = np.asarray(empirical, dtype=float)
    if emp.ndim != 1 or emp.shape[0] == 0:
        raise ValueError("empirical autocorrelation must be a non-empty 1-D array")
    lags = np.arange(emp.shape[0])
    reference = clarke_autocorrelation(lags, normalized_doppler)
    deviation = emp - reference
    return float(np.sqrt(np.mean(deviation**2))), float(np.max(np.abs(deviation)))
