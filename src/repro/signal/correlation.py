"""Correlation and covariance estimators for validating generated fading.

The validation layer needs to check two different things:

* that the *cross-branch* covariance of the generated complex Gaussian
  samples matches the desired covariance matrix ``K`` (Section 4.5), and
* that the *temporal* autocorrelation of each real-time branch matches the
  Clarke/Jakes reference ``J0(2 pi f_m d)`` (Eq. 16–20).

Both kinds of estimator live here.  All estimators are plain sample averages
(biased, i.e. normalized by the number of samples) unless stated otherwise,
matching the definitions used in the paper's references.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import DimensionError

__all__ = [
    "autocorrelation",
    "normalized_autocorrelation",
    "complex_autocovariance",
]


def _as_1d(x: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got ndim={arr.ndim}")
    if arr.shape[0] == 0:
        raise DimensionError(f"{name} must be non-empty")
    return arr


def autocorrelation(x: np.ndarray, max_lag: Optional[int] = None) -> np.ndarray:
    """Sample autocorrelation ``r[d] = E{x[l] conj(x[l-d])}`` for lags ``0..max_lag``.

    Every lag is normalized by ``n`` (the biased estimator).

    Parameters
    ----------
    x:
        1-D real or complex sequence (assumed zero-mean; the mean is *not*
        removed, matching the zero-mean processes of the paper).
    max_lag:
        Largest lag to compute (inclusive).  Defaults to ``len(x) - 1``.

    Returns
    -------
    numpy.ndarray
        Array of length ``max_lag + 1``; complex if the input is complex.
    """
    arr = _as_1d(x, "x")
    n = arr.shape[0]
    if max_lag is None:
        max_lag = n - 1
    if max_lag < 0 or max_lag >= n:
        raise ValueError(f"max_lag must be in [0, {n - 1}], got {max_lag}")

    # FFT-based computation of the full autocorrelation, then truncate.
    n_fft = 1 << int(np.ceil(np.log2(2 * n - 1)))
    spectrum = np.fft.fft(arr, n_fft)
    acf_full = np.fft.ifft(spectrum * np.conj(spectrum))[: max_lag + 1]
    if np.isrealobj(arr):
        acf_full = acf_full.real
    return acf_full / n


def normalized_autocorrelation(x: np.ndarray, max_lag: Optional[int] = None) -> np.ndarray:
    """Autocorrelation normalized by the lag-0 value (so ``rho[0] == 1``).

    This is the quantity the paper compares against ``J0(2 pi f_m d)``
    (Eq. 20).
    """
    acf = autocorrelation(x, max_lag=max_lag)
    r0 = acf[0]
    if np.abs(r0) == 0:
        raise ValueError("cannot normalize the autocorrelation of an all-zero sequence")
    return acf / r0


def complex_autocovariance(samples: np.ndarray) -> np.ndarray:
    """Empirical covariance matrix ``E{Z Z^H}`` of multi-branch complex samples.

    Parameters
    ----------
    samples:
        Array of shape ``(n_branches, n_samples)``; each row is one branch's
        complex Gaussian sequence (assumed zero-mean).

    Returns
    -------
    numpy.ndarray
        ``(n_branches, n_branches)`` Hermitian matrix ``samples samples^H / n``.
    """
    arr = np.asarray(samples)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise DimensionError(f"samples must be 2-D (branches x time), got ndim={arr.ndim}")
    n_samples = arr.shape[1]
    if n_samples == 0:
        raise DimensionError("samples must contain at least one time sample")
    return (arr @ arr.conj().T) / n_samples
