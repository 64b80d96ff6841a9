"""Envelope-level metrics: dB scaling, rms, level crossing rate, fade duration.

Fig. 4 of the paper plots the generated envelopes in "dB around the rms
value"; :func:`envelope_db_around_rms` reproduces exactly that scaling.  The
level-crossing rate (LCR) and average fade duration (AFD) functions are the
standard second-order statistics of Rayleigh fading (Jakes, Rappaport) and
are used by the extended validation experiments to confirm that the
Doppler-shaped output behaves like physical fading, not just like white
Rayleigh noise.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DimensionError

__all__ = [
    "amplitude_to_db",
    "power_to_db",
    "rms",
    "envelope_db_around_rms",
    "level_crossing_rate",
    "average_fade_duration",
    "theoretical_lcr",
    "theoretical_afd",
]

_TINY = np.finfo(float).tiny


def amplitude_to_db(amplitude: np.ndarray) -> np.ndarray:
    """Convert an amplitude ratio to decibels (``20 log10``)."""
    return 20.0 * np.log10(np.maximum(np.asarray(amplitude, dtype=float), _TINY))


def power_to_db(power: np.ndarray) -> np.ndarray:
    """Convert a power ratio to decibels (``10 log10``)."""
    return 10.0 * np.log10(np.maximum(np.asarray(power, dtype=float), _TINY))


def rms(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Root-mean-square value along ``axis``."""
    return np.sqrt(np.mean(np.asarray(x, dtype=float) ** 2, axis=axis))


def envelope_db_around_rms(envelopes: np.ndarray) -> np.ndarray:
    """Express envelopes in dB relative to their per-branch rms value.

    Parameters
    ----------
    envelopes:
        Array of shape ``(n_branches, n_samples)`` or ``(n_samples,)``.

    Returns
    -------
    numpy.ndarray
        Same shape, ``20 log10(r / r_rms)`` — the y-axis of Fig. 4.
    """
    arr = np.asarray(envelopes, dtype=float)
    squeeze = False
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
        squeeze = True
    if arr.ndim != 2:
        raise DimensionError(f"envelopes must be 1-D or 2-D, got ndim={arr.ndim}")
    reference = rms(arr, axis=-1)
    reference = np.where(reference <= 0.0, _TINY, reference)
    out = amplitude_to_db(np.maximum(arr, _TINY) / reference[:, np.newaxis])
    return out[0] if squeeze else out


def level_crossing_rate(
    envelope: np.ndarray, threshold: float, sample_rate: float = 1.0
) -> float:
    """Empirical level crossing rate: downward... upward crossings of ``threshold`` per second.

    A crossing is counted each time the envelope passes from below the
    threshold to at-or-above it (positive-going crossings, the standard
    definition).

    Parameters
    ----------
    envelope:
        1-D envelope sequence.
    threshold:
        Crossing level (same unit as the envelope).
    sample_rate:
        Samples per second; the rate is returned in crossings per second.
    """
    arr = np.asarray(envelope, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise DimensionError("level_crossing_rate expects a 1-D sequence of length >= 2")
    below = arr[:-1] < threshold
    at_or_above = arr[1:] >= threshold
    crossings = int(np.sum(below & at_or_above))
    duration = (arr.shape[0] - 1) / float(sample_rate)
    return crossings / duration


def average_fade_duration(
    envelope: np.ndarray, threshold: float, sample_rate: float = 1.0
) -> float:
    """Empirical average duration (seconds) spent below ``threshold`` per fade.

    Returns 0.0 when the envelope never drops below the threshold.
    """
    arr = np.asarray(envelope, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise DimensionError("average_fade_duration expects a 1-D sequence of length >= 2")
    below = arr < threshold
    total_below = float(np.sum(below)) / float(sample_rate)
    # Count fade events = number of transitions from >= threshold to < threshold
    # (plus one if the sequence starts below the threshold).
    starts = int(np.sum(~below[:-1] & below[1:])) + int(below[0])
    if starts == 0:
        return 0.0
    return total_below / starts


def theoretical_lcr(rho: np.ndarray, max_doppler_hz: float) -> np.ndarray:
    """Theoretical Rayleigh level crossing rate ``N_R = sqrt(2 pi) f_m rho e^{-rho^2}``.

    Parameters
    ----------
    rho:
        Threshold normalized by the rms envelope level.
    max_doppler_hz:
        Maximum Doppler frequency in Hz.
    """
    rho = np.asarray(rho, dtype=float)
    return np.sqrt(2.0 * np.pi) * max_doppler_hz * rho * np.exp(-(rho**2))


def theoretical_afd(rho: np.ndarray, max_doppler_hz: float) -> np.ndarray:
    """Theoretical Rayleigh average fade duration ``(e^{rho^2} - 1) / (rho f_m sqrt(2 pi))``."""
    rho = np.asarray(rho, dtype=float)
    denom = rho * max_doppler_hz * np.sqrt(2.0 * np.pi)
    denom = np.where(denom == 0.0, np.finfo(float).tiny, denom)
    return (np.exp(rho**2) - 1.0) / denom

