"""Doppler normalization helper.

A dimension-checked conversion from the physical Doppler parameters quoted in
the paper's simulation section (maximum Doppler frequency ``F_m``, sampling
frequency 1 kHz) to the normalized Doppler ``f_m = F_m / F_s`` the algorithms
consume.
"""

from __future__ import annotations

from ..exceptions import SpecificationError

__all__ = ["normalized_doppler"]


def normalized_doppler(max_doppler_hz: float, sampling_frequency_hz: float) -> float:
    """Normalized maximum Doppler frequency ``f_m = F_m / F_s``.

    The IDFT generator requires ``0 < f_m < 0.5`` (the Doppler bandwidth must
    fit inside the sampled bandwidth); that constraint is checked by the
    filter design, not here, because a zero value is legitimate for static
    scenarios handled by the snapshot generator.
    """
    if sampling_frequency_hz <= 0:
        raise SpecificationError(
            f"sampling frequency must be positive, got {sampling_frequency_hz}"
        )
    if max_doppler_hz < 0:
        raise SpecificationError(
            f"maximum Doppler frequency must be non-negative, got {max_doppler_hz}"
        )
    return float(max_doppler_hz) / float(sampling_frequency_hz)

