"""Physical-layer geometry and Doppler helpers.

Small, dimension-checked conversions between the physical parameters quoted
in the paper's simulation section (carrier frequency 900 MHz, mobile speed
60 km/h, antenna spacing D/lambda = 1, sampling frequency 1 kHz) and the
normalized quantities the algorithms consume (maximum Doppler frequency
``F_m``, normalized Doppler ``f_m = F_m / F_s``).
"""

from __future__ import annotations

from ..exceptions import SpecificationError

__all__ = [
    "SPEED_OF_LIGHT",
    "wavelength",
    "max_doppler_frequency",
    "normalized_doppler",
]

#: Speed of light in vacuum [m/s].
SPEED_OF_LIGHT = 299_792_458.0


def wavelength(carrier_frequency_hz: float) -> float:
    """Carrier wavelength ``lambda = c / f_c`` in metres.

    Raises
    ------
    SpecificationError
        If the carrier frequency is not positive.
    """
    if carrier_frequency_hz <= 0:
        raise SpecificationError(
            f"carrier frequency must be positive, got {carrier_frequency_hz}"
        )
    return SPEED_OF_LIGHT / float(carrier_frequency_hz)


def max_doppler_frequency(speed_ms: float, carrier_frequency_hz: float) -> float:
    """Maximum Doppler shift ``F_m = v / lambda = v f_c / c`` in Hz.

    Parameters
    ----------
    speed_ms:
        Mobile speed in m/s (non-negative).
    carrier_frequency_hz:
        Carrier frequency in Hz (positive).
    """
    if speed_ms < 0:
        raise SpecificationError(f"mobile speed must be non-negative, got {speed_ms}")
    return float(speed_ms) / wavelength(carrier_frequency_hz)


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

