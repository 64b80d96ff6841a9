"""Signal-processing substrate.

Provides the correlation estimators used by the validation layer and the
experiments, and classic fading-channel metrics (dB scaling relative to the
rms level, level-crossing rate, average fade duration) used by the
experiments that regenerate the paper's figures.  The IDFT Rayleigh
generator does its Fourier transforms with ``np.fft``, not through this
package.
"""

from .correlation import (
    autocorrelation,
    normalized_autocorrelation,
    complex_autocovariance,
)
from .levels import (
    amplitude_to_db,
    power_to_db,
    envelope_db_around_rms,
    rms,
    level_crossing_rate,
    average_fade_duration,
    theoretical_lcr,
    theoretical_afd,
)

__all__ = [
    "autocorrelation",
    "normalized_autocorrelation",
    "complex_autocovariance",
    "amplitude_to_db",
    "power_to_db",
    "envelope_db_around_rms",
    "rms",
    "level_crossing_rate",
    "average_fade_duration",
    "theoretical_lcr",
    "theoretical_afd",
]
