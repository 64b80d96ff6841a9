"""Channel correlation models and the Doppler/IDFT fading substrate.

Two physical models provide the covariance inputs to the core algorithm:

* :mod:`repro.channels.spectral` — Jakes' covariances as functions of time
  delay and frequency separation (Section 2 of the paper, OFDM-style
  spectral correlation).
* :mod:`repro.channels.spatial` — Salz & Winters' covariances as functions of
  antenna spacing in a uniform linear array (Section 3, MIMO-style spatial
  correlation).

The real-time mode additionally needs a per-branch Doppler-shaped Rayleigh
generator; that is the Young–Beaulieu IDFT method (Section 5) implemented in
:mod:`repro.channels.doppler` and :mod:`repro.channels.idft_generator`.

High-level scenario dataclasses in :mod:`repro.channels.scenario` turn
physical parameters (antenna spacing, angular spread, delay spread, ...)
into a :class:`repro.core.covariance.CovarianceSpec` ready for the
generator.
"""

from .geometry import normalized_doppler
from .spectral import (
    spectral_covariance_components,
    SpectralCorrelationModel,
)
from .spatial import (
    spatial_correlation_real,
    spatial_correlation_imag,
    spatial_covariance_components,
    SpatialCorrelationModel,
)
from .doppler import (
    young_beaulieu_filter,
    filter_output_variance,
    filter_autocorrelation,
)
from .idft_generator import IDFTRayleighGenerator, batched_doppler_blocks
from .sum_of_sinusoids import SumOfSinusoidsGenerator
from .autocorrelation import clarke_autocorrelation, autocorrelation_error
from .scenario import (
    OFDMScenario,
    MIMOArrayScenario,
    DopplerSettings,
    ScenarioSweep,
)

__all__ = [
    "normalized_doppler",
    "spectral_covariance_components",
    "SpectralCorrelationModel",
    "spatial_correlation_real",
    "spatial_correlation_imag",
    "spatial_covariance_components",
    "SpatialCorrelationModel",
    "young_beaulieu_filter",
    "filter_output_variance",
    "filter_autocorrelation",
    "IDFTRayleighGenerator",
    "batched_doppler_blocks",
    "SumOfSinusoidsGenerator",
    "clarke_autocorrelation",
    "autocorrelation_error",
    "OFDMScenario",
    "MIMOArrayScenario",
    "DopplerSettings",
    "ScenarioSweep",
]
