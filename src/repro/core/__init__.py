"""Core package: the generalized correlated-Rayleigh generation algorithm.

This package implements Sections 4 and 5 of the paper:

* :mod:`repro.core.variance` — power conversions between Rayleigh-envelope
  powers and complex-Gaussian powers (Eq. 11, 14, 15).
* :mod:`repro.core.covariance` — assembly of the complex-Gaussian covariance
  matrix ``K`` from the real/imaginary covariance components (Eq. 12–13) and
  the :class:`CovarianceSpec` input object.
* :mod:`repro.core.psd` — the forced positive-semi-definiteness procedure
  (Section 4.2) and its baselines.
* :mod:`repro.core.coloring` — coloring-matrix computation by
  eigendecomposition (Section 4.3), Cholesky, or SVD.
* :mod:`repro.core.generator` — the snapshot algorithm of Section 4.4
  (steps 1–7).
* :mod:`repro.core.realtime` — the real-time algorithm of Section 5
  (Doppler-shaped branches + variance-compensated coloring).
* :mod:`repro.core.statistics` — theoretical and empirical statistics of the
  generated envelopes (Section 4.5).

One-call generation lives on the session: :meth:`repro.api.Simulator.envelopes`.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

# Lazy (PEP 562): a shard worker reaches ``repro.core`` only through
# ``covariance``, so it does not load the generators or statistics.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".variance": (
            "envelope_power_to_gaussian_power",
            "gaussian_power_to_envelope_power",
            "rayleigh_mean_from_gaussian_power",
            "rayleigh_variance_from_gaussian_power",
            "rayleigh_moments",
        ),
        ".covariance": (
            "CovarianceSpec",
            "build_covariance_matrix",
            "covariance_entry",
            "correlation_coefficient_matrix",
            "decompose_covariance_entry",
        ),
        ".envelope_correlation": (
            "envelope_correlation_from_gaussian",
            "envelope_correlation_approximation",
            "gaussian_correlation_from_envelope",
            "gaussian_correlation_matrix_from_envelope",
        ),
        ".psd": (
            "force_positive_semidefinite",
            "PSDForcingResult",
            "compare_forcing_methods",
        ),
        ".coloring": (
            "coloring_matrix_eigen",
            "coloring_matrix_cholesky",
            "coloring_matrix_svd",
            "compute_coloring",
            "compute_coloring_batch",
        ),
        ".generator": ("RayleighFadingGenerator",),
        ".realtime": ("RealTimeRayleighGenerator",),
        ".rician": ("RicianFadingGenerator", "rician_moments"),
        ".statistics": (
            "theoretical_envelope_mean",
            "theoretical_envelope_variance",
            "empirical_covariance",
            "covariance_match_report",
            "envelope_power_report",
        ),
    },
)

if TYPE_CHECKING:  # pragma: no cover - static view of the lazy names
    from .variance import (
        envelope_power_to_gaussian_power,
        gaussian_power_to_envelope_power,
        rayleigh_mean_from_gaussian_power,
        rayleigh_variance_from_gaussian_power,
        rayleigh_moments,
    )
    from .covariance import (
        CovarianceSpec,
        build_covariance_matrix,
        covariance_entry,
        correlation_coefficient_matrix,
        decompose_covariance_entry,
    )
    from .envelope_correlation import (
        envelope_correlation_from_gaussian,
        envelope_correlation_approximation,
        gaussian_correlation_from_envelope,
        gaussian_correlation_matrix_from_envelope,
    )
    from .psd import (
        force_positive_semidefinite,
        PSDForcingResult,
        compare_forcing_methods,
    )
    from .coloring import (
        coloring_matrix_eigen,
        coloring_matrix_cholesky,
        coloring_matrix_svd,
        compute_coloring,
        compute_coloring_batch,
    )
    from .generator import RayleighFadingGenerator
    from .realtime import RealTimeRayleighGenerator
    from .rician import RicianFadingGenerator, rician_moments
    from .statistics import (
        theoretical_envelope_mean,
        theoretical_envelope_variance,
        empirical_covariance,
        covariance_match_report,
        envelope_power_report,
    )

__all__ = [
    "envelope_power_to_gaussian_power",
    "gaussian_power_to_envelope_power",
    "rayleigh_mean_from_gaussian_power",
    "rayleigh_variance_from_gaussian_power",
    "rayleigh_moments",
    "CovarianceSpec",
    "build_covariance_matrix",
    "covariance_entry",
    "correlation_coefficient_matrix",
    "decompose_covariance_entry",
    "envelope_correlation_from_gaussian",
    "envelope_correlation_approximation",
    "gaussian_correlation_from_envelope",
    "gaussian_correlation_matrix_from_envelope",
    "force_positive_semidefinite",
    "PSDForcingResult",
    "compare_forcing_methods",
    "coloring_matrix_eigen",
    "coloring_matrix_cholesky",
    "coloring_matrix_svd",
    "compute_coloring",
    "compute_coloring_batch",
    "RayleighFadingGenerator",
    "RealTimeRayleighGenerator",
    "RicianFadingGenerator",
    "rician_moments",
    "theoretical_envelope_mean",
    "theoretical_envelope_variance",
    "empirical_covariance",
    "covariance_match_report",
    "envelope_power_report",
]
