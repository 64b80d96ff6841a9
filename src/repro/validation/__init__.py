"""Statistical validation of generated fading envelopes.

The experiments and the integration tests accept or reject a generated block
of envelopes based on the checks implemented here:

* the empirical covariance of the complex Gaussian samples matches the
  desired covariance (:func:`check_covariance`);
* each envelope is Rayleigh distributed (Kolmogorov–Smirnov test,
  :func:`rayleigh_ks_test`) with the power predicted by Eq. (14)–(15);
* real-time branches have the Clarke/Jakes autocorrelation
  (:func:`check_autocorrelation`).

The checks return structured result objects rather than booleans so reports
can show *how close* a run was, not only whether it passed.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

# Lazy (PEP 562): the checks load scipy.stats only when a test runs.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".metrics": ("relative_frobenius_error", "max_absolute_error"),
        ".empirical": (
            "empirical_correlation_coefficients",
            "empirical_envelope_correlation",
            "branch_powers",
        ),
        ".hypothesis_tests": ("rayleigh_ks_test", "KSTestResult"),
        ".reports": (
            "CheckResult",
            "ValidationReport",
            "check_covariance",
            "check_envelope_powers",
            "check_rayleigh_fit",
            "check_autocorrelation",
            "validate_block",
        ),
    },
)

if TYPE_CHECKING:  # pragma: no cover - static view of the lazy names
    from .empirical import (
        branch_powers,
        empirical_correlation_coefficients,
        empirical_envelope_correlation,
    )
    from .hypothesis_tests import KSTestResult, rayleigh_ks_test
    from .metrics import max_absolute_error, relative_frobenius_error
    from .reports import (
        CheckResult,
        ValidationReport,
        check_autocorrelation,
        check_covariance,
        check_envelope_powers,
        check_rayleigh_fit,
        validate_block,
    )

__all__ = [
    "relative_frobenius_error",
    "max_absolute_error",
    "empirical_correlation_coefficients",
    "empirical_envelope_correlation",
    "branch_powers",
    "rayleigh_ks_test",
    "KSTestResult",
    "CheckResult",
    "ValidationReport",
    "check_covariance",
    "check_envelope_powers",
    "check_rayleigh_fit",
    "check_autocorrelation",
    "validate_block",
]
