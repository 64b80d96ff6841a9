"""Structured validation checks and the aggregate :class:`ValidationReport`.

The experiment harness validates each generated block with
:func:`validate_block`, which runs the covariance, power, Rayleigh-fit and
(optionally) autocorrelation checks and renders the results as a table.  The
integration test-suite uses the same functions, so "the experiment passes"
and "the tests pass" mean the same thing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..channels.autocorrelation import autocorrelation_error
from ..core.statistics import covariance_match_report, envelope_power_report
from ..signal.correlation import normalized_autocorrelation
from ..types import GaussianBlock
from .hypothesis_tests import rayleigh_ks_test

__all__ = [
    "CheckResult",
    "ValidationReport",
    "check_covariance",
    "check_envelope_powers",
    "check_rayleigh_fit",
    "check_autocorrelation",
    "validate_block",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single validation check.

    Attributes
    ----------
    name:
        Identifier of the check (``"covariance"``, ``"envelope-power"``, ...).
    passed:
        Whether the check met its tolerance.
    metric:
        The scalar quantity the decision was based on.
    tolerance:
        The tolerance the metric was compared against.
    details:
        Free-form extra values for the report table.
    """

    name: str
    passed: bool
    metric: float
    tolerance: float
    details: Dict[str, float] = field(default_factory=dict)

    def row(self) -> str:
        """Render as a fixed-width report row."""
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name:<22s} {status:<5s} metric={self.metric:<12.5g} tol={self.tolerance:g}"


@dataclass
class ValidationReport:
    """Aggregate of several :class:`CheckResult` values."""

    checks: List[CheckResult] = field(default_factory=list)

    def add(self, check: CheckResult) -> None:
        """Append a check to the report."""
        self.checks.append(check)

    @property
    def passed(self) -> bool:
        """Whether every check passed."""
        return all(check.passed for check in self.checks)

    def render(self) -> str:
        """Render the report as a plain-text table."""
        lines = [f"{'check':<22s} {'ok':<5s} value"]
        lines.extend(check.row() for check in self.checks)
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def check_covariance(
    samples: np.ndarray, desired_covariance: np.ndarray, tolerance: float = 0.1
) -> CheckResult:
    """Check the relative Frobenius error of the sample covariance."""
    report = covariance_match_report(samples, desired_covariance)
    return CheckResult(
        name="covariance",
        passed=report.relative_error <= tolerance,
        metric=report.relative_error,
        tolerance=tolerance,
        details={"max_entry_error": report.max_entry_error, "n_samples": float(report.n_samples)},
    )


def check_envelope_powers(
    envelopes: np.ndarray, gaussian_variances: np.ndarray, tolerance: float = 0.1
) -> CheckResult:
    """Check the per-branch envelope power against ``sigma_g_j^2``."""
    report = envelope_power_report(envelopes, gaussian_variances)
    metric = report.max_relative_power_error()
    return CheckResult(
        name="envelope-power",
        passed=metric <= tolerance,
        metric=metric,
        tolerance=tolerance,
        details={"max_relative_mean_error": report.max_relative_mean_error()},
    )


def check_rayleigh_fit(
    envelopes: np.ndarray,
    gaussian_variances: np.ndarray,
    max_statistic: float = 0.05,
) -> CheckResult:
    """Check that every branch's envelope is Rayleigh distributed.

    The decision uses the KS *statistic* (distributional distance) rather
    than the p-value so that it remains meaningful for temporally correlated
    branches, where the nominal sample count overstates the information
    content.
    """
    env = np.atleast_2d(np.asarray(envelopes, dtype=float))
    variances = np.asarray(gaussian_variances, dtype=float)
    statistics = [
        rayleigh_ks_test(env[j], variances[j]).statistic for j in range(env.shape[0])
    ]
    metric = float(np.max(statistics))
    return CheckResult(
        name="rayleigh-fit",
        passed=metric <= max_statistic,
        metric=metric,
        tolerance=max_statistic,
        details={f"branch_{j}": float(s) for j, s in enumerate(statistics)},
    )


def check_autocorrelation(
    samples: np.ndarray,
    normalized_doppler: float,
    max_lag: int = 100,
    tolerance: float = 0.12,
) -> CheckResult:
    """Check each branch's normalized autocorrelation against ``J0(2 pi f_m d)``."""
    arr = np.atleast_2d(np.asarray(samples))
    errors = []
    for branch in arr:
        acf = normalized_autocorrelation(branch, max_lag=max_lag)
        rms_error, _ = autocorrelation_error(np.real(acf), normalized_doppler)
        errors.append(rms_error)
    metric = float(np.max(errors))
    return CheckResult(
        name="autocorrelation",
        passed=metric <= tolerance,
        metric=metric,
        tolerance=tolerance,
        details={f"branch_{j}": float(e) for j, e in enumerate(errors)},
    )


def validate_block(
    block: GaussianBlock,
    desired_covariance: np.ndarray,
    *,
    covariance_tolerance: float = 0.1,
    power_tolerance: float = 0.1,
    rayleigh_statistic: float = 0.05,
    normalized_doppler: Optional[float] = None,
) -> ValidationReport:
    """Run the full validation suite on a generated block.

    Parameters
    ----------
    block:
        The generated complex Gaussian samples (with branch powers).
    desired_covariance:
        The covariance matrix the block was supposed to realize.
    normalized_doppler:
        If given, also check the temporal autocorrelation against the
        Clarke/Jakes reference (real-time mode only).
    """
    report = ValidationReport()
    report.add(check_covariance(block.samples, desired_covariance, tolerance=covariance_tolerance))
    envelopes = np.abs(block.samples)
    report.add(
        check_envelope_powers(envelopes, block.variances, tolerance=power_tolerance)
    )
    report.add(
        check_rayleigh_fit(envelopes, block.variances, max_statistic=rayleigh_statistic)
    )
    if normalized_doppler is not None:
        report.add(check_autocorrelation(block.samples, normalized_doppler))
    return report
