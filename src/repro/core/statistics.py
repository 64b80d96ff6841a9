"""Statistical properties of the generated envelopes (Section 4.5).

The paper verifies its algorithm by checking that

* the covariance matrix of the generated complex Gaussian samples equals the
  forced-PSD covariance ``K_bar`` (and hence the desired ``K`` whenever that
  was positive semi-definite),
* each branch's Gaussian power equals ``sigma_g_j^2``, and
* the envelope mean and variance obey the Rayleigh relations of Eq. (14)–(15).

This module provides both the theoretical values and the empirical estimators
together with small report objects used by the experiments and the
integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import DimensionError
from ..linalg import frobenius_distance
from ..signal.correlation import complex_autocovariance
from .variance import (
    rayleigh_mean_from_gaussian_power,
    rayleigh_variance_from_gaussian_power,
)

__all__ = [
    "empirical_covariance",
    "CovarianceMatchReport",
    "covariance_match_report",
    "EnvelopePowerReport",
    "envelope_power_report",
]


def empirical_covariance(samples: np.ndarray) -> np.ndarray:
    """Empirical covariance ``Z Z^H / n`` of complex Gaussian samples.

    ``samples`` has shape ``(n_branches, n_samples)``; the processes are
    assumed zero-mean (as generated), so no mean subtraction is applied.
    """
    return complex_autocovariance(samples)


@dataclass(frozen=True)
class CovarianceMatchReport:
    """Comparison of an empirical covariance against a desired covariance.

    Attributes
    ----------
    desired:
        The target covariance matrix.
    empirical:
        The sample covariance matrix.
    absolute_error:
        Frobenius norm of the difference.
    relative_error:
        ``absolute_error / ||desired||_F``.
    max_entry_error:
        Largest absolute element-wise deviation.
    n_samples:
        Number of samples the empirical estimate was computed from.
    """

    desired: np.ndarray
    empirical: np.ndarray
    absolute_error: float
    relative_error: float
    max_entry_error: float
    n_samples: int

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"covariance match over {self.n_samples} samples: "
            f"relative Frobenius error {self.relative_error:.4f}, "
            f"max entry error {self.max_entry_error:.4f}"
        )


def covariance_match_report(
    samples: np.ndarray, desired_covariance: np.ndarray
) -> CovarianceMatchReport:
    """Compare the sample covariance of ``samples`` to ``desired_covariance``."""
    desired = np.asarray(desired_covariance, dtype=complex)
    empirical = empirical_covariance(samples)
    if empirical.shape != desired.shape:
        raise DimensionError(
            f"sample covariance has shape {empirical.shape} but the desired covariance "
            f"has shape {desired.shape}"
        )
    absolute = frobenius_distance(empirical, desired)
    denom = float(np.linalg.norm(desired, ord="fro"))
    relative = absolute / denom if denom > 0 else float("inf")
    max_entry = float(np.max(np.abs(empirical - desired)))
    n_samples = int(np.asarray(samples).shape[-1])
    return CovarianceMatchReport(
        desired=desired,
        empirical=empirical,
        absolute_error=absolute,
        relative_error=relative,
        max_entry_error=max_entry,
        n_samples=n_samples,
    )


@dataclass(frozen=True)
class EnvelopePowerReport:
    """Per-branch comparison of envelope statistics against the Rayleigh theory.

    Attributes
    ----------
    expected_mean / measured_mean:
        Theoretical (Eq. 14) and sample envelope means.
    expected_variance / measured_variance:
        Theoretical (Eq. 15) and sample envelope variances.
    expected_power / measured_power:
        Theoretical (``sigma_g_j^2``) and sample second moments ``E{r^2}``.
    n_samples:
        Samples per branch used in the estimates.
    """

    expected_mean: np.ndarray
    measured_mean: np.ndarray
    expected_variance: np.ndarray
    measured_variance: np.ndarray
    expected_power: np.ndarray
    measured_power: np.ndarray
    n_samples: int

    def max_relative_mean_error(self) -> float:
        """Largest relative deviation of the measured means from theory."""
        return float(np.max(np.abs(self.measured_mean - self.expected_mean) / self.expected_mean))

    def max_relative_power_error(self) -> float:
        """Largest relative deviation of the measured powers from theory."""
        return float(
            np.max(np.abs(self.measured_power - self.expected_power) / self.expected_power)
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"envelope power over {self.n_samples} samples: "
            f"max relative mean error {self.max_relative_mean_error():.4f}, "
            f"max relative power error {self.max_relative_power_error():.4f}"
        )


def envelope_power_report(
    envelopes: np.ndarray,
    gaussian_variances: np.ndarray,
) -> EnvelopePowerReport:
    """Compare measured envelope statistics against the Rayleigh relations.

    Parameters
    ----------
    envelopes:
        Array of shape ``(n_branches, n_samples)``.
    gaussian_variances:
        Desired powers ``sigma_g_j^2`` of the underlying Gaussian branches.
    """
    env = np.asarray(envelopes, dtype=float)
    if env.ndim == 1:
        env = env[np.newaxis, :]
    if env.ndim != 2:
        raise DimensionError(f"envelopes must be 1-D or 2-D, got ndim={env.ndim}")
    variances = np.asarray(gaussian_variances, dtype=float)
    if variances.shape != (env.shape[0],):
        raise DimensionError(
            f"gaussian_variances must have shape ({env.shape[0]},), got {variances.shape}"
        )
    return EnvelopePowerReport(
        expected_mean=rayleigh_mean_from_gaussian_power(variances),
        measured_mean=np.mean(env, axis=1),
        expected_variance=rayleigh_variance_from_gaussian_power(variances),
        measured_variance=np.var(env, axis=1),
        expected_power=variances,
        measured_power=np.mean(env**2, axis=1),
        n_samples=int(env.shape[1]),
    )
