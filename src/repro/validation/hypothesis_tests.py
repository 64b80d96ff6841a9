"""Distributional goodness-of-fit test for generated envelopes.

The validation layer runs a Kolmogorov–Smirnov test of each envelope against
the Rayleigh CDF with the scale implied by the branch's Gaussian power.  It
returns a :class:`KSTestResult` with the statistic, an asymptotic p-value,
and the pass/fail decision at the requested significance level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import DimensionError

__all__ = ["KSTestResult", "rayleigh_ks_test"]


@dataclass(frozen=True)
class KSTestResult:
    """Result of a Kolmogorov–Smirnov goodness-of-fit test.

    Attributes
    ----------
    statistic:
        The KS statistic (supremum distance between empirical and reference CDF).
    p_value:
        Asymptotic p-value.
    passed:
        Whether ``p_value >= significance``.
    significance:
        The significance level the decision was made at.
    description:
        What was tested.
    """

    statistic: float
    p_value: float
    passed: bool
    significance: float
    description: str


def rayleigh_ks_test(
    envelope: np.ndarray,
    gaussian_variance: float,
    significance: float = 0.01,
) -> KSTestResult:
    """KS test of an envelope sequence against the Rayleigh distribution.

    Parameters
    ----------
    envelope:
        1-D array of non-negative envelope samples.
    gaussian_variance:
        Power ``sigma_g^2`` of the underlying complex Gaussian branch; the
        Rayleigh scale parameter is ``sigma_g / sqrt(2)``.
    significance:
        Significance level for the pass/fail decision.

    Notes
    -----
    For Doppler-shaped (temporally correlated) branches the effective sample
    size is smaller than the number of samples, making the test conservative
    in statistic but optimistic in p-value; the experiments therefore also
    report the raw statistic.
    """
    arr = np.asarray(envelope, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < 8:
        raise DimensionError("rayleigh_ks_test expects a 1-D sequence of length >= 8")
    if gaussian_variance <= 0:
        raise ValueError(f"gaussian_variance must be positive, got {gaussian_variance}")
    from scipy import stats

    scale = np.sqrt(gaussian_variance / 2.0)
    statistic, p_value = stats.kstest(arr, "rayleigh", args=(0.0, scale))
    return KSTestResult(
        statistic=float(statistic),
        p_value=float(p_value),
        passed=bool(p_value >= significance),
        significance=float(significance),
        description=f"Rayleigh fit (scale {scale:.4g})",
    )

