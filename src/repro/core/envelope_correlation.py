"""Mapping between envelope correlation and complex-Gaussian correlation.

The paper specifies correlation at the level of the complex Gaussian
branches (the covariance matrix ``K``), which is what the generator needs.
Much of the older literature — including the baselines [2]–[4] — specifies
the correlation between the *Rayleigh envelopes* instead.  The two are
related but not equal; this module provides the conversion both ways so
users can start from either description.

For two jointly circular complex Gaussian variables with correlation
coefficient magnitude ``|rho_g|``, the envelope cross-moment is (Middleton;
see also Jakes Eq. 1.5-26)

.. math::

    E\\{r_1 r_2\\} = \\frac{\\pi \\sigma_{g1}\\sigma_{g2}}{4}
                   \\,{}_2F_1\\!\\left(-\\tfrac12, -\\tfrac12; 1; |\\rho_g|^2\\right),

which gives the exact envelope correlation coefficient

.. math::

    \\rho_r = \\frac{{}_2F_1(-\\tfrac12,-\\tfrac12;1;|\\rho_g|^2)\\,\\pi/4 - \\pi/4}
                  {1 - \\pi/4}.

The widely used approximation is simply ``rho_r ~= |rho_g|^2``.  Both the
exact map, the approximation, and the numerical inverse (envelope ->
Gaussian) are provided, plus a helper that converts a whole envelope
correlation matrix into a Gaussian correlation-coefficient matrix ready for
:meth:`repro.core.covariance.CovarianceSpec.from_envelope_variances`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..exceptions import SpecificationError
from ..linalg import assert_hermitian

__all__ = [
    "envelope_correlation_from_gaussian",
    "envelope_correlation_approximation",
    "gaussian_correlation_from_envelope",
    "gaussian_correlation_matrix_from_envelope",
]

ArrayOrFloat = Union[float, np.ndarray]

#: Rayleigh variance factor 1 - pi/4, reused locally to avoid circular imports.
_VAR_FACTOR = 1.0 - np.pi / 4.0

#: Bisection tolerance on ``|rho_g|`` when inverting the exact map.
_BISECTION_TOL = 1e-12

#: Bisection iteration cap when inverting the exact map.
_BISECTION_MAX_ITERATIONS = 200


def _validate_magnitude(value: ArrayOrFloat, name: str, upper_inclusive: bool) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    upper_ok = arr <= 1.0 if upper_inclusive else arr < 1.0
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(~upper_ok):
        bound = "1" if upper_inclusive else "1 (exclusive)"
        raise SpecificationError(f"{name} must lie in [0, {bound}], got {value!r}")
    return arr


def envelope_correlation_from_gaussian(gaussian_correlation: ArrayOrFloat) -> np.ndarray:
    """Exact envelope (Pearson) correlation for a given |Gaussian correlation|.

    Parameters
    ----------
    gaussian_correlation:
        Magnitude ``|rho_g|`` of the complex correlation coefficient between
        the two Gaussian branches, in ``[0, 1]``.  Complex inputs are
        accepted and reduced to their magnitude (the envelope correlation
        depends only on ``|rho_g|``).

    Returns
    -------
    numpy.ndarray
        Envelope correlation coefficient(s) in ``[0, 1]``.
    """
    from scipy.special import hyp2f1

    magnitude = np.abs(np.asarray(gaussian_correlation))
    magnitude = _validate_magnitude(magnitude, "|gaussian correlation|", upper_inclusive=True)
    cross_moment_factor = hyp2f1(-0.5, -0.5, 1.0, magnitude**2)
    # E{r1 r2} - E{r1}E{r2} = (pi/4) sigma1 sigma2 (2F1 - 1); divide by the
    # envelope standard deviations sqrt(1 - pi/4) sigma.
    return (np.pi / 4.0) * (cross_moment_factor - 1.0) / _VAR_FACTOR


def envelope_correlation_approximation(gaussian_correlation: ArrayOrFloat) -> np.ndarray:
    """The standard approximation ``rho_r ~= |rho_g|^2``.

    Accurate to within about 0.015 absolute over the whole range; kept for
    comparisons and for reproducing methods that rely on it (e.g. [2]).
    """
    magnitude = np.abs(np.asarray(gaussian_correlation))
    magnitude = _validate_magnitude(magnitude, "|gaussian correlation|", upper_inclusive=True)
    return magnitude**2


def gaussian_correlation_from_envelope(envelope_correlation: ArrayOrFloat) -> np.ndarray:
    """Invert the envelope-correlation map: return ``|rho_g|`` for a given ``rho_r``.

    The exact hypergeometric relation is inverted by bisection (the map is
    strictly increasing) to ``_BISECTION_TOL`` on ``|rho_g|``.

    Parameters
    ----------
    envelope_correlation:
        Desired envelope correlation coefficient(s) in ``[0, 1)``.

    Returns
    -------
    numpy.ndarray
        Magnitude(s) ``|rho_g|`` in ``[0, 1)``.
    """
    target = _validate_magnitude(envelope_correlation, "envelope correlation", upper_inclusive=False)
    flat = np.atleast_1d(target).astype(float)
    result = np.empty_like(flat)
    for index, value in enumerate(flat):
        if value == 0.0:
            result[index] = 0.0
            continue
        low, high = 0.0, 1.0
        for _ in range(_BISECTION_MAX_ITERATIONS):
            mid = 0.5 * (low + high)
            if float(envelope_correlation_from_gaussian(mid)) < value:
                low = mid
            else:
                high = mid
            if high - low < _BISECTION_TOL:
                break
        result[index] = 0.5 * (low + high)
    return result.reshape(np.shape(target)) if np.ndim(target) else result[0] * np.ones(())


def gaussian_correlation_matrix_from_envelope(
    envelope_correlation_matrix: np.ndarray,
) -> np.ndarray:
    """Convert an envelope correlation matrix into a Gaussian correlation matrix.

    The result has unit diagonal and real non-negative entries (the envelope
    correlation carries no phase information; if phases are known they can be
    applied afterwards).  It is ready to be combined with per-branch powers
    via :meth:`repro.core.covariance.CovarianceSpec.from_envelope_variances`.

    Raises
    ------
    SpecificationError
        If the input is not a symmetric matrix with unit diagonal and
        off-diagonal entries in ``[0, 1)``.
    """
    matrix = np.asarray(envelope_correlation_matrix, dtype=float)
    assert_hermitian(matrix, "envelope correlation matrix")
    if not np.allclose(np.diag(matrix), 1.0, atol=1e-10):
        raise SpecificationError("the envelope correlation matrix must have a unit diagonal")
    n = matrix.shape[0]
    out = np.eye(n)
    for k in range(n):
        for j in range(k + 1, n):
            value = float(matrix[k, j])
            if not 0.0 <= value < 1.0:
                raise SpecificationError(
                    f"envelope correlations must lie in [0, 1); entry ({k}, {j}) is {value}"
                )
            rho_g = float(gaussian_correlation_from_envelope(value))
            out[k, j] = out[j, k] = rho_g
    return out
