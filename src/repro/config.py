"""Library-wide numeric defaults and tolerances.

Centralizing the tolerances keeps the numerical behaviour of the package
consistent:  the same Hermitian-symmetry tolerance is used when *checking*
covariance matrices and when *symmetrizing* them, the same eigenvalue cutoff
is used by the forced-PSD procedure and by the positive-semi-definiteness
predicate, and so on.

The values are module-level constants grouped in a frozen dataclass so they
can be read as ``config.DEFAULTS.hermitian_atol`` or overridden locally by
constructing a new :class:`NumericDefaults` and passing it to the few
functions that accept one.

No cache directory comes from the environment: a persistent cache is
always named explicitly (``cache_dir=``, or ``--cache-dir`` on the command
line).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "NumericDefaults",
    "DEFAULTS",
]


@dataclass(frozen=True)
class NumericDefaults:
    """Collection of numeric tolerances used across the package.

    Attributes
    ----------
    hermitian_atol:
        Absolute tolerance when testing ``K == K^H``.
    hermitian_rtol:
        Relative tolerance when testing ``K == K^H``.
    eig_clip_tol:
        Eigenvalues in ``[-eig_clip_tol, 0)`` are treated as numerical zeros
        (clipped to zero without counting as "negative" for diagnostics).
    psd_tol:
        Eigenvalue threshold below which a matrix is declared *not* positive
        semi-definite (relative to the largest eigenvalue magnitude).
    cholesky_jitter:
        Diagonal jitter that baseline methods may add before retrying a
        failed Cholesky factorization (kept tiny; the proposed method never
        needs it).
    bessel_series_terms:
        Number of terms used when summing the Salz-Winters Bessel series
        (Eq. 5-6) before the adaptive stopping criterion kicks in.
    bessel_series_tol:
        Adaptive stopping tolerance for the Bessel series: summation stops
        once a term's magnitude drops below this value.
    default_rng_seed:
        Seed used by convenience constructors when the caller does not supply
        a seed or generator.  Experiments always pass explicit seeds.
    covariance_check_rtol:
        Relative tolerance used by statistical validation when comparing an
        empirical covariance against the desired covariance.
    """

    hermitian_atol: float = 1e-10
    hermitian_rtol: float = 1e-8
    eig_clip_tol: float = 1e-12
    psd_tol: float = 1e-10
    cholesky_jitter: float = 1e-12
    bessel_series_terms: int = 64
    bessel_series_tol: float = 1e-14
    default_rng_seed: int = 20050408  # date of the IPDPS 2005 conference
    covariance_check_rtol: float = 0.15


#: The package-wide default tolerances.
DEFAULTS = NumericDefaults()

