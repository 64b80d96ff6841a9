"""Library-wide numeric tolerances.

The paper's generator is one fixed numerical recipe, and these are its
constants.  Centralizing them keeps the numerical behaviour of the package
consistent: the same Hermitian-symmetry tolerance is used when *checking*
covariance matrices and when *symmetrizing* them, the same eigenvalue cutoff
is used by the forced-PSD procedure and by the positive-semi-definiteness
predicate, and so on.  They are not settable: the cache keys fold in the
four decomposition tolerances, so editing one here is a change of method
that invalidates every stored compiled plan.

No cache directory comes from the environment: a persistent cache is
always named explicitly (``cache_dir=``, or ``--cache-dir`` on the command
line).
"""

from __future__ import annotations

__all__ = [
    "HERMITIAN_ATOL",
    "HERMITIAN_RTOL",
    "EIG_CLIP_TOL",
    "PSD_TOL",
    "CHOLESKY_JITTER",
    "BESSEL_SERIES_TERMS",
    "BESSEL_SERIES_TOL",
    "DEFAULT_RNG_SEED",
]

#: Absolute tolerance when testing ``K == K^H``.
HERMITIAN_ATOL = 1e-10

#: Relative tolerance when testing ``K == K^H``.
HERMITIAN_RTOL = 1e-8

#: Eigenvalues in ``[-EIG_CLIP_TOL, 0)`` (relative to the largest magnitude)
#: are numerical zeros: clipped to zero without counting as "negative" for
#: diagnostics.
EIG_CLIP_TOL = 1e-12

#: Eigenvalue threshold, relative to the largest eigenvalue magnitude,
#: below which a matrix is declared *not* positive semi-definite.
PSD_TOL = 1e-10

#: Diagonal jitter that the Cholesky baseline adds before retrying a failed
#: factorization (kept tiny; the proposed eigen method never needs it).
CHOLESKY_JITTER = 1e-12

#: Number of terms summed of the Salz-Winters Bessel series (Eq. 5-6)
#: before the adaptive stopping criterion can end it early.
BESSEL_SERIES_TERMS = 64

#: Adaptive stopping tolerance for the Bessel series: summation stops once
#: a term's magnitude drops below this value.
BESSEL_SERIES_TOL = 1e-14

#: Seed used when the caller supplies neither a seed nor a generator, so an
#: unseeded run is still reproducible.  Experiments always pass explicit
#: seeds.  (The date of the IPDPS 2005 conference.)
DEFAULT_RNG_SEED = 20050408
