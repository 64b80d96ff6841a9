"""Assembly of the complex-Gaussian covariance matrix ``K`` (Eq. 12–13).

The paper's key modelling decision is to describe the desired correlation
structure through the covariance matrix of the *complex Gaussian* variables
``z_j`` (whose moduli are the Rayleigh envelopes), not through the covariance
of the envelopes themselves.  Its entries are

.. math::

    \\mu_{k,j} = \\begin{cases}
        \\sigma_{g_j}^2 & k = j\\\\
        (R_{xx}^{k,j} + R_{yy}^{k,j}) - i\\,(R_{xy}^{k,j} - R_{yx}^{k,j}) & k \\ne j
    \\end{cases}

where the four ``R`` terms are the covariances between the real and imaginary
parts of ``z_k`` and ``z_j`` — supplied either directly or via the spectral /
spatial correlation models of :mod:`repro.channels`.

:class:`CovarianceSpec` is the single input object consumed by the
generators: it couples the matrix ``K`` with the per-branch powers and
remembers whether the caller originally specified envelope powers (in which
case Eq. 11 was applied).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..exceptions import CovarianceError, DimensionError, PowerError
from ..linalg import assert_hermitian, assert_square, is_positive_semidefinite
from ..linalg.checks import all_close
from .variance import envelope_power_to_gaussian_power

__all__ = [
    "covariance_entry",
    "decompose_covariance_entry",
    "build_covariance_matrix",
    "correlation_coefficient_matrix",
    "CovarianceSpec",
]


def covariance_entry(rxx: float, ryy: float, rxy: float, ryx: float) -> complex:
    """Off-diagonal covariance entry ``mu_{k,j}`` from its four real components (Eq. 13)."""
    return complex(rxx + ryy, -(rxy - ryx))


def decompose_covariance_entry(entry: complex) -> Tuple[float, float, float, float]:
    """Split a covariance entry back into ``(Rxx, Ryy, Rxy, Ryx)``.

    The decomposition assumes the circular-symmetry conditions the paper uses
    throughout (``Rxx = Ryy`` and ``Rxy = -Ryx``), under which it is exact:
    ``Rxx = Re(mu)/2`` and ``Rxy = -Im(mu)/2``.
    """
    entry = complex(entry)
    rxx = entry.real / 2.0
    rxy = -entry.imag / 2.0
    return rxx, rxx, rxy, -rxy


def build_covariance_matrix(
    gaussian_variances: np.ndarray,
    rxx: np.ndarray,
    ryy: np.ndarray,
    rxy: np.ndarray,
    ryx: np.ndarray,
) -> np.ndarray:
    """Assemble the Hermitian covariance matrix ``K`` from its components (Eq. 12–13).

    Parameters
    ----------
    gaussian_variances:
        Per-branch powers ``sigma_g_j^2`` placed on the diagonal.
    rxx, ryy, rxy, ryx:
        ``(N, N)`` matrices of covariances between real/imaginary parts for
        each ordered pair ``(k, j)``; diagonals are ignored.

    Returns
    -------
    numpy.ndarray
        The ``(N, N)`` complex covariance matrix ``K``.

    Raises
    ------
    CovarianceError
        If the assembled matrix is not Hermitian — which happens exactly when
        the supplied components are mutually inconsistent (e.g.
        ``Rxx[k, j] != Rxx[j, k]`` or ``Rxy[k, j] != Ryx[j, k]``).
    """
    variances = np.asarray(gaussian_variances, dtype=float)
    n = variances.shape[0]
    if variances.ndim != 1 or n < 1:
        raise DimensionError("gaussian_variances must be a non-empty 1-D array")
    if np.any(variances <= 0) or np.any(~np.isfinite(variances)):
        raise PowerError("all gaussian variances must be positive and finite")
    components = []
    for name, mat in (("rxx", rxx), ("ryy", ryy), ("rxy", rxy), ("ryx", ryx)):
        arr = np.asarray(mat, dtype=float)
        if arr.shape != (n, n):
            raise DimensionError(f"{name} must have shape ({n}, {n}), got {arr.shape}")
        components.append(arr)
    rxx_m, ryy_m, rxy_m, ryx_m = components

    matrix = (rxx_m + ryy_m) - 1j * (rxy_m - ryx_m)
    matrix = matrix.astype(complex)
    np.fill_diagonal(matrix, variances.astype(complex))
    try:
        assert_hermitian(matrix, "assembled covariance matrix")
    except CovarianceError as exc:
        raise CovarianceError(
            "the covariance components are inconsistent: the assembled matrix is not "
            f"Hermitian ({exc}). Check that Rxx/Ryy are symmetric and Rxy[k, j] == Ryx[j, k]."
        ) from exc
    return matrix


def correlation_coefficient_matrix(covariance: np.ndarray) -> np.ndarray:
    """Normalize a covariance matrix to unit diagonal.

    Returns ``rho[k, j] = K[k, j] / sqrt(K[k, k] K[j, j])``, the complex
    correlation-coefficient matrix of the Gaussian branches.
    """
    arr = assert_square(covariance, "covariance matrix")
    diagonal = np.real(np.diag(arr))
    if np.any(diagonal <= 0):
        raise CovarianceError(
            "cannot normalize: the covariance matrix has non-positive diagonal entries"
        )
    scale = np.sqrt(np.outer(diagonal, diagonal))
    return arr / scale


@dataclass(frozen=True)
class CovarianceSpec:
    """Complete specification of the desired correlation structure.

    Attributes
    ----------
    matrix:
        The desired covariance matrix ``K`` of the complex Gaussian branches.
    gaussian_variances:
        Per-branch powers ``sigma_g_j^2`` (the diagonal of ``matrix``).
    envelope_variances:
        The envelope variances ``sigma_r_j^2`` originally requested, when the
        spec was built from envelope powers; ``None`` otherwise.
    metadata:
        Provenance (which physical model produced the matrix, its
        parameters, ...).
    """

    matrix: np.ndarray
    gaussian_variances: np.ndarray
    envelope_variances: Optional[np.ndarray] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=complex)
        # Finiteness before symmetry: NaN != NaN, so a NaN matrix would
        # otherwise be refused as "not Hermitian".  Shape errors still win.
        if not np.isfinite(matrix).all():
            assert_square(matrix, "covariance matrix")
            raise CovarianceError("the covariance matrix has non-finite entries")
        assert_hermitian(matrix, "covariance matrix")
        variances = np.asarray(self.gaussian_variances, dtype=float)
        if variances.shape != (matrix.shape[0],):
            raise DimensionError(
                f"gaussian_variances must have shape ({matrix.shape[0]},), "
                f"got {variances.shape}"
            )
        if np.any(variances <= 0):
            raise PowerError("all gaussian variances must be positive")
        if not all_close(matrix.diagonal().real, variances, rtol=1e-8, atol=1e-12):
            raise CovarianceError(
                "the diagonal of the covariance matrix must equal the gaussian variances"
            )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "gaussian_variances", variances)
        if self.envelope_variances is not None:
            env = np.asarray(self.envelope_variances, dtype=float)
            if env.shape != variances.shape:
                raise DimensionError(
                    "envelope_variances must have the same shape as gaussian_variances"
                )
            object.__setattr__(self, "envelope_variances", env)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_covariance_matrix(
        cls, matrix: np.ndarray, metadata: Optional[Dict[str, Any]] = None
    ) -> "CovarianceSpec":
        """Build a spec directly from a covariance matrix ``K``.

        The per-branch Gaussian powers are read off the diagonal; the
        constructor validates the matrix.
        """
        arr = assert_square(np.asarray(matrix, dtype=complex), "covariance matrix")
        return cls(
            matrix=arr,
            gaussian_variances=np.real(np.diag(arr)).copy(),
            metadata=dict(metadata or {}),
        )

    @classmethod
    def from_components(
        cls,
        gaussian_variances: np.ndarray,
        rxx: np.ndarray,
        ryy: np.ndarray,
        rxy: np.ndarray,
        ryx: np.ndarray,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> "CovarianceSpec":
        """Build a spec from Gaussian powers and the four covariance component matrices."""
        variances = np.asarray(gaussian_variances, dtype=float)
        matrix = build_covariance_matrix(variances, rxx, ryy, rxy, ryx)
        return cls(matrix=matrix, gaussian_variances=variances, metadata=dict(metadata or {}))

    @classmethod
    def from_envelope_variances(
        cls,
        envelope_variances: np.ndarray,
        normalized_correlation: np.ndarray,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> "CovarianceSpec":
        """Build a spec from desired *envelope* powers and a correlation-coefficient matrix.

        Step 1 of the algorithm (Eq. 11) converts the envelope variances into
        Gaussian powers; the supplied unit-diagonal complex correlation matrix
        is then scaled into a covariance matrix.
        """
        env = np.asarray(envelope_variances, dtype=float)
        if env.ndim != 1 or env.size == 0:
            raise DimensionError("envelope_variances must be a non-empty 1-D array")
        gaussian = envelope_power_to_gaussian_power(env)
        rho = np.asarray(normalized_correlation, dtype=complex)
        assert_hermitian(rho, "normalized correlation matrix")
        if rho.shape != (env.size, env.size):
            raise DimensionError(
                f"normalized_correlation must have shape ({env.size}, {env.size}), "
                f"got {rho.shape}"
            )
        if not np.allclose(np.real(np.diag(rho)), 1.0, atol=1e-8):
            raise CovarianceError("normalized_correlation must have a unit diagonal")
        scale = np.sqrt(np.outer(gaussian, gaussian))
        matrix = rho * scale
        return cls(
            matrix=matrix,
            gaussian_variances=gaussian,
            envelope_variances=env,
            metadata=dict(metadata or {}),
        )

    # ------------------------------------------------------------------ #
    # Properties / helpers
    # ------------------------------------------------------------------ #
    @property
    def n_branches(self) -> int:
        """Number of correlated branches."""
        return int(self.matrix.shape[0])

    def is_positive_semidefinite(self) -> bool:
        """Whether the requested covariance matrix is positive semi-definite."""
        return is_positive_semidefinite(self.matrix)

    def correlation_coefficients(self) -> np.ndarray:
        """Unit-diagonal complex correlation-coefficient matrix."""
        return correlation_coefficient_matrix(self.matrix)
