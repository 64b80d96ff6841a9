"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  More specific subclasses communicate which
stage of the correlated-Rayleigh generation pipeline failed: specification of
the covariance structure, matrix decomposition, Doppler shaping, or
validation of generated envelopes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SpecificationError",
    "DimensionError",
    "PowerError",
    "CovarianceError",
    "NotHermitianError",
    "NotPositiveSemiDefiniteError",
    "DecompositionError",
    "CholeskyError",
    "ColoringError",
    "DopplerError",
    "FilterDesignError",
    "GenerationError",
    "ExperimentError",
    "ParallelExecutionError",
    "ServiceError",
    "BackpressureError",
    "RequestTooLargeError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class SpecificationError(ReproError, ValueError):
    """A user-supplied specification (scenario, powers, delays) is invalid."""


class DimensionError(SpecificationError):
    """Array arguments have inconsistent or unsupported dimensions."""


class PowerError(SpecificationError):
    """A power / variance argument is negative, zero where forbidden, or malformed."""


class CovarianceError(ReproError, ValueError):
    """A covariance matrix violates a structural requirement."""

    def __init__(self, message: str = "", *, stack_index: int | None = None):
        super().__init__(message)
        #: Index of the offending matrix in a batched call's stack, if any.
        self.stack_index = stack_index


class NotHermitianError(CovarianceError):
    """Matrix expected to be Hermitian is not (within tolerance)."""


class NotPositiveSemiDefiniteError(CovarianceError):
    """Matrix expected to be positive semi-definite has negative eigenvalues.

    This is the condition that the paper's forced-PSD procedure (Section 4.2)
    removes; the error is raised only by strict code paths that intentionally
    refuse to repair the matrix (e.g. the Cholesky-based baselines).
    """

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        #: The most negative eigenvalue encountered, if known.
        self.min_eigenvalue = min_eigenvalue


class DecompositionError(ReproError, RuntimeError):
    """A matrix decomposition failed."""

    def __init__(self, message: str = "", *, stack_index: int | None = None):
        super().__init__(message)
        #: Index of the offending matrix in a batched call's stack, if any.
        self.stack_index = stack_index


class CholeskyError(DecompositionError):
    """Cholesky factorization failed (matrix not positive definite).

    The proposed algorithm avoids this failure mode entirely; the exception is
    raised by the conventional baselines that rely on Cholesky decomposition,
    reproducing the shortcoming the paper describes.
    """


class ColoringError(DecompositionError):
    """Computation of a coloring matrix ``L`` with ``L L^H = K`` failed."""


class DopplerError(ReproError, ValueError):
    """Doppler-related parameters are invalid (e.g. normalized Doppler >= 0.5)."""


class FilterDesignError(DopplerError):
    """The Doppler filter cannot be designed for the requested parameters."""


class GenerationError(ReproError, RuntimeError):
    """Envelope generation failed at run time."""


class ExperimentError(ReproError, RuntimeError):
    """An experiment (paper figure/table reproduction) could not be run."""


class ParallelExecutionError(ReproError, RuntimeError):
    """Concurrent execution refused or failed (e.g. a submit to a closed session)."""


class ServiceError(ReproError, RuntimeError):
    """The serving layer rejected or could not satisfy a request.

    Raised by :class:`repro.service.EnvelopeService` for protocol-level
    failures: submitting to a stopped service, requesting the result of an
    unknown request id, or malformed wire payloads.
    """


class BackpressureError(ServiceError):
    """The service's bounded submission queue is full.

    The request was rejected *without* blocking the event loop; the client
    should retry after ``retry_after`` seconds (the HTTP front end maps
    this to ``429 Too Many Requests`` with a ``Retry-After`` header).
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        #: Suggested client back-off in seconds before resubmitting.
        self.retry_after = float(retry_after)


class RequestTooLargeError(ServiceError):
    """A request asks for a result record above the service's byte budget.

    Raised by :meth:`repro.service.EnvelopeService.submit` before anything
    is queued or allocated; the HTTP front end answers ``413 Payload Too
    Large``.
    """
