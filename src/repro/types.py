"""Shared typing aliases and small value objects used throughout the package."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Union

import numpy as np

__all__ = [
    "ComplexArray",
    "FloatArray",
    "SeedLike",
    "EnvelopeBlock",
    "GaussianBlock",
]

#: A complex-valued ndarray.
ComplexArray = np.ndarray

#: A real-valued ndarray.
FloatArray = np.ndarray

#: Acceptable seed inputs: ``None``, an int, or an existing Generator.
SeedLike = Union[None, int, np.random.Generator]


@dataclass
class GaussianBlock:
    """A block of correlated complex Gaussian samples.

    Attributes
    ----------
    samples:
        Complex array of shape ``(n_branches, n_samples)``; row ``j`` holds
        the samples of the complex Gaussian process ``z_j``.
    variances:
        Desired per-branch complex-Gaussian variances ``sigma_g_j^2``
        (length ``n_branches``).
    metadata:
        Free-form information recorded by the generator (seed, method, the
        covariance matrix actually used, ...).
    """

    samples: ComplexArray
    variances: FloatArray
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def n_branches(self) -> int:
        """Number of correlated branches (rows)."""
        return int(self.samples.shape[0])

    @property
    def n_samples(self) -> int:
        """Number of time samples per branch (columns)."""
        return int(self.samples.shape[1]) if self.samples.ndim > 1 else 1

    def envelopes(self) -> "EnvelopeBlock":
        """Return the Rayleigh envelopes ``r_j = |z_j|`` of this block."""
        return EnvelopeBlock(
            envelopes=np.abs(self.samples),
            gaussian_variances=np.asarray(self.variances, dtype=float),
            metadata=dict(self.metadata),
        )


@dataclass
class EnvelopeBlock:
    """A block of Rayleigh fading envelopes.

    Attributes
    ----------
    envelopes:
        Real non-negative array of shape ``(n_branches, n_samples)``.
    gaussian_variances:
        Variances ``sigma_g_j^2`` of the complex Gaussian processes the
        envelopes were derived from.
    metadata:
        Free-form provenance information.
    """

    envelopes: FloatArray
    gaussian_variances: FloatArray
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def n_branches(self) -> int:
        """Number of envelopes (rows)."""
        return int(self.envelopes.shape[0])

    @property
    def n_samples(self) -> int:
        """Number of time samples per envelope (columns)."""
        return int(self.envelopes.shape[1]) if self.envelopes.ndim > 1 else 1

    def rms(self) -> FloatArray:
        """Per-branch root-mean-square envelope value."""
        return np.sqrt(np.mean(self.envelopes**2, axis=-1))
