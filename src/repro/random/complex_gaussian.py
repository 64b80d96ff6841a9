"""Sampling of circularly-symmetric complex Gaussian variables.

Step 6 of the paper's algorithm (Section 4.4) requires "a column vector W of
N independent complex Gaussian random samples with zero means and arbitrary,
equal variances sigma_g^2"; :func:`complex_gaussian` draws it.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..exceptions import PowerError
from ..types import ComplexArray, SeedLike
from .rng import ensure_rng

__all__ = ["complex_gaussian"]

ShapeLike = Union[int, Tuple[int, ...]]


def _validate_variance(variance: float) -> float:
    variance = float(variance)
    if not np.isfinite(variance) or variance <= 0.0:
        raise PowerError(f"variance must be a positive finite number, got {variance!r}")
    return variance


def complex_gaussian(
    shape: ShapeLike,
    variance: float = 1.0,
    rng: SeedLike = None,
    *,
    out: ComplexArray = None,
) -> ComplexArray:
    """Sample zero-mean circular complex Gaussian variables.

    Parameters
    ----------
    shape:
        Output shape.
    variance:
        Total variance ``sigma_g^2 = E|u|^2``; split equally between the real
        and imaginary parts (``sigma_g^2 / 2`` each), which is the circular
        symmetry assumed throughout the paper.
    rng:
        Seed or generator.
    out:
        Optional preallocated complex array of the requested shape to write
        into (the batched engine fills one slice of its batch buffer per
        entry).  The generator stream and the sampled values are identical
        with and without ``out``.

    Returns
    -------
    numpy.ndarray
        Complex array of the requested shape (``out`` when provided).
    """
    variance = _validate_variance(variance)
    gen = ensure_rng(rng)
    scale = np.sqrt(variance / 2.0)
    shape_tuple = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    # One draw of (2, *shape) consumes the generator stream exactly like two
    # sequential draws of *shape* (the ziggurat samples value by value), so
    # this is bit-compatible with the historical two-call implementation
    # while halving the per-call overhead.
    values = gen.normal(0.0, scale, size=(2,) + shape_tuple)
    real, imag = values[0], values[1]
    if out is not None:
        if out.shape != real.shape:
            raise ValueError(f"out must have shape {real.shape}, got {out.shape}")
        out.real = real
        out.imag = imag
        return out
    return real + 1j * imag

