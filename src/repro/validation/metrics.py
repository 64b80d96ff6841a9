"""Error metrics used by the validation checks and the experiment tables."""

from __future__ import annotations

import numpy as np

__all__ = ["relative_frobenius_error", "max_absolute_error"]


def relative_frobenius_error(measured: np.ndarray, desired: np.ndarray) -> float:
    """``||measured - desired||_F / ||desired||_F`` (``inf`` for a zero target)."""
    measured = np.asarray(measured)
    desired = np.asarray(desired)
    if measured.shape != desired.shape:
        raise ValueError(
            f"arrays must have the same shape, got {measured.shape} and {desired.shape}"
        )
    denom = float(np.linalg.norm(desired))
    if denom == 0.0:
        return float("inf") if float(np.linalg.norm(measured)) > 0 else 0.0
    return float(np.linalg.norm(measured - desired)) / denom


def max_absolute_error(measured: np.ndarray, desired: np.ndarray) -> float:
    """Largest absolute element-wise deviation."""
    measured = np.asarray(measured)
    desired = np.asarray(desired)
    if measured.shape != desired.shape:
        raise ValueError(
            f"arrays must have the same shape, got {measured.shape} and {desired.shape}"
        )
    return float(np.max(np.abs(measured - desired)))

