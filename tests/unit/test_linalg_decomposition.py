"""Unit tests for repro.linalg.decomposition (ColoringDecomposition)."""

import numpy as np
import pytest

from repro.core.coloring import compute_coloring
from repro.linalg import ColoringDecomposition, frobenius_distance


class TestColoringDecomposition:
    def test_reconstruction_error_small_for_pd(self, eq22_covariance):
        decomp = compute_coloring(eq22_covariance)
        assert decomp.reconstruction_error() < 1e-10

    def test_effective_is_requested_when_not_repaired(self, eq22_covariance):
        decomp = compute_coloring(eq22_covariance)
        assert not decomp.was_repaired
        assert frobenius_distance(decomp.effective_covariance, eq22_covariance) < 1e-12

    def test_effective_differs_when_repaired(self, indefinite_covariance):
        decomp = compute_coloring(indefinite_covariance)
        assert decomp.was_repaired
        assert frobenius_distance(decomp.effective_covariance, indefinite_covariance) > 0.01

    def test_size(self, eq22_covariance):
        assert compute_coloring(eq22_covariance).size == 3

    def test_records_method(self, eq22_covariance):
        assert compute_coloring(eq22_covariance, method="eigen").method == "eigen"

    def test_records_negative_eigenvalue_count(self, indefinite_covariance):
        decomp = compute_coloring(indefinite_covariance)
        assert decomp.negative_eigenvalue_count == 1

    def test_min_eigenvalue_recorded(self, indefinite_covariance):
        decomp = compute_coloring(indefinite_covariance)
        assert decomp.min_eigenvalue == pytest.approx(
            np.min(np.linalg.eigvalsh(indefinite_covariance))
        )

    def test_frozen_dataclass(self, eq22_covariance):
        decomp = compute_coloring(eq22_covariance)
        with pytest.raises((AttributeError, TypeError)):
            decomp.method = "other"  # type: ignore[misc]

    def test_is_coloring_decomposition_instance(self, eq22_covariance):
        assert isinstance(compute_coloring(eq22_covariance), ColoringDecomposition)
