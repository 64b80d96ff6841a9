"""Unit tests for repro.linalg.nearest (PSD approximations)."""

import numpy as np
import pytest

from repro.linalg import (
    clip_negative_eigenvalues,
    frobenius_distance,
    is_positive_semidefinite,
    nearest_psd_higham,
    replace_nonpositive_eigenvalues,
)
from repro.linalg import nearest


class TestFrobeniusDistance:
    def test_zero_for_identical(self, eq22_covariance):
        assert frobenius_distance(eq22_covariance, eq22_covariance) == 0.0

    def test_known_value(self):
        a = np.zeros((2, 2))
        b = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert frobenius_distance(a, b) == pytest.approx(5.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            frobenius_distance(np.eye(2), np.eye(3))


class TestClipNegativeEigenvalues:
    def test_result_is_psd(self, indefinite_covariance):
        clipped = clip_negative_eigenvalues(indefinite_covariance)
        assert is_positive_semidefinite(clipped)

    def test_psd_input_unchanged(self, eq22_covariance):
        clipped = clip_negative_eigenvalues(eq22_covariance)
        assert np.allclose(clipped, eq22_covariance, atol=1e-12)

    def test_result_is_hermitian(self, indefinite_covariance):
        clipped = clip_negative_eigenvalues(indefinite_covariance)
        assert np.allclose(clipped, clipped.conj().T)

    def test_negative_eigenvalues_become_zero(self, indefinite_covariance):
        clipped = clip_negative_eigenvalues(indefinite_covariance)
        eigenvalues = np.linalg.eigvalsh(clipped)
        assert np.min(eigenvalues) >= -1e-12

    def test_positive_eigenvalues_preserved(self, indefinite_covariance):
        original = np.linalg.eigvalsh(indefinite_covariance)
        clipped = np.linalg.eigvalsh(clip_negative_eigenvalues(indefinite_covariance))
        assert np.allclose(sorted(clipped)[1:], sorted(original)[1:], atol=1e-10)

    def test_is_frobenius_projection(self, indefinite_covariance):
        # Clipping must be at least as close as the epsilon replacement for
        # every epsilon (it is the orthogonal projection onto the PSD cone).
        clipped = clip_negative_eigenvalues(indefinite_covariance)
        clip_distance = frobenius_distance(clipped, indefinite_covariance)
        for epsilon in (1e-8, 1e-4, 1e-1):
            replaced = replace_nonpositive_eigenvalues(indefinite_covariance, epsilon)
            assert clip_distance <= frobenius_distance(replaced, indefinite_covariance) + 1e-12

    def test_input_not_mutated(self, indefinite_covariance):
        copy = indefinite_covariance.copy()
        clip_negative_eigenvalues(indefinite_covariance)
        assert np.array_equal(copy, indefinite_covariance)


class TestReplaceNonpositiveEigenvalues:
    def test_result_is_positive_definite(self, indefinite_covariance):
        replaced = replace_nonpositive_eigenvalues(indefinite_covariance, epsilon=1e-6)
        assert np.min(np.linalg.eigvalsh(replaced)) > 0

    def test_zero_eigenvalues_also_replaced(self):
        replaced = replace_nonpositive_eigenvalues(np.ones((3, 3)), epsilon=1e-4)
        assert np.min(np.linalg.eigvalsh(replaced)) == pytest.approx(1e-4, rel=1e-3)

    def test_invalid_epsilon_raises(self, indefinite_covariance):
        with pytest.raises(ValueError):
            replace_nonpositive_eigenvalues(indefinite_covariance, epsilon=0.0)

    def test_larger_epsilon_moves_further(self, indefinite_covariance):
        near = replace_nonpositive_eigenvalues(indefinite_covariance, 1e-8)
        far = replace_nonpositive_eigenvalues(indefinite_covariance, 1e-1)
        assert frobenius_distance(near, indefinite_covariance) < frobenius_distance(
            far, indefinite_covariance
        )


class TestNearestPsdHigham:
    def test_without_diagonal_constraint_equals_clipping(self, indefinite_covariance):
        higham = nearest_psd_higham(indefinite_covariance)
        clipped = clip_negative_eigenvalues(indefinite_covariance)
        assert np.allclose(higham, clipped, atol=1e-12)

    def test_preserve_diagonal(self, indefinite_covariance):
        higham = nearest_psd_higham(indefinite_covariance, preserve_diagonal=True)
        assert np.allclose(np.diag(higham), np.diag(indefinite_covariance), atol=1e-6)

    def test_preserve_diagonal_result_is_psd(self, indefinite_covariance):
        higham = nearest_psd_higham(indefinite_covariance, preserve_diagonal=True)
        assert is_positive_semidefinite(higham)

    def test_psd_input_unchanged(self, eq23_covariance):
        higham = nearest_psd_higham(eq23_covariance, preserve_diagonal=True)
        assert np.allclose(higham, eq23_covariance, atol=1e-8)


def _indefinite_unit_diagonal_family(seed=2024, per_size=20):
    """Seeded indefinite unit-diagonal matrices, N = 3-8, |off-diagonal| <= 0.95."""
    rng = np.random.default_rng(seed)
    for n in range(3, 9):
        made = 0
        while made < per_size:
            upper = np.triu(rng.uniform(-0.95, 0.95, (n, n)), 1)
            matrix = upper + upper.T + np.eye(n)
            if np.linalg.eigvalsh(matrix).min() < -1e-3:
                made += 1
                yield matrix.astype(complex)


def _alternating_projections(matrix):
    """The projection loop alone: the iterate the final clip starts from."""
    diagonal = np.diag(matrix).copy()
    y = matrix.copy()
    delta = np.zeros_like(matrix)
    for _ in range(nearest._HIGHAM_MAX_ITERATIONS):
        r = y - delta
        x = clip_negative_eigenvalues(r)
        delta = x - r
        y_next = x.copy()
        np.fill_diagonal(y_next, diagonal)
        change = frobenius_distance(y_next, y)
        y = y_next
        if change < nearest._HIGHAM_TOL and is_positive_semidefinite(y):
            break
    return y


class TestHighamFeedsTheEigenColoring:
    """``psd_method="higham"`` must serve the inputs it exists for."""

    def test_indefinite_family_colors_with_exact_diagonal(self):
        from repro.core.coloring import compute_coloring

        failures, count = [], 0
        for matrix in _indefinite_unit_diagonal_family():
            count += 1
            higham = nearest_psd_higham(matrix, preserve_diagonal=True)
            assert np.abs(np.diag(higham) - np.diag(matrix)).max() <= 1e-14
            move = frobenius_distance(higham, _alternating_projections(matrix))
            assert move <= 1e-9
            try:
                compute_coloring(matrix, method="eigen", psd_method="higham")
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append((matrix.shape[0], repr(exc)))
        assert count == 120
        assert failures == []

    def test_exhausted_iterations_raise(self, monkeypatch):
        from repro.exceptions import CovarianceError

        monkeypatch.setattr(nearest, "_HIGHAM_MAX_ITERATIONS", 1)
        matrix = next(_indefinite_unit_diagonal_family())
        with pytest.raises(CovarianceError, match="did not converge within 1 "):
            nearest_psd_higham(matrix, preserve_diagonal=True)

    def test_batched_forcing_names_the_slice_that_did_not_converge(self, monkeypatch):
        from repro.exceptions import CovarianceError
        from repro.linalg.batched import _force_psd_stack

        monkeypatch.setattr(nearest, "_HIGHAM_MAX_ITERATIONS", 1)
        good = np.eye(3, dtype=complex)
        bad = next(_indefinite_unit_diagonal_family())
        with pytest.raises(CovarianceError, match="stack index 1") as excinfo:
            _force_psd_stack(np.stack([good, bad]), "higham")
        assert excinfo.value.stack_index == 1
