"""Unit tests: batched linalg entry points match their single-matrix twins."""

import numpy as np
import pytest

from repro.core.coloring import compute_coloring, compute_coloring_batch
from repro.core.psd import force_positive_semidefinite
from repro.engine import NumpyBackend
from repro.exceptions import CholeskyError, CovarianceError, DimensionError
from repro.linalg import (
    batched_cholesky_factor,
    batched_clip_negative_eigenvalues,
    batched_force_positive_semidefinite,
    batched_hermitian_eigendecomposition,
    batched_hermitian_part,
    clip_negative_eigenvalues,
    hermitian_eigendecomposition,
)


@pytest.fixture(scope="module")
def psd_stack():
    """A stack of distinct PSD matrices with unequal powers."""
    rng = np.random.default_rng(7)
    matrices = []
    for index in range(6):
        basis = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        matrix = basis @ basis.conj().T / 5
        powers = rng.uniform(0.3, 3.0, 4)
        scale = np.sqrt(powers / np.real(np.diag(matrix)))
        matrices.append(matrix * np.outer(scale, scale))
    return np.stack(matrices)


@pytest.fixture(scope="module")
def mixed_stack(psd_stack):
    """PSD and non-PSD matrices mixed in one stack."""
    indefinite = np.array(
        [
            [1.0, 0.9, 0.1, 0.0],
            [0.9, 1.0, 0.9, 0.0],
            [0.1, 0.9, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )
    assert np.min(np.linalg.eigvalsh(indefinite)) < 0
    return np.concatenate([psd_stack[:2], indefinite[np.newaxis]], axis=0)


class TestStackValidation:
    def test_rejects_2d_input(self):
        with pytest.raises(DimensionError):
            batched_hermitian_part(np.eye(3))

    def test_rejects_non_square_slices(self):
        with pytest.raises(DimensionError):
            batched_hermitian_part(np.zeros((2, 3, 4)))

    def test_rejects_empty_stack(self):
        with pytest.raises(DimensionError):
            batched_hermitian_part(np.zeros((0, 3, 3)))


class TestBatchedEigendecomposition:
    def test_matches_single_matrix_path(self, psd_stack):
        batched = batched_hermitian_eigendecomposition(psd_stack)
        for index in range(psd_stack.shape[0]):
            single = hermitian_eigendecomposition(psd_stack[index])
            assert np.array_equal(single.eigenvalues, batched.eigenvalues[index])
            assert np.array_equal(single.eigenvectors, batched.eigenvectors[index])

    def test_descending_order(self, psd_stack):
        batched = batched_hermitian_eigendecomposition(psd_stack)
        assert np.all(np.diff(batched.eigenvalues, axis=-1) <= 0)

    def test_min_max_properties(self, psd_stack):
        batched = batched_hermitian_eigendecomposition(psd_stack)
        assert np.array_equal(batched.min_eigenvalues, batched.eigenvalues[:, -1])
        assert np.array_equal(batched.max_eigenvalues, batched.eigenvalues[:, 0])
        assert batched.batch_size == psd_stack.shape[0]
        assert batched.size == psd_stack.shape[1]


class TestBatchedCholesky:
    def test_matches_numpy_per_slice(self, psd_stack):
        factors = batched_cholesky_factor(psd_stack)
        for index in range(psd_stack.shape[0]):
            herm = 0.5 * (psd_stack[index] + psd_stack[index].conj().T)
            assert np.array_equal(np.linalg.cholesky(herm), factors[index])

    def test_reports_failing_index(self, mixed_stack):
        with pytest.raises(CholeskyError, match="stack index 2"):
            batched_cholesky_factor(mixed_stack)


class TestBatchedPSDForcing:
    def test_clip_matches_single(self, mixed_stack):
        batched = batched_force_positive_semidefinite(mixed_stack, method="clip")
        for index in range(mixed_stack.shape[0]):
            single = force_positive_semidefinite(mixed_stack[index], method="clip")
            assert np.array_equal(single.matrix, batched[index].matrix)
            assert single.was_modified == batched[index].was_modified
            assert single.frobenius_error == batched[index].frobenius_error
            assert np.array_equal(
                single.negative_eigenvalues, batched[index].negative_eigenvalues
            )

    def test_epsilon_matches_single(self, mixed_stack):
        batched = batched_force_positive_semidefinite(
            mixed_stack, method="epsilon", epsilon=1e-5
        )
        for index in range(mixed_stack.shape[0]):
            single = force_positive_semidefinite(
                mixed_stack[index], method="epsilon", epsilon=1e-5
            )
            assert np.array_equal(single.matrix, batched[index].matrix)
            assert batched[index].was_modified  # epsilon always perturbs

    def test_higham_matches_single(self, mixed_stack):
        batched = batched_force_positive_semidefinite(mixed_stack, method="higham")
        for index in range(mixed_stack.shape[0]):
            single = force_positive_semidefinite(mixed_stack[index], method="higham")
            assert np.array_equal(single.matrix, batched[index].matrix)

    def test_unknown_method_rejected(self, psd_stack):
        with pytest.raises(ValueError):
            batched_force_positive_semidefinite(psd_stack, method="nope")

    def test_clip_reconstructs_only_the_repaired_slices(self, mixed_stack):
        shapes = []

        class MatmulCountingBackend(NumpyBackend):
            def matmul(self, a, b):
                shapes.append(a.shape)
                return super().matmul(a, b)

        batched = batched_force_positive_semidefinite(
            mixed_stack, method="clip", backend=MatmulCountingBackend()
        )
        assert shapes == [(1, 4, 4)]  # only the indefinite slice 2
        for index in (0, 1):
            assert batched[index].matrix.tobytes() == mixed_stack[index].tobytes()

    def test_unrepairable_slice_is_named(self):
        stack = np.stack([np.eye(2), [[1.0, 1e308], [1e308, 1.0]], 2.0 * np.eye(2)])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(CovarianceError, match="at stack index 1;") as info:
                batched_force_positive_semidefinite(stack, method="clip")
        assert info.value.stack_index == 1

    @pytest.mark.parametrize("method", ["clip", "epsilon"])
    def test_non_finite_hermitian_part_is_named(self, method):
        bad = np.eye(4)
        bad[0, 1] = bad[1, 0] = 1e308
        stack = np.stack([np.eye(4), 2.0 * np.eye(4), bad])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(CovarianceError, match="at stack index 2;") as info:
                batched_force_positive_semidefinite(stack, method=method)
        assert info.value.stack_index == 2

    def test_eigh_failure_names_its_first_failing_slice(self):
        class FailingBackend(NumpyBackend):
            """``eigh`` fails on any stack holding a matrix with trace 7."""

            def eigh(self, a):
                if np.any(np.isclose(np.trace(a, axis1=1, axis2=2).real, 7.0)):
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                return super().eigh(a)

        stack = np.stack([np.eye(2), np.diag([3.0, 4.0]), np.eye(2)])
        with pytest.raises(CovarianceError, match="at stack index 1 ") as info:
            batched_force_positive_semidefinite(stack, backend=FailingBackend())
        assert info.value.stack_index == 1
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_clip_helper_matches_single(self, mixed_stack):
        repaired = batched_clip_negative_eigenvalues(mixed_stack)
        for index in range(mixed_stack.shape[0]):
            assert np.array_equal(
                clip_negative_eigenvalues(mixed_stack[index]), repaired[index]
            )


class TestBatchedColoring:
    @pytest.mark.parametrize("method", ["eigen", "cholesky", "svd"])
    @pytest.mark.parametrize("psd_method", ["clip", "epsilon"])
    def test_psd_stack_matches_single(self, psd_stack, method, psd_method):
        batched = compute_coloring_batch(psd_stack, method=method, psd_method=psd_method)
        for index in range(psd_stack.shape[0]):
            single = compute_coloring(
                psd_stack[index], method=method, psd_method=psd_method
            )
            assert np.array_equal(single.coloring_matrix, batched[index].coloring_matrix)
            assert np.array_equal(
                single.effective_covariance, batched[index].effective_covariance
            )
            assert single.min_eigenvalue == batched[index].min_eigenvalue
            assert single.was_repaired == batched[index].was_repaired

    @pytest.mark.parametrize("method", ["eigen", "svd"])
    def test_non_psd_repair_matches_single(self, mixed_stack, method):
        batched = compute_coloring_batch(mixed_stack, method=method, psd_method="clip")
        for index in range(mixed_stack.shape[0]):
            single = compute_coloring(mixed_stack[index], method=method, psd_method="clip")
            assert np.array_equal(single.coloring_matrix, batched[index].coloring_matrix)
            assert single.negative_eigenvalue_count == batched[index].negative_eigenvalue_count
            assert (
                single.extra["psd_frobenius_error"]
                == batched[index].extra["psd_frobenius_error"]
            )

    def test_reconstruction_property(self, mixed_stack):
        batched = compute_coloring_batch(mixed_stack, method="eigen", psd_method="clip")
        for decomposition in batched:
            assert decomposition.reconstruction_error() < 1e-10

    def test_unknown_method_rejected(self, psd_stack):
        with pytest.raises(ValueError):
            compute_coloring_batch(psd_stack, method="qr")
