"""Unit tests for the engine's single numpy linalg path.

Compile runs one stacked ``numpy.linalg`` decomposition per shape group,
execute one stacked ``np.matmul(out=)`` coloring product and, for Doppler
plans, one in-place ``np.fft.ifft``.  These tests pin what that path owes
its callers: fresh engines reproduce each other bit for bit (including the
non-PSD repair path, streaming with block sizes that do not divide the
record length, and Doppler plans), the coloring factor reproduces the
effective covariance, a shared decomposition cache serves every entry, and
the module-level seams tests patch really carry every call.
"""

import numpy as np
import pytest

from repro.api import Simulator
from repro.core import CovarianceSpec
from repro.engine import (
    DecompositionCache,
    DopplerSpec,
    SimulationEngine,
    SimulationPlan,
)


def _psd_spec(rng, size):
    basis = rng.normal(size=(size, size + 1)) + 1j * rng.normal(size=(size, size + 1))
    return CovarianceSpec.from_covariance_matrix(basis @ basis.conj().T / (size + 1))


def _non_psd_spec(scale=1.0):
    # Correlation pattern (+0.9 / -0.9) that cannot be realized jointly:
    # the matrix is Hermitian with a genuinely negative eigenvalue, so the
    # compile path must run the Section 4.2 repair.
    matrix = scale * np.array(
        [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]], dtype=complex
    )
    return CovarianceSpec.from_covariance_matrix(matrix)


def _mixed_plan(seed=123):
    """A plan mixing shapes and PSD-ness (so the repair path is exercised)."""
    rng = np.random.default_rng(seed)
    specs = [
        _psd_spec(rng, 3),
        _non_psd_spec(),
        _psd_spec(rng, 2),
        _non_psd_spec(scale=2.5),
        _psd_spec(rng, 3),
    ]
    return SimulationPlan.from_specs(specs, seed=seed)


def _doppler_plan(seed=321, n_points=64):
    """A Doppler plan mixing shapes, block lengths, and compensation flags."""
    rng = np.random.default_rng(seed)
    plan = SimulationPlan()
    plan.add(_psd_spec(rng, 3), seed=seed + 1, doppler=DopplerSpec(0.05, n_points))
    plan.add(_non_psd_spec(), seed=seed + 2, doppler=DopplerSpec(0.05, n_points))
    plan.add(
        _psd_spec(rng, 2),
        seed=seed + 3,
        doppler=DopplerSpec(0.1, 2 * n_points, compensate_variance=False),
    )
    return plan


def _fresh_engine():
    return SimulationEngine(cache=DecompositionCache())


def _assert_same_samples(reference, result):
    assert len(reference.blocks) == len(result.blocks)
    for ref_block, block in zip(reference.blocks, result.blocks):
        assert np.array_equal(ref_block.samples, block.samples)


def _assert_same_streams(reference, streamed):
    assert len(reference) == len(streamed)
    for ref_batch, batch in zip(reference, streamed):
        _assert_same_samples(ref_batch, batch)


class TestReproducibility:
    def test_execute_plan_bit_identical_including_repair_path(self):
        plan = _mixed_plan()
        reference = _fresh_engine().run(plan, 48)
        result = _fresh_engine().run(plan, 48)
        repaired = [block.metadata["was_repaired"] for block in reference.blocks]
        assert any(repaired), "plan must exercise the non-PSD repair path"
        _assert_same_samples(reference, result)
        assert repaired == [block.metadata["was_repaired"] for block in result.blocks]

    def test_cholesky_coloring_bit_identical(self):
        rng = np.random.default_rng(7)
        specs = [_psd_spec(rng, 3) for _ in range(3)]
        plan = SimulationPlan.from_specs(specs, seed=7, coloring_method="cholesky")
        _assert_same_samples(_fresh_engine().run(plan, 16), _fresh_engine().run(plan, 16))

    def test_stream_plan_non_divisible_blocks_bit_identical(self):
        plan = _mixed_plan(seed=55)
        # block_size 7 never divides the implicit record lengths evenly and
        # stresses the persistent per-entry generators across blocks.
        reference = list(_fresh_engine().stream(plan, block_size=7, n_blocks=5))
        streamed = list(_fresh_engine().stream(plan, block_size=7, n_blocks=5))
        _assert_same_streams(reference, streamed)

    def test_coloring_factor_reproduces_effective_covariance(self):
        plan = _mixed_plan(seed=99)
        compiled = _fresh_engine().compile(plan)
        for index in range(plan.n_entries):
            decomposition = compiled.decomposition_for(index)
            factor = decomposition.coloring_matrix
            np.testing.assert_allclose(
                factor @ factor.conj().T,
                decomposition.effective_covariance,
                atol=1e-10,
            )


class TestDopplerTransform:
    #: Transform lengths covering power-of-two and mixed-radix pocketfft paths.
    LENGTHS = (64, 96, 100, 128)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_in_place_ifft_matches_out_of_place(self, n):
        # batched_doppler_blocks transforms its weighted buffer in place
        # (``out=`` aliasing the input); that must not change a single bit.
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))
        expected = np.fft.ifft(stack, axis=-1)
        np.fft.ifft(stack, axis=-1, out=stack)
        assert np.array_equal(stack, expected)

    def test_doppler_execute_bit_identical(self):
        plan = _doppler_plan(seed=77)
        _assert_same_samples(_fresh_engine().run(plan, 100), _fresh_engine().run(plan, 100))

    def test_doppler_stream_non_divisible_blocks_bit_identical(self):
        plan = _doppler_plan(seed=88)
        # block_size 23 never divides the IDFT lengths and stresses the
        # per-group Doppler buffers across blocks.
        reference = list(_fresh_engine().stream(plan, block_size=23, n_blocks=5))
        streamed = list(_fresh_engine().stream(plan, block_size=23, n_blocks=5))
        _assert_same_streams(reference, streamed)


class TestSharedCache:
    @pytest.mark.parametrize("make_plan", [_mixed_plan, _doppler_plan])
    def test_second_engine_hits_every_entry(self, make_plan):
        plan = make_plan()
        cache = DecompositionCache()
        reference = SimulationEngine(cache=cache).run(plan, 4)
        result = SimulationEngine(cache=cache).run(plan, 4)
        assert result.compile_report.cache_hits == plan.n_entries
        assert result.compile_report.cache_misses == 0
        _assert_same_samples(reference, result)


class TestPatchedSeams:
    def test_patched_eigh_and_matmul_carry_every_call(self, monkeypatch):
        from repro.engine import execute
        from repro.linalg import batched

        calls = {"eigh": 0, "matmul": 0}
        eigh = batched._eigh_hermitian_stack
        matmul_into = execute._matmul_into

        def counting_eigh(herm):
            calls["eigh"] += 1
            return eigh(herm)

        def counting_matmul_into(a, b, out):
            calls["matmul"] += 1
            return matmul_into(a, b, out)

        monkeypatch.setattr(batched, "_eigh_hermitian_stack", counting_eigh)
        monkeypatch.setattr(execute, "_matmul_into", counting_matmul_into)
        plan = _mixed_plan(seed=11)
        result = _fresh_engine().run(plan, 8)
        assert calls["eigh"] > 0
        assert calls["matmul"] > 0
        monkeypatch.undo()
        _assert_same_samples(_fresh_engine().run(plan, 8), result)

    @pytest.mark.parametrize("factory", [SimulationEngine, Simulator])
    def test_backend_keyword_is_refused(self, factory):
        with pytest.raises(TypeError, match="backend"):
            factory(backend="numpy")
