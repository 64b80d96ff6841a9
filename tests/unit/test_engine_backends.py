"""Unit tests for the pluggable linalg backends and their parity contract.

Every registered CPU backend that declares ``tolerance == 0.0`` must produce
``execute_plan`` output bit-identical to the numpy backend — including the
non-PSD repair path, streaming with block sizes that do not divide the
record length, and the Doppler substrate's stacked ``fft``/``ifft`` calls.
Backends without that guarantee must not share cache entries with the numpy
namespace (for Doppler plans just like snapshot ones).
"""

import numpy as np
import pytest

from repro.core import CovarianceSpec
from repro.engine import (
    DecompositionCache,
    DopplerSpec,
    LinalgBackend,
    NumpyBackend,
    ScipyBackend,
    SimulationEngine,
    SimulationPlan,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.exceptions import BackendError


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


#: CPU backends claiming bitwise parity with numpy (probed at import time).
BITWISE_BACKENDS = [
    name
    for name in available_backends()
    if name != "numpy" and get_backend(name).tolerance == 0.0
]


class TestRegistry:
    def test_none_resolves_to_numpy(self):
        assert resolve_backend(None) is get_backend("numpy")
        assert isinstance(get_backend("numpy"), NumpyBackend)

    def test_instances_are_memoized(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_instance_passthrough(self):
        backend = NumpyBackend()
        assert get_backend(backend) is backend

    def test_unknown_name_raises(self):
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend("not-a-backend")

    def test_non_string_spec_raises(self):
        with pytest.raises(BackendError, match="must be a name"):
            get_backend(3.14)

    @pytest.mark.usefixtures("isolated_backend_registry")
    def test_a_name_registers_once(self):
        register_backend("test-duplicate", NumpyBackend)
        with pytest.raises(BackendError, match="already registered"):
            register_backend("test-duplicate", NumpyBackend)

    def test_invalid_name_rejected(self):
        with pytest.raises(BackendError):
            register_backend("", NumpyBackend)

    def test_numpy_and_scipy_available(self):
        names = available_backends()
        assert "numpy" in names
        assert "scipy" in names

    def test_scipy_rejects_unknown_driver(self):
        with pytest.raises(BackendError, match="driver"):
            ScipyBackend(driver="nope")

    def test_engine_rejects_unknown_backend(self):
        with pytest.raises(BackendError):
            SimulationEngine(backend="not-a-backend")


class TestCacheTokens:
    def test_bitwise_backends_share_numpy_namespace(self):
        assert get_backend("numpy").cache_token == "numpy"
        assert get_backend("scipy").cache_token == "numpy"

    def test_non_bitwise_backends_get_private_namespace(self):
        evr = ScipyBackend(driver="evr")
        assert evr.tolerance is None
        assert evr.cache_token == evr.name != "numpy"

    def test_private_namespace_never_reuses_numpy_entries(self):
        plan = _mixed_plan()
        cache = DecompositionCache()
        SimulationEngine(cache=cache).run(plan, 4)
        result = SimulationEngine(cache=cache, backend=ScipyBackend(driver="evr")).run(
            plan, 4
        )
        assert result.compile_report.cache_hits == 0
        assert result.compile_report.cache_misses == plan.n_entries

    @pytest.mark.parametrize("name", BITWISE_BACKENDS)
    def test_bitwise_backend_reuses_numpy_entries(self, name):
        plan = _mixed_plan()
        cache = DecompositionCache()
        SimulationEngine(cache=cache).run(plan, 4)
        result = SimulationEngine(cache=cache, backend=name).run(plan, 4)
        assert result.compile_report.cache_hits == plan.n_entries
        assert result.compile_report.cache_misses == 0

    def test_doppler_mode_does_not_change_cache_keys(self):
        """A Doppler entry and a snapshot entry over the same matrix share
        one decomposition — the cache key is Doppler-agnostic."""
        spec = _non_psd_spec()
        cache = DecompositionCache()
        snapshot_plan = SimulationPlan.from_specs([spec], seed=1)
        SimulationEngine(cache=cache).run(snapshot_plan, 4)
        doppler_plan = SimulationPlan.from_specs(
            [spec], seed=2, doppler=DopplerSpec(0.05, 64)
        )
        result = SimulationEngine(cache=cache).run(doppler_plan, 4)
        assert result.compile_report.cache_hits == 1
        assert result.compile_report.cache_misses == 0

    def test_doppler_private_namespace_never_reuses_numpy_entries(self):
        """Non-bitwise backends keep their private cache namespace for
        Doppler group keys just like for snapshot ones."""
        plan = _doppler_plan()
        cache = DecompositionCache()
        SimulationEngine(cache=cache).run(plan, 4)
        result = SimulationEngine(cache=cache, backend=ScipyBackend(driver="evr")).run(
            plan, 4
        )
        assert result.compile_report.cache_hits == 0
        assert result.compile_report.cache_misses == plan.n_entries

    @pytest.mark.parametrize("name", BITWISE_BACKENDS)
    def test_doppler_bitwise_backend_reuses_numpy_entries(self, name):
        plan = _doppler_plan()
        cache = DecompositionCache()
        SimulationEngine(cache=cache).run(plan, 4)
        result = SimulationEngine(cache=cache, backend=name).run(plan, 4)
        assert result.compile_report.cache_hits == plan.n_entries
        assert result.compile_report.cache_misses == 0


class TestBackendParity:
    """Satellite: every registered backend matches numpy on execute_plan."""

    @pytest.mark.parametrize("name", BITWISE_BACKENDS)
    def test_execute_plan_bit_identical_including_repair_path(self, name):
        plan = _mixed_plan()
        reference = SimulationEngine(cache=DecompositionCache()).run(plan, 48)
        result = SimulationEngine(cache=DecompositionCache(), backend=name).run(plan, 48)
        repaired = [block.metadata["was_repaired"] for block in reference.blocks]
        assert any(repaired), "plan must exercise the non-PSD repair path"
        for ref_block, block in zip(reference.blocks, result.blocks):
            assert np.array_equal(ref_block.samples, block.samples)
            assert ref_block.metadata["was_repaired"] == block.metadata["was_repaired"]
        assert result.backend == name

    @pytest.mark.parametrize("name", BITWISE_BACKENDS)
    def test_cholesky_coloring_bit_identical(self, name):
        rng = np.random.default_rng(7)
        specs = [_psd_spec(rng, 3) for _ in range(3)]
        plan = SimulationPlan.from_specs(specs, seed=7, coloring_method="cholesky")
        reference = SimulationEngine(cache=DecompositionCache()).run(plan, 16)
        result = SimulationEngine(cache=DecompositionCache(), backend=name).run(plan, 16)
        for ref_block, block in zip(reference.blocks, result.blocks):
            assert np.array_equal(ref_block.samples, block.samples)

    @pytest.mark.parametrize("name", BITWISE_BACKENDS)
    def test_stream_plan_non_divisible_blocks_bit_identical(self, name):
        plan = _mixed_plan(seed=55)
        reference_engine = SimulationEngine(cache=DecompositionCache())
        engine = SimulationEngine(cache=DecompositionCache(), backend=name)
        # block_size 7 never divides the implicit record lengths evenly and
        # stresses the persistent per-entry generators across blocks.
        reference = list(reference_engine.stream(plan, block_size=7, n_blocks=5))
        streamed = list(engine.stream(plan, block_size=7, n_blocks=5))
        for ref_batch, batch in zip(reference, streamed):
            for ref_block, block in zip(ref_batch.blocks, batch.blocks):
                assert np.array_equal(ref_block.samples, block.samples)

    def test_non_bitwise_backend_still_produces_valid_coloring(self):
        """No sample parity for evr — but L L^H must reproduce the covariance."""
        plan = _mixed_plan(seed=99)
        engine = SimulationEngine(cache=DecompositionCache(), backend=ScipyBackend(driver="evr"))
        compiled = engine.compile(plan)
        for index in range(plan.n_entries):
            decomposition = compiled.decomposition_for(index)
            factor = decomposition.coloring_matrix
            np.testing.assert_allclose(
                factor @ factor.conj().T,
                decomposition.effective_covariance,
                atol=1e-10,
            )


class TestFFTContract:
    """Satellite: the fft/ifft pair threaded through the backend contract."""

    #: Transform lengths covering power-of-two and mixed-radix pocketfft paths.
    LENGTHS = (64, 96, 100, 128)

    def _stack(self, n, seed=5):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))

    def test_numpy_backend_matches_np_fft(self):
        backend = get_backend("numpy")
        for n in self.LENGTHS:
            stack = self._stack(n)
            assert np.array_equal(backend.ifft(stack), np.fft.ifft(stack, axis=-1))
            assert np.array_equal(backend.fft(stack), np.fft.fft(stack, axis=-1))

    def test_fft_ifft_roundtrip(self):
        backend = get_backend("numpy")
        stack = self._stack(64)
        np.testing.assert_allclose(
            backend.ifft(backend.fft(stack)), stack, atol=1e-12
        )

    @pytest.mark.parametrize("name", BITWISE_BACKENDS)
    def test_bitwise_backend_fft_bit_identical(self, name):
        backend = get_backend(name)
        for n in self.LENGTHS:
            stack = self._stack(n)
            assert np.array_equal(backend.ifft(stack), np.fft.ifft(stack, axis=-1))
            assert np.array_equal(backend.fft(stack), np.fft.fft(stack, axis=-1))

    @pytest.mark.parametrize("name", BITWISE_BACKENDS)
    def test_doppler_execute_bit_identical(self, name):
        """The end-to-end Doppler path matches numpy on bitwise backends."""
        plan = _doppler_plan(seed=77)
        reference = SimulationEngine(cache=DecompositionCache()).run(plan, 100)
        result = SimulationEngine(cache=DecompositionCache(), backend=name).run(plan, 100)
        for ref_block, block in zip(reference.blocks, result.blocks):
            assert np.array_equal(ref_block.samples, block.samples)
        assert result.backend == name

    @pytest.mark.parametrize("name", BITWISE_BACKENDS)
    def test_doppler_stream_non_divisible_blocks_bit_identical(self, name):
        plan = _doppler_plan(seed=88)
        reference_engine = SimulationEngine(cache=DecompositionCache())
        engine = SimulationEngine(cache=DecompositionCache(), backend=name)
        # block_size 23 never divides the IDFT lengths and stresses the
        # per-group Doppler buffers across blocks.
        reference = list(reference_engine.stream(plan, block_size=23, n_blocks=5))
        streamed = list(engine.stream(plan, block_size=23, n_blocks=5))
        for ref_batch, batch in zip(reference, streamed):
            for ref_block, block in zip(ref_batch.blocks, batch.blocks):
                assert np.array_equal(ref_block.samples, block.samples)


class TestCustomBackend:
    @pytest.mark.usefixtures("isolated_backend_registry")
    def test_registered_custom_backend_flows_through_engine(self):
        # The fused execute path prefers the `_into` hooks, so a counting
        # backend instruments both call forms of each transform.
        calls = {"eigh": 0, "matmul": 0, "ifft": 0}

        class CountingBackend(NumpyBackend):
            name = "test-counting"
            tolerance = 0.0

            def eigh(self, stack):
                calls["eigh"] += 1
                return super().eigh(stack)

            def matmul(self, a, b):
                calls["matmul"] += 1
                return super().matmul(a, b)

            def matmul_into(self, a, b, out):
                calls["matmul"] += 1
                return super().matmul_into(a, b, out)

            def ifft(self, array, axis=-1):
                calls["ifft"] += 1
                return super().ifft(array, axis=axis)

            def ifft_into(self, array, out, axis=-1):
                calls["ifft"] += 1
                return super().ifft_into(array, out, axis=axis)

        register_backend("test-counting", CountingBackend)
        plan = _mixed_plan(seed=11)
        engine = SimulationEngine(cache=DecompositionCache(), backend="test-counting")
        result = engine.run(plan, 8)
        assert calls["eigh"] > 0
        assert calls["matmul"] > 0
        assert calls["ifft"] == 0  # snapshot plans never touch the FFT pair
        reference = SimulationEngine(cache=DecompositionCache()).run(plan, 8)
        for ref_block, block in zip(reference.blocks, result.blocks):
            assert np.array_equal(ref_block.samples, block.samples)

        # A Doppler plan routes its stacked IDFT through the same backend.
        doppler_plan = _doppler_plan(seed=12)
        engine.run(doppler_plan, 8)
        assert calls["ifft"] > 0

    def test_abstract_contract(self):
        with pytest.raises(TypeError):
            LinalgBackend()
