"""Property tests: batched Doppler execution is bit-identical to looping.

The Doppler substrate's core guarantee — for the same per-entry seeds, a
Doppler plan through plan → compile → execute produces exactly the samples a
loop of single-spec :class:`RealTimeRayleighGenerator` instances would — is
asserted here over randomized plans: mixed seeds, branch counts ``N``
(including ``N = 1``), IDFT lengths ``M``, normalized Dopplers ``f_m``, and
the Eq. (19) compensation toggled on and off.  Sample counts that are not
multiples of ``M`` exercise the truncation path, streaming exercises the
group buffers, and mixed snapshot/Doppler plans exercise group separation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Simulator
from repro.core import CovarianceSpec, RayleighFadingGenerator
from repro.core.realtime import RealTimeRayleighGenerator
from repro.engine import (
    DecompositionCache,
    DopplerSpec,
    SimulationEngine,
    SimulationPlan,
)

#: IDFT lengths kept small so hypothesis examples stay fast; 96 is a
#: non-power-of-two to keep the FFT path honest.
BLOCK_LENGTHS = (64, 96, 128)


def _random_spec(rng, size):
    """One random PSD covariance spec with unequal powers."""
    basis = rng.normal(size=(size, size + 1)) + 1j * rng.normal(size=(size, size + 1))
    covariance = basis @ basis.conj().T / (size + 1)
    powers = rng.uniform(0.2, 4.0, size)
    scale = np.sqrt(powers / np.real(np.diag(covariance)))
    return CovarianceSpec.from_covariance_matrix(covariance * np.outer(scale, scale))


@st.composite
def doppler_plan_data(draw, max_entries=5):
    """Random specs, seeds, and per-entry Doppler modes for one plan."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n_entries = draw(st.integers(min_value=1, max_value=max_entries))
    rng = np.random.default_rng(seed)
    specs, dopplers, seeds = [], [], []
    for _ in range(n_entries):
        size = int(rng.integers(1, 5))
        specs.append(_random_spec(rng, size))
        n_points = int(rng.choice(BLOCK_LENGTHS))
        # Keep at least one bin in the passband: f_m * M >= 1.
        f_m = float(rng.uniform(1.5 / n_points, 0.4))
        dopplers.append(
            DopplerSpec(
                normalized_doppler=f_m,
                n_points=n_points,
                compensate_variance=bool(rng.integers(0, 2)),
            )
        )
        seeds.append(int(rng.integers(0, 2**62)))
    return specs, dopplers, seeds


def _looped_reference(spec, doppler, seed, n_samples):
    """What a standalone real-time generator produces for ``n_samples``."""
    n_blocks = -(-n_samples // doppler.n_points)
    generator = RealTimeRayleighGenerator(
        spec,
        normalized_doppler=doppler.normalized_doppler,
        n_points=doppler.n_points,
        input_variance_per_dim=doppler.input_variance_per_dim,
        compensate_variance=doppler.compensate_variance,
        rng=seed,
    )
    return generator.generate_gaussian(n_blocks)


class TestBatchedDopplerEqualsLooped:
    @given(
        plan_data=doppler_plan_data(),
        n_samples=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_samples(self, plan_data, n_samples):
        specs, dopplers, seeds = plan_data
        plan = SimulationPlan()
        for spec, doppler, seed in zip(specs, dopplers, seeds):
            plan.add(spec, seed=seed, doppler=doppler)
        engine = SimulationEngine(cache=DecompositionCache())
        result = engine.run(plan, n_samples)
        for spec, doppler, seed, block in zip(specs, dopplers, seeds, result.blocks):
            reference = _looped_reference(spec, doppler, seed, n_samples)
            assert np.array_equal(
                reference.samples[:, :n_samples], block.samples
            )
            assert np.array_equal(reference.variances, block.variances)
            assert block.metadata["method"] == "realtime"
            assert block.metadata["normalized_doppler"] == doppler.normalized_doppler
            assert block.metadata["compensate_variance"] == doppler.compensate_variance

    @given(plan_data=doppler_plan_data(max_entries=3))
    @settings(max_examples=15, deadline=None)
    def test_streaming_concatenation_matches_batch_record(self, plan_data):
        """Streamed blocks cut the same continuous record execute_plan produces,
        for block sizes that do not divide the IDFT length."""
        specs, dopplers, seeds = plan_data
        plan = SimulationPlan()
        for spec, doppler, seed in zip(specs, dopplers, seeds):
            plan.add(spec, seed=seed, doppler=doppler)
        engine = SimulationEngine(cache=DecompositionCache())
        streamed = list(engine.stream(plan, block_size=37, n_blocks=4))
        full = engine.run(plan, 37 * 4)
        for index in range(plan.n_entries):
            concatenated = np.concatenate(
                [batch.blocks[index].samples for batch in streamed], axis=1
            )
            assert np.array_equal(concatenated, full.blocks[index].samples)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_samples=st.integers(min_value=1, max_value=150),
    )
    @settings(max_examples=20, deadline=None)
    def test_mixed_snapshot_and_doppler_plan(self, seed, n_samples):
        """Doppler and snapshot entries coexist; each matches its own loop."""
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 4))
        spec = _random_spec(rng, size)
        doppler = DopplerSpec(normalized_doppler=0.05, n_points=64)
        snapshot_seed = int(rng.integers(0, 2**62))
        doppler_seed = int(rng.integers(0, 2**62))
        plan = SimulationPlan()
        plan.add(spec, seed=snapshot_seed)
        plan.add(spec, seed=doppler_seed, doppler=doppler)
        result = SimulationEngine(cache=DecompositionCache()).run(plan, n_samples)
        snapshot_reference = RayleighFadingGenerator(
            spec, rng=snapshot_seed
        ).generate_gaussian(n_samples)
        assert np.array_equal(
            snapshot_reference.samples, result.blocks[0].samples
        )
        doppler_reference = _looped_reference(spec, doppler, doppler_seed, n_samples)
        assert np.array_equal(
            doppler_reference.samples[:, :n_samples], result.blocks[1].samples
        )

    @given(plan_data=doppler_plan_data(max_entries=3))
    @settings(max_examples=10, deadline=None)
    def test_cache_hits_do_not_change_samples(self, plan_data):
        specs, dopplers, seeds = plan_data
        plan = SimulationPlan()
        for spec, doppler, seed in zip(specs, dopplers, seeds):
            plan.add(spec, seed=seed, doppler=doppler)
        engine = SimulationEngine(cache=DecompositionCache())
        cold = engine.run(plan, 64)
        warm = engine.run(plan, 64)
        assert warm.compile_report.cache_misses == 0
        for cold_block, warm_block in zip(cold.blocks, warm.blocks):
            assert np.array_equal(cold_block.samples, warm_block.samples)


class TestFusedExecuteBitIdentity:
    """The fused, allocation-light execute kernels are byte-for-byte the
    unfused two-pass pipeline.

    ``np.array_equal`` treats ``-0.0`` and ``0.0`` as equal, so the tests
    above would not notice a sign-of-zero drift from the in-place fusion;
    these compare raw bytes.  The unfused reference is the pre-fusion
    formula spelled out inline: per-stream ``rng.normal`` draws, the
    ``coeffs * (A - 1j * B)`` weighting, a plain out-of-place IDFT, and an
    out-of-place coloring matmul.
    """

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_blocks=st.integers(min_value=1, max_value=4),
        m=st.sampled_from(BLOCK_LENGTHS),
    )
    @settings(max_examples=20, deadline=None)
    def test_fused_doppler_kernel_bytes_equal_unfused(self, seed, n_blocks, m):
        from repro.channels.doppler import young_beaulieu_filter
        from repro.channels.idft_generator import batched_doppler_blocks

        coeffs = young_beaulieu_filter(m, 0.1)
        stream_seeds = np.random.default_rng(seed).integers(0, 2**62, size=3)
        fused = batched_doppler_blocks(
            coeffs,
            [np.random.default_rng(s) for s in stream_seeds],
            n_blocks=n_blocks,
            workspace={},
        )
        scale = np.sqrt(0.5)
        draws = np.stack(
            [
                np.random.default_rng(s).normal(0.0, scale, size=(n_blocks, 2, m))
                for s in stream_seeds
            ]
        )
        weighted = coeffs * (draws[:, :, 0, :] - 1j * draws[:, :, 1, :])
        reference = np.fft.ifft(weighted.reshape(-1, m), axis=-1).reshape(
            len(stream_seeds), n_blocks * m
        )
        assert fused.tobytes() == reference.tobytes()

    @given(
        plan_data=doppler_plan_data(max_entries=3),
        block_size=st.sampled_from([7, 37, 61, 101]),
    )
    @settings(max_examples=15, deadline=None)
    def test_stream_bytes_identical_across_block_boundaries(
        self, plan_data, block_size
    ):
        """Cross-block streaming through the ring buffer and reused scratch
        is byte-identical to one long execute, for block sizes that do not
        divide the IDFT length."""
        specs, dopplers, seeds = plan_data
        plan = SimulationPlan()
        for spec, doppler, seed in zip(specs, dopplers, seeds):
            plan.add(spec, seed=seed, doppler=doppler)
        engine = SimulationEngine(cache=DecompositionCache())
        streamed = list(engine.stream(plan, block_size=block_size, n_blocks=4))
        full = engine.run(plan, block_size * 4)
        for index in range(plan.n_entries):
            concatenated = np.concatenate(
                [batch.blocks[index].samples for batch in streamed], axis=1
            )
            assert concatenated.tobytes() == full.blocks[index].samples.tobytes()

    def test_execute_bytes_equal_unfused_reference(self):
        """A mixed snapshot/Doppler plan executes to exactly the bytes of
        the unfused looped reference generators."""
        rng = np.random.default_rng(20260807)
        spec = _random_spec(rng, 3)
        doppler = DopplerSpec(normalized_doppler=0.08, n_points=96)
        plan = SimulationPlan()
        plan.add(spec, seed=101)
        plan.add(spec, seed=202, doppler=doppler)
        n_samples = 250  # not a multiple of M = 96
        result = SimulationEngine(cache=DecompositionCache()).run(plan, n_samples)
        snapshot = RayleighFadingGenerator(spec, rng=101).generate_gaussian(n_samples)
        assert result.blocks[0].samples.tobytes() == snapshot.samples.tobytes()
        looped = _looped_reference(spec, doppler, 202, n_samples)
        assert (
            result.blocks[1].samples.tobytes()
            == np.ascontiguousarray(looped.samples[:, :n_samples]).tobytes()
        )


class TestSessionDopplerEqualsLooped:
    """``Simulator.envelopes`` Doppler mode inherits the engine guarantee."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_samples=st.integers(min_value=1, max_value=120),
        compensate=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_envelopes_doppler_bit_identical_to_realtime_generator(
        self, seed, n_samples, compensate
    ):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 4))
        spec = _random_spec(rng, size)
        entry_seed = int(rng.integers(0, 2**62))
        simulator = Simulator(backend="numpy", cache=DecompositionCache())
        block = simulator.envelopes(
            spec,
            n_samples,
            seed=entry_seed,
            normalized_doppler=0.1,
            n_points=64,
            compensate_variance=compensate,
            return_gaussian=True,
        )
        doppler = DopplerSpec(
            normalized_doppler=0.1, n_points=64, compensate_variance=compensate
        )
        reference = _looped_reference(spec, doppler, entry_seed, n_samples)
        assert np.array_equal(reference.samples[:, :n_samples], block.samples)
