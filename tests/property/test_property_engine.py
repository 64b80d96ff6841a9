"""Property tests: batched engine execution is bit-identical to looping.

The engine's core guarantee — for the same per-entry seeds, batched
plan → compile → execute produces exactly the samples a loop of
single-spec :class:`RayleighFadingGenerator` instances would — is asserted
here over randomized plans: mixed shapes, arbitrary unequal powers, non-PSD
requests that need repair, and every coloring/PSD-forcing combination the
batched path supports.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Simulator
from repro.core import CovarianceSpec, RayleighFadingGenerator
from repro.engine import DecompositionCache, SimulationEngine, SimulationPlan


def _random_spec(rng, size, non_psd=False):
    """One random covariance spec with unequal powers; optionally indefinite."""
    if non_psd:
        raw = rng.uniform(-0.9, 0.9, (size, size)) + 1j * rng.uniform(-0.9, 0.9, (size, size))
        matrix = 0.5 * (raw + raw.conj().T)
        np.fill_diagonal(matrix, rng.uniform(0.5, 2.0, size))
        return CovarianceSpec.from_covariance_matrix(matrix)
    basis = rng.normal(size=(size, size + 1)) + 1j * rng.normal(size=(size, size + 1))
    covariance = basis @ basis.conj().T / (size + 1)
    powers = rng.uniform(0.2, 4.0, size)
    scale = np.sqrt(powers / np.real(np.diag(covariance)))
    return CovarianceSpec.from_covariance_matrix(covariance * np.outer(scale, scale))


@st.composite
def random_plans(draw, max_entries=6, allow_non_psd=True):
    """A random plan (mixed shapes/powers/PSD-ness) plus its entry seeds."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n_entries = draw(st.integers(min_value=1, max_value=max_entries))
    rng = np.random.default_rng(seed)
    specs = []
    for index in range(n_entries):
        size = int(rng.integers(1, 5))
        non_psd = allow_non_psd and size >= 2 and bool(rng.integers(0, 2))
        specs.append(_random_spec(rng, size, non_psd=non_psd))
    seeds = [int(rng.integers(0, 2**62)) for _ in range(n_entries)]
    return specs, seeds


class TestBatchedEqualsLooped:
    @given(plan_data=random_plans(), n_samples=st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_samples(self, plan_data, n_samples):
        specs, seeds = plan_data
        plan = SimulationPlan.from_specs(specs, seeds=seeds)
        engine = SimulationEngine(cache=DecompositionCache())
        result = engine.run(plan, n_samples)
        for spec, seed, block in zip(specs, seeds, result.blocks):
            reference = RayleighFadingGenerator(
                spec, rng=seed
            ).generate_gaussian(n_samples)
            assert np.array_equal(reference.samples, block.samples)
            assert np.array_equal(reference.variances, block.variances)
            assert reference.metadata["was_repaired"] == block.metadata["was_repaired"]

    @given(plan_data=random_plans(allow_non_psd=False))
    @settings(max_examples=20, deadline=None)
    def test_cache_hits_do_not_change_samples(self, plan_data):
        specs, seeds = plan_data
        plan = SimulationPlan.from_specs(specs, seeds=seeds)
        engine = SimulationEngine(cache=DecompositionCache())
        cold = engine.run(plan, 16)
        warm = engine.run(plan, 16)
        assert warm.compile_report.cache_misses == 0
        for cold_block, warm_block in zip(cold.blocks, warm.blocks):
            assert np.array_equal(cold_block.samples, warm_block.samples)

    @given(
        plan_data=random_plans(max_entries=4),
        coloring_method=st.sampled_from(["eigen", "svd"]),
        psd_method=st.sampled_from(["clip", "epsilon"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_method_variants_stay_identical(self, plan_data, coloring_method, psd_method):
        specs, seeds = plan_data
        plan = SimulationPlan.from_specs(
            specs, seeds=seeds, coloring_method=coloring_method, psd_method=psd_method
        )
        engine = SimulationEngine(cache=DecompositionCache())
        result = engine.run(plan, 8)
        for spec, seed, block in zip(specs, seeds, result.blocks):
            reference = RayleighFadingGenerator(
                spec,
                rng=seed,
                coloring_method=coloring_method,
                psd_method=psd_method,
            ).generate_gaussian(8)
            assert np.array_equal(reference.samples, block.samples)

    @given(plan_data=random_plans(max_entries=3))
    @settings(max_examples=15, deadline=None)
    def test_streaming_concatenation_matches_chunked_loop(self, plan_data):
        specs, seeds = plan_data
        plan = SimulationPlan.from_specs(specs, seeds=seeds)
        engine = SimulationEngine(cache=DecompositionCache())
        streamed = list(engine.stream(plan, block_size=16, n_blocks=3))
        for index, (spec, seed) in enumerate(zip(specs, seeds)):
            generator = RayleighFadingGenerator(spec, rng=seed)
            expected = np.concatenate(
                [generator.generate_gaussian(16).samples for _ in range(3)], axis=1
            )
            got = np.concatenate(
                [batch.blocks[index].samples for batch in streamed], axis=1
            )
            assert np.array_equal(expected, got)


class TestSessionAPIEqualsLooped:
    """The session API inherits the engine guarantee unchanged.

    ``Simulator()`` must be bit-identical to looping
    single-spec generators for the same seeds, for batched runs and
    one-call ``envelopes`` alike.
    """

    @given(plan_data=random_plans(), n_samples=st.integers(min_value=1, max_value=64))
    @settings(max_examples=25, deadline=None)
    def test_simulator_run_bit_identical_to_looped(self, plan_data, n_samples):
        specs, seeds = plan_data
        plan = SimulationPlan.from_specs(specs, seeds=seeds)
        simulator = Simulator(cache=DecompositionCache())
        result = simulator.run(plan, n_samples)
        for spec, seed, block in zip(specs, seeds, result.blocks):
            reference = RayleighFadingGenerator(
                spec, rng=seed
            ).generate_gaussian(n_samples)
            assert np.array_equal(reference.samples, block.samples)
            assert np.array_equal(reference.variances, block.variances)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_samples=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=25, deadline=None)
    def test_simulator_envelopes_bit_identical_to_standalone_generator(self, seed, n_samples):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 5))
        spec = _random_spec(rng, size, non_psd=size >= 2 and bool(rng.integers(0, 2)))
        entry_seed = int(rng.integers(0, 2**62))
        via_session = Simulator(cache=DecompositionCache()).envelopes(
            spec, n_samples, seed=entry_seed
        )
        reference = RayleighFadingGenerator(
            spec, rng=entry_seed
        ).generate_envelopes(n_samples)
        assert np.array_equal(via_session.envelopes, reference.envelopes)

    @given(plan_data=random_plans(max_entries=4))
    @settings(max_examples=10, deadline=None)
    def test_simulator_stream_concatenation_matches_chunked_loop(self, plan_data):
        specs, seeds = plan_data
        plan = SimulationPlan.from_specs(specs, seeds=seeds)
        simulator = Simulator(cache=DecompositionCache())
        streamed = list(simulator.stream(plan, block_size=7, n_blocks=3))
        for index, (spec, seed) in enumerate(zip(specs, seeds)):
            generator = RayleighFadingGenerator(spec, rng=seed)
            expected = np.concatenate(
                [generator.generate_gaussian(7).samples for _ in range(3)], axis=1
            )
            got = np.concatenate(
                [batch.blocks[index].samples for batch in streamed], axis=1
            )
            assert np.array_equal(expected, got)
