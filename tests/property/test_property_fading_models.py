"""Property tests: the fading-model zoo (standing invariant 6).

Every registered model must honour its declared invariant against the
looped scalar reference oracle (:func:`repro.models.reference_fading_samples`):

* ``rayleigh`` — the seam is the identity: a plan with ``fading=None`` (or
  a trivial spec) is byte-identical to the pre-model-zoo fast path, across
  ``execute_plan`` AND ``stream_plan`` at block sizes that do not divide
  the Doppler IDFT length;
* ``rician`` — byte-identity to the scalar reference;
* ``nakagami`` / ``weibull`` — allclose at the model's declared ``rtol``;
* shadowing — byte-identity; the per-branch gains are a pure function of
  the entry seed, constant across streamed blocks.

See the "Fading-model layer" section of ``docs/ARCHITECTURE.md``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CovarianceSpec, RayleighFadingGenerator
from repro.engine import (
    DecompositionCache,
    DopplerSpec,
    SimulationEngine,
    SimulationPlan,
)
from repro.models import (
    coerce_fading,
    get_fading_model,
    reference_fading_samples,
    shadowing_gains,
)

DOPPLER = DopplerSpec(normalized_doppler=0.05, n_points=64)


def _random_spec(rng, size):
    """One random PSD covariance spec with unequal powers."""
    basis = rng.normal(size=(size, size + 1)) + 1j * rng.normal(size=(size, size + 1))
    covariance = basis @ basis.conj().T / (size + 1)
    powers = rng.uniform(0.2, 4.0, size)
    scale = np.sqrt(powers / np.real(np.diag(covariance)))
    return CovarianceSpec.from_covariance_matrix(covariance * np.outer(scale, scale))


@st.composite
def fading_cases(draw, models=("rician", "nakagami", "weibull")):
    """A random (specs, seeds, fading spec) triple for the invariant suite."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    model = draw(st.sampled_from(models))
    shape = draw(st.floats(min_value=0.6, max_value=8.0))
    sigma = draw(st.sampled_from([0.0, 0.0, 3.0, 8.0]))
    rng = np.random.default_rng(seed)
    n_entries = int(rng.integers(1, 4))
    specs = [_random_spec(rng, int(rng.integers(1, 5))) for _ in range(n_entries)]
    seeds = [int(rng.integers(0, 2**62)) for _ in range(n_entries)]
    fading = coerce_fading(
        {"model": model, "shape": shape, "shadowing_sigma_db": sigma}
    )
    return specs, seeds, fading


def _assert_invariant(fading, reference, got):
    """Assert the model's declared invariant between reference and samples."""
    descriptor = get_fading_model(fading.model)
    if descriptor.exact:
        assert np.array_equal(reference, got)
    else:
        assert np.allclose(got, reference, rtol=descriptor.rtol, atol=1e-15)


class TestRayleighFastPathByteIdentity:
    """Invariant 6a: ``fading=None`` is the untouched pre-refactor path."""

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_trivial_spec_collapses_to_fast_path(self, seed):
        rng = np.random.default_rng(seed)
        spec = _random_spec(rng, int(rng.integers(1, 5)))
        entry_seed = int(rng.integers(0, 2**62))
        plain = SimulationPlan()
        plain.add(spec, seed=entry_seed)
        trivial = SimulationPlan()
        trivial.add(
            spec,
            seed=entry_seed,
            fading={"model": "rayleigh", "shadowing_sigma_db": 0.0},
        )
        assert trivial[0].fading is None  # trivial specs collapse
        engine = SimulationEngine(cache=DecompositionCache())
        a = engine.run(plain, 57)
        b = engine.run(trivial, 57)
        assert np.array_equal(a.blocks[0].samples, b.blocks[0].samples)

    def test_rayleigh_byte_identity_execute_and_stream_non_dividing_blocks(self):
        """Doppler streaming at block sizes not dividing M stays untouched."""
        rng = np.random.default_rng(99)
        spec = _random_spec(rng, 3)
        for block_size in (23, 37, 63):  # none divides M = 64
            plain = SimulationPlan()
            plain.add(spec, seed=11, doppler=DOPPLER)
            trivial = SimulationPlan()
            trivial.add(spec, seed=11, doppler=DOPPLER, fading="rayleigh")
            engine = SimulationEngine(cache=DecompositionCache())
            plain_blocks = [
                batch.blocks[0].samples
                for batch in engine.stream(plain, block_size=block_size, n_blocks=4)
            ]
            trivial_blocks = [
                batch.blocks[0].samples
                for batch in engine.stream(trivial, block_size=block_size, n_blocks=4)
            ]
            for a, b in zip(plain_blocks, trivial_blocks):
                assert np.array_equal(a, b)
            # Streamed concatenation equals one long execute record.
            long = engine.run(plain, 4 * block_size).blocks[0].samples
            assert np.array_equal(np.concatenate(plain_blocks, axis=1), long)


class TestModelInvariantsAgainstScalarReference:
    """Invariant 6b: each model matches the looped scalar oracle."""

    @given(case=fading_cases())
    @settings(max_examples=25, deadline=None)
    def test_snapshot_models_match_reference(self, case):
        specs, seeds, fading = case
        plan = SimulationPlan.from_specs(specs, seeds=seeds, fading=fading)
        engine = SimulationEngine(cache=DecompositionCache())
        result = engine.run(plan, 48)
        for spec, seed, block in zip(specs, seeds, result.blocks):
            base = RayleighFadingGenerator(spec, rng=seed).generate_gaussian(48)
            reference = reference_fading_samples(
                base.samples, spec.gaussian_variances, fading, seed=seed
            )
            _assert_invariant(fading, reference, block.samples)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        model=st.sampled_from(["rician", "nakagami", "weibull"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_doppler_models_match_reference(self, seed, model):
        rng = np.random.default_rng(seed)
        spec = _random_spec(rng, int(rng.integers(1, 4)))
        entry_seed = int(rng.integers(0, 2**62))
        fading = coerce_fading({"model": model, "shape": 2.5})
        engine = SimulationEngine(cache=DecompositionCache())
        plain = SimulationPlan()
        plain.add(spec, seed=entry_seed, doppler=DOPPLER)
        faded = SimulationPlan()
        faded.add(spec, seed=entry_seed, doppler=DOPPLER, fading=fading)
        base = engine.run(plain, 100).blocks[0].samples
        got = engine.run(faded, 100).blocks[0].samples
        reference = reference_fading_samples(
            base, spec.gaussian_variances, fading, seed=entry_seed
        )
        _assert_invariant(fading, reference, got)

    def test_rician_mean_matches_los_amplitude(self):
        """Physical sanity: the Rician LOS mean is sqrt(K*Omega/(K+1))."""
        spec = CovarianceSpec.from_covariance_matrix(np.eye(2, dtype=complex))
        plan = SimulationPlan()
        plan.add(spec, seed=5, fading={"model": "rician", "shape": 9.0})
        result = SimulationEngine(cache=DecompositionCache()).run(plan, 50_000)
        means = result.blocks[0].samples.mean(axis=1)
        expected = np.sqrt(9.0 / 10.0)
        assert np.allclose(means.real, expected, atol=0.02)
        assert np.allclose(means.imag, 0.0, atol=0.02)

    def test_envelope_transforms_preserve_phase(self):
        rng = np.random.default_rng(0)
        spec = _random_spec(rng, 2)
        engine = SimulationEngine(cache=DecompositionCache())
        plain = SimulationPlan()
        plain.add(spec, seed=3)
        base = engine.run(plain, 64).blocks[0].samples
        for model, shape in (("nakagami", 2.0), ("weibull", 1.3)):
            faded_plan = SimulationPlan()
            faded_plan.add(spec, seed=3, fading={"model": model, "shape": shape})
            faded = engine.run(faded_plan, 64).blocks[0].samples
            assert np.allclose(
                np.angle(faded), np.angle(base), rtol=0.0, atol=1e-12
            )


class TestShadowingComposition:
    """Invariant 6c: shadowing gains are seed-pure and block-constant."""

    @given(
        seed=st.integers(min_value=0, max_value=2**62),
        sigma=st.floats(min_value=0.1, max_value=12.0),
        n=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_gains_are_pure_in_the_seed(self, seed, sigma, n):
        a = shadowing_gains(seed, sigma, n)
        b = shadowing_gains(seed, sigma, n)
        assert np.array_equal(a, b)
        assert a.shape == (n,)
        assert np.all(a > 0)

    def test_gains_constant_across_streamed_blocks(self):
        rng = np.random.default_rng(17)
        spec = _random_spec(rng, 3)
        fading = coerce_fading({"model": "rayleigh", "shadowing_sigma_db": 6.0})
        engine = SimulationEngine(cache=DecompositionCache())
        plain = SimulationPlan()
        plain.add(spec, seed=23)
        faded_plan = SimulationPlan()
        faded_plan.add(spec, seed=23, fading=fading)
        gains = shadowing_gains(23, 6.0, 3)[:, np.newaxis]
        plain_blocks = list(engine.stream(plain, block_size=19, n_blocks=3))
        faded_blocks = list(engine.stream(faded_plan, block_size=19, n_blocks=3))
        for plain_batch, faded_batch in zip(plain_blocks, faded_blocks):
            assert np.array_equal(
                faded_batch.blocks[0].samples,
                plain_batch.blocks[0].samples * gains,
            )

    def test_shadowing_requires_integer_seed(self):
        spec = CovarianceSpec.from_covariance_matrix(np.eye(2, dtype=complex))
        plan = SimulationPlan()
        plan.add(
            spec,
            seed=np.random.default_rng(3),
            fading={"model": "rayleigh", "shadowing_sigma_db": 3.0},
        )
        engine = SimulationEngine(cache=DecompositionCache())
        with pytest.raises(ValueError, match="integer per-entry seed"):
            engine.run(plan, 8)


class TestStreamExecuteConsistency:
    """Faded Doppler streams slice exactly like one long execute record."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        block_size=st.sampled_from([23, 37, 63, 65]),
    )
    @settings(max_examples=10, deadline=None)
    def test_doppler_stream_concatenation_equals_execute(self, seed, block_size):
        rng = np.random.default_rng(seed)
        spec = _random_spec(rng, int(rng.integers(1, 4)))
        entry_seed = int(rng.integers(0, 2**62))
        plan = SimulationPlan()
        plan.add(
            spec,
            seed=entry_seed,
            doppler=DOPPLER,
            fading={"model": "rician", "shape": 3.0, "shadowing_sigma_db": 4.0},
        )
        engine = SimulationEngine(cache=DecompositionCache())
        streamed = np.concatenate(
            [
                batch.blocks[0].samples
                for batch in engine.stream(plan, block_size=block_size, n_blocks=4)
            ],
            axis=1,
        )
        long = engine.run(plan, 4 * block_size).blocks[0].samples
        assert np.array_equal(streamed, long)
