"""Acceptance tests of correlated Rician fading against its analytic targets.

Rician fading runs as the ``rician`` model of a plan entry: the colored
diffuse block is scaled by ``1/sqrt(K+1)`` and a static per-branch LOS
amplitude ``sqrt(K Omega / (K+1))`` is added.  These tests drive it through
one-entry plans run by :meth:`repro.api.Simulator.run` and check the
closed-form targets of :func:`repro.core.rician_moments`.
"""

import numpy as np
import pytest

from repro.api import Simulator
from repro.core import rician_moments
from repro.engine import DopplerSpec, SimulationPlan
from repro.exceptions import SpecificationError
from repro.validation import empirical_correlation_coefficients

RHO = 0.6
POWERS = np.array([1.0, 2.0])


@pytest.fixture()
def covariance_2x2():
    """Unequal branch powers ``Omega = (1, 2)`` at correlation ``RHO``."""
    cross = RHO * np.sqrt(POWERS[0] * POWERS[1])
    return np.array([[POWERS[0], cross], [cross, POWERS[1]]], dtype=complex)


def entry_samples(covariance, n_samples, **entry):
    """Complex samples of a one-entry plan, shape ``(N, n_samples)``."""
    plan = SimulationPlan()
    plan.add(covariance, **entry)
    return Simulator().run(plan, n_samples).blocks[0].samples


def rician_samples(covariance, n_samples, k_factor, seed, **kwargs):
    """Complex Rician samples of one plan entry, shape ``(N, n_samples)``."""
    return entry_samples(
        covariance,
        n_samples,
        seed=seed,
        fading={"model": "rician", "shape": k_factor},
        **kwargs,
    )


class TestRicianMoments:
    def test_k_zero_reduces_to_rayleigh(self):
        mean, variance = rician_moments(0.0, total_power=1.0)
        assert mean == pytest.approx(np.sqrt(np.pi) / 2.0, rel=1e-6)
        assert variance == pytest.approx(1.0 - np.pi / 4.0, rel=1e-6)

    def test_large_k_approaches_deterministic(self):
        mean, variance = rician_moments(100.0, total_power=1.0)
        assert mean == pytest.approx(1.0, abs=0.01)
        assert variance < 0.01

    def test_mean_square_plus_variance_is_total_power(self):
        for k in (0.0, 1.0, 5.0):
            mean, variance = rician_moments(k, total_power=2.5)
            assert mean**2 + variance == pytest.approx(2.5, rel=1e-10)

    def test_invalid_inputs(self):
        with pytest.raises(SpecificationError):
            rician_moments(-1.0)
        with pytest.raises(SpecificationError):
            rician_moments(1.0, total_power=0.0)


class TestRicianPlanModel:
    @pytest.mark.parametrize("doppler", [None, 0.05])
    def test_k_zero_is_byte_identical_to_rayleigh(self, covariance_2x2, doppler):
        rayleigh = entry_samples(covariance_2x2, 1000, seed=1, doppler=doppler)
        rician = rician_samples(covariance_2x2, 1000, 0.0, 1, doppler=doppler)
        assert rician.tobytes() == rayleigh.tobytes()

    @pytest.mark.parametrize("k_factor", [0.5, 4.0])
    def test_total_power_preserved(self, covariance_2x2, k_factor):
        samples = rician_samples(covariance_2x2, 300_000, k_factor, 2)
        powers = np.mean(np.abs(samples) ** 2, axis=1)
        assert np.allclose(powers, POWERS, rtol=0.03)

    @pytest.mark.parametrize("k_factor", [1.0, 6.0])
    def test_envelope_mean_matches_rician_theory(self, covariance_2x2, k_factor):
        envelopes = np.abs(rician_samples(covariance_2x2, 300_000, k_factor, 3))
        expected = [rician_moments(k_factor, power)[0] for power in POWERS]
        assert np.allclose(np.mean(envelopes, axis=1), expected, rtol=0.01)

    def test_large_k_envelope_concentrates_on_los_amplitude(self, covariance_2x2):
        envelopes = np.abs(rician_samples(covariance_2x2, 100_000, 50.0, 4))
        los_amplitudes = np.sqrt(50.0 * POWERS / 51.0)
        assert np.all(np.std(envelopes, axis=1) < 0.15 * np.sqrt(POWERS))
        assert np.allclose(np.mean(envelopes, axis=1), los_amplitudes, rtol=0.02)

    def test_diffuse_correlation_survives_without_los(self, covariance_2x2):
        k_factor = 2.0
        samples = rician_samples(covariance_2x2, 300_000, k_factor, 5)
        los = np.sqrt(k_factor * POWERS / (k_factor + 1.0))
        diffuse = samples - los[:, np.newaxis]
        rho = empirical_correlation_coefficients(diffuse)
        assert abs(rho[0, 1] - RHO) < 0.02

    @pytest.mark.parametrize("k_factor", [0.0, 2.0])
    def test_doppler_envelopes_are_slowly_varying(self, covariance_2x2, k_factor):
        samples = rician_samples(
            covariance_2x2, 1500, k_factor, 7, doppler=DopplerSpec(0.05, n_points=2048)
        )
        assert samples.shape == (2, 1500)
        for branch in np.abs(samples):
            assert np.corrcoef(branch[:-1], branch[1:])[0, 1] > 0.9
