"""Property-based tests for the Fourier substrate and the work partitioner."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.engine import partition_counts
from repro.signal import naive_dft, radix2_fft, radix2_ifft


@st.composite
def power_of_two_complex_sequences(draw):
    exponent = draw(st.integers(min_value=0, max_value=9))
    n = 1 << exponent
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


class TestFftProperties:
    @given(x=power_of_two_complex_sequences())
    @settings(max_examples=75, deadline=None)
    def test_radix2_matches_numpy(self, x):
        assert np.allclose(radix2_fft(x), np.fft.fft(x), atol=1e-8 * max(1.0, np.abs(x).max()))

    @given(x=power_of_two_complex_sequences())
    @settings(max_examples=75, deadline=None)
    def test_round_trip_identity(self, x):
        assert np.allclose(radix2_ifft(radix2_fft(x)), x, atol=1e-9 * max(1.0, np.abs(x).max()))

    @given(x=power_of_two_complex_sequences())
    @settings(max_examples=50, deadline=None)
    def test_parseval_energy_conservation(self, x):
        spectrum = radix2_fft(x)
        assert np.isclose(
            np.sum(np.abs(x) ** 2), np.sum(np.abs(spectrum) ** 2) / len(x), rtol=1e-9
        )

    @given(
        x=hnp.arrays(
            dtype=np.complex128,
            shape=st.integers(min_value=1, max_value=48),
            elements=st.complex_numbers(max_magnitude=100, allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_naive_dft_matches_numpy_for_any_length(self, x):
        assert np.allclose(naive_dft(x), np.fft.fft(x), atol=1e-7 * max(1.0, np.abs(x).max()))


class TestPartitionProperties:
    @given(
        total=st.integers(min_value=0, max_value=10_000),
        parts=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200)
    def test_partition_sums_and_balance(self, total, parts):
        counts = partition_counts(total, parts)
        assert len(counts) == parts
        assert sum(counts) == total
        assert all(count >= 0 for count in counts)
        assert max(counts) - min(counts) <= 1
