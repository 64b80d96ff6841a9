"""Property-based tests for the work partitioner."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import partition_counts


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
