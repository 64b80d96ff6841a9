"""Unit tests for plan compilation and execution (grouping, caching, streaming)."""

import numpy as np
import pytest

from repro.channels.doppler import filter_output_variance, young_beaulieu_filter
from repro.api import Simulator
from repro.core.coloring import compute_coloring
from repro.engine import (
    DecompositionCache,
    DopplerSpec,
    SimulationEngine,
    SimulationPlan,
    compile_plan,
    execute_plan,
    stream_plan,
)
from repro.exceptions import (
    CholeskyError,
    ColoringError,
    CovarianceError,
    GenerationError,
)


def _matrix(power, size=2):
    base = np.full((size, size), 0.3, dtype=complex)
    np.fill_diagonal(base, 1.0)
    return power * base


@pytest.fixture()
def mixed_plan():
    """Entries with two shapes and one repeated matrix."""
    plan = SimulationPlan()
    plan.add(_matrix(1.0), seed=1)
    plan.add(_matrix(2.0), seed=2)
    plan.add(_matrix(1.0, size=3), seed=3)
    plan.add(_matrix(1.0), seed=4)  # duplicate of entry 0, different seed
    return plan


class TestCompile:
    def test_groups_by_shape(self, mixed_plan):
        compiled = compile_plan(mixed_plan, cache=DecompositionCache())
        assert compiled.report.n_groups == 2
        assert compiled.report.n_entries == 4
        sizes = sorted(group.batch_size for group in compiled.groups)
        assert sizes == [1, 3]

    def test_intra_batch_deduplication(self, mixed_plan):
        compiled = compile_plan(mixed_plan, cache=DecompositionCache())
        # Entries 0 and 3 share a matrix: 3 unique decompositions for 4 entries.
        assert compiled.report.n_unique_matrices == 3
        assert compiled.report.deduplicated == 1
        assert compiled.decomposition_for(0) is compiled.decomposition_for(3)

    def test_cache_hits_across_compiles(self, mixed_plan):
        cache = DecompositionCache()
        first = compile_plan(mixed_plan, cache=cache)
        second = compile_plan(mixed_plan, cache=cache)
        assert first.report.cache_misses == 3
        assert first.report.cache_hits == 0
        assert second.report.cache_hits == 3
        assert second.report.cache_misses == 0

    def test_coloring_stack_shape(self, mixed_plan):
        compiled = compile_plan(mixed_plan, cache=DecompositionCache())
        for group in compiled.groups:
            assert group.coloring_stack.shape == (
                group.batch_size,
                group.n_branches,
                group.n_branches,
            )

    def test_decomposition_for_unknown_index(self, mixed_plan):
        compiled = compile_plan(mixed_plan, cache=DecompositionCache())
        with pytest.raises(IndexError):
            compiled.decomposition_for(99)


class TestCompileDoppler:
    @pytest.fixture()
    def doppler_plan(self):
        """Two Doppler groups sharing one filter build, plus a snapshot entry."""
        doppler = DopplerSpec(normalized_doppler=0.05, n_points=64)
        plan = SimulationPlan()
        plan.add(_matrix(1.0), seed=1, doppler=doppler)
        plan.add(_matrix(2.0), seed=2, doppler=doppler)
        plan.add(_matrix(1.0, size=3), seed=3, doppler=doppler)  # other N, same filter
        plan.add(_matrix(1.0), seed=4)  # snapshot
        return plan

    def test_doppler_groups_carry_shared_filter(self, doppler_plan):
        compiled = compile_plan(doppler_plan, cache=DecompositionCache())
        doppler_groups = [group for group in compiled.groups if group.is_doppler]
        assert len(doppler_groups) == 2  # N = 2 and N = 3 stack separately
        expected = young_beaulieu_filter(64, 0.05)
        for group in doppler_groups:
            assert np.array_equal(group.doppler_filter, expected)
        # Same (M, f_m, sigma_orig^2): the filter is literally shared.
        assert doppler_groups[0].doppler_filter is doppler_groups[1].doppler_filter

    def test_filter_reuse_counters(self, doppler_plan):
        compiled = compile_plan(doppler_plan, cache=DecompositionCache())
        assert compiled.report.doppler_filters_built == 1
        assert compiled.report.doppler_entries == 3

    def test_snapshot_only_plan_reports_zero_doppler_work(self, mixed_plan):
        compiled = compile_plan(mixed_plan, cache=DecompositionCache())
        assert compiled.report.doppler_filters_built == 0
        assert compiled.report.doppler_entries == 0

    def test_distinct_filter_keys_build_distinct_filters(self):
        plan = SimulationPlan()
        plan.add(_matrix(1.0), seed=1, doppler=DopplerSpec(0.05, 64))
        plan.add(_matrix(2.0), seed=2, doppler=DopplerSpec(0.1, 64))
        plan.add(_matrix(3.0), seed=3, doppler=DopplerSpec(0.05, 128))
        compiled = compile_plan(plan, cache=DecompositionCache())
        assert compiled.report.doppler_filters_built == 3
        assert compiled.report.doppler_entries == 3

    def test_effective_variances_apply_eq19_compensation(self):
        plan = SimulationPlan()
        plan.add(_matrix(1.0), seed=1, doppler=DopplerSpec(0.05, 64))
        plan.add(
            _matrix(2.0), seed=2, doppler=DopplerSpec(0.05, 64, compensate_variance=False)
        )
        compiled = compile_plan(plan, cache=DecompositionCache())
        (group,) = compiled.groups
        expected = filter_output_variance(young_beaulieu_filter(64, 0.05), 0.5)
        assert group.doppler_output_variance == pytest.approx(expected)
        assert group.sample_variances[0] == pytest.approx(expected)
        assert group.sample_variances[1] == 1.0

    def test_summary_reports_filter_reuse(self, doppler_plan):
        engine = SimulationEngine(cache=DecompositionCache())
        summary = engine.run(doppler_plan, 8).summary()
        assert "doppler filters: 1 built / 3 entries served" in summary

    def test_snapshot_summary_omits_doppler_line(self, mixed_plan):
        engine = SimulationEngine(cache=DecompositionCache())
        summary = engine.run(mixed_plan, 8).summary()
        assert "doppler filters" not in summary


class TestExecute:
    def test_blocks_in_plan_order(self, mixed_plan):
        compiled = compile_plan(mixed_plan, cache=DecompositionCache())
        result = execute_plan(compiled, 10)
        assert result.n_entries == 4
        assert [block.metadata["plan_index"] for block in result.blocks] == [0, 1, 2, 3]
        assert result.blocks[2].samples.shape == (3, 10)

    def test_metadata_fields(self, mixed_plan):
        result = Simulator().run(mixed_plan, 5)
        block = result.blocks[0]
        assert block.metadata["method"] == "snapshot"
        assert block.metadata["engine"] == "batch"
        assert block.metadata["coloring_method"] == "eigen"

    def test_rejects_bad_sample_count(self, mixed_plan):
        compiled = compile_plan(mixed_plan, cache=DecompositionCache())
        with pytest.raises(GenerationError):
            execute_plan(compiled, 0)

    def test_envelopes(self, mixed_plan):
        result = Simulator().run(mixed_plan, 4)
        envelopes = result.envelopes()
        assert len(envelopes) == 4
        assert np.all(envelopes[0].envelopes >= 0)


class TestStreaming:
    def test_block_count_and_shape(self, mixed_plan):
        compiled = compile_plan(mixed_plan, cache=DecompositionCache())
        batches = list(stream_plan(compiled, block_size=8, n_blocks=3))
        assert len(batches) == 3
        assert all(batch.blocks[0].samples.shape == (2, 8) for batch in batches)

    def test_blocks_advance_the_stream(self, mixed_plan):
        compiled = compile_plan(mixed_plan, cache=DecompositionCache())
        batches = list(stream_plan(compiled, block_size=8, n_blocks=2))
        assert not np.array_equal(
            batches[0].blocks[0].samples, batches[1].blocks[0].samples
        )

    def test_rejects_bad_parameters(self, mixed_plan):
        compiled = compile_plan(mixed_plan, cache=DecompositionCache())
        with pytest.raises(GenerationError):
            list(stream_plan(compiled, block_size=0, n_blocks=1))
        with pytest.raises(GenerationError):
            list(stream_plan(compiled, block_size=1, n_blocks=0))

    @pytest.mark.parametrize("block_size, n_blocks", [(0, 1), (1, 0)])
    def test_rejects_bad_parameters_before_iterating(self, mixed_plan, block_size, n_blocks):
        compiled = compile_plan(mixed_plan, cache=DecompositionCache())
        with pytest.raises(GenerationError):
            stream_plan(compiled, block_size=block_size, n_blocks=n_blocks)
        cache = DecompositionCache()
        with pytest.raises(GenerationError):
            Simulator(cache=cache).stream(mixed_plan, block_size=block_size, n_blocks=n_blocks)
        assert cache.stats.lookups == 0  # raised before the plan compiled


class TestEngineFacade:
    def test_run_accepts_compiled_plans(self, mixed_plan):
        engine = SimulationEngine(cache=DecompositionCache())
        compiled = engine.compile(mixed_plan)
        a = engine.run(compiled, 4)
        b = engine.run(mixed_plan, 4)
        for block_a, block_b in zip(a.blocks, b.blocks):
            assert np.array_equal(block_a.samples, block_b.samples)

    def test_cache_stats_exposed(self, mixed_plan):
        engine = SimulationEngine(cache=DecompositionCache())
        engine.run(mixed_plan, 2)
        assert engine.cache.stats.misses == 3


_NAKAGAMI = {"model": "nakagami", "shape": 2.0}
_RICIAN = {"model": "rician", "shape": 3.0}


def _indefinite(size, power=1.0):
    """A unit-diagonal matrix with eigenvalue ``1 - 1.2 < 0``, scaled."""
    base = np.full((size, size), 1.2, dtype=complex)
    np.fill_diagonal(base, 1.0)
    return power * base


@pytest.fixture()
def eigh_calls(monkeypatch):
    """Shapes of every stacked ``eigh`` the test ran."""
    from repro.linalg import batched

    shapes = []
    eigh = batched._eigh_hermitian_stack

    def counting(herm):
        shapes.append(herm.shape)
        return eigh(herm)

    monkeypatch.setattr(batched, "_eigh_hermitian_stack", counting)
    return shapes


def _assert_same_decomposition(got, want):
    assert got.coloring_matrix.tobytes() == want.coloring_matrix.tobytes()
    assert got.effective_covariance.tobytes() == want.effective_covariance.tobytes()
    assert got.requested_covariance.tobytes() == want.requested_covariance.tobytes()
    assert got.method == want.method
    assert got.was_repaired == want.was_repaired
    assert got.negative_eigenvalue_count == want.negative_eigenvalue_count
    assert repr(got.min_eigenvalue) == repr(want.min_eigenvalue)
    assert repr(got.extra) == repr(want.extra)


class TestPlanWideDecomposition:
    """Misses are decomposed once per matrix and per signature, not per group."""

    def test_matrix_shared_by_three_groups_is_decomposed_once(self, eigh_calls):
        matrix = _matrix(1.5, size=3)
        plan = SimulationPlan()
        plan.add(matrix, seed=1)
        plan.add(matrix, seed=2, doppler=DopplerSpec(0.05, 64))
        plan.add(matrix, seed=3, fading=_NAKAGAMI)
        compiled = compile_plan(plan, cache=DecompositionCache(maxsize=0))
        assert compiled.report.n_groups == 3
        # One forcing eigh over one slice; the PSD matrix is not repaired,
        # so the coloring reuses that decomposition.
        assert eigh_calls == [(1, 3, 3)]
        assert compiled.report.n_unique_matrices == 1
        assert compiled.report.cache_misses == 1
        assert compiled.report.cache_hits == 0
        want = compute_coloring(matrix).coloring_matrix
        for group in compiled.groups:
            assert group.coloring_stack.tobytes() == want.tobytes()

    def test_mixed_sizes_with_repairs_match_the_single_spec_path(self, eigh_calls):
        plan = SimulationPlan()
        matrices = [
            _matrix(1.0),
            _indefinite(4),
            _indefinite(2, power=2.0),
            _matrix(2.0, size=4),
            _indefinite(4, power=0.5),
            _indefinite(4),  # repeats entry 1 in another group
            _matrix(1.0),  # repeats entry 0 in another group
            _indefinite(2, power=2.0),  # repeats entry 2 in another group
        ]
        options = [
            {},
            {"doppler": DopplerSpec(0.05, 64)},
            {"fading": _RICIAN},
            {"fading": _NAKAGAMI},
            {},
            {"fading": _NAKAGAMI},
            {"doppler": DopplerSpec(0.05, 64)},
            {},
        ]
        for index, (matrix, extra) in enumerate(zip(matrices, options)):
            plan.add(matrix, seed=index, **extra)
        compiled = compile_plan(plan, cache=DecompositionCache(maxsize=0))
        for index, matrix in enumerate(matrices):
            _assert_same_decomposition(
                compiled.decomposition_for(index), compute_coloring(matrix)
            )
        assert compiled.report.n_unique_matrices == 5
        assert compiled.report.cache_misses == 5
        # Forcing: one stack per size (N = 2: two matrices, N = 4: three).
        # Coloring: only the repaired slices are decomposed again.
        assert sorted(eigh_calls) == [(1, 2, 2), (2, 2, 2), (2, 4, 4), (3, 4, 4)]


class TestFailingEntry:
    """A decomposition failure names the plan entry, not a stack index."""

    def test_psd_forcing_failure_names_entry_and_label(self):
        plan = SimulationPlan()
        plan.add(np.eye(2))
        plan.add(2.0 * np.eye(2), fading=_NAKAGAMI)
        plan.add(3.0 * np.eye(2), doppler=DopplerSpec(0.05, 64))
        plan.add(np.array([[1.0, 1e308], [1e308, 1.0]]), fading=_NAKAGAMI, label="d")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(CovarianceError) as info:
                compile_plan(plan, cache=DecompositionCache())
        message = str(info.value)
        assert message.startswith("PSD forcing")
        assert "plan entry 3 (label 'd')" in message
        assert "stack index" not in message

    @pytest.mark.parametrize("n", [2, 4])
    def test_overflowing_finite_matrix_names_entry_and_label(self, n):
        """``1e308`` off the diagonal overflows the Hermitian part: at N = 4
        this used to reach numpy's ``LinAlgError`` instead."""
        bad = np.eye(n)
        bad[0, 1] = bad[1, 0] = 1e308
        plan = SimulationPlan()
        plan.add(np.eye(n))
        plan.add(2.0 * np.eye(n), fading=_NAKAGAMI)
        plan.add(3.0 * np.eye(n), label="c")
        plan.add(bad, fading=_NAKAGAMI, label="d")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(CovarianceError) as info:
                compile_plan(plan, cache=DecompositionCache())
        message = str(info.value)
        assert message.startswith("PSD forcing")
        assert "plan entry 3 (label 'd')" in message
        assert "stack index" not in message

    def test_cholesky_failure_names_entry(self):
        plan = SimulationPlan()
        plan.add(np.eye(2), coloring_method="cholesky")
        plan.add(2.0 * np.eye(2), coloring_method="cholesky", fading=_RICIAN)
        plan.add(np.ones((2, 2)), coloring_method="cholesky", fading=_RICIAN)
        expected = r"^Cholesky factorization failed for plan entry 2:"
        with pytest.raises(CholeskyError, match=expected):
            compile_plan(plan, cache=DecompositionCache(maxsize=0))

    def test_coloring_failure_names_entry_and_label(self, monkeypatch):
        # A forcing whose result passes the PSD check (psd_tol) but not the
        # eigen coloring's tighter clip tolerance (eig_clip_tol).  No forcing
        # method returns such a matrix, so the shift is injected.
        from repro.core import psd

        higham = psd.nearest_psd_higham
        monkeypatch.setattr(
            psd,
            "nearest_psd_higham",
            lambda matrix, **kwargs: higham(matrix, **kwargs) - 5e-11 * np.eye(len(matrix)),
        )
        plan = SimulationPlan()
        plan.add(np.eye(3), psd_method="higham")
        plan.add(_indefinite(3), psd_method="higham", doppler=DopplerSpec(0.05, 64), label="x")
        with pytest.raises(ColoringError, match=r"^eigen coloring requires") as info:
            compile_plan(plan, cache=DecompositionCache(maxsize=0))
        assert "plan entry 1 (label 'x')" in str(info.value)
