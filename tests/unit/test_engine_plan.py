"""Unit tests for simulation plans: construction, validation, partitioning."""

import numpy as np
import pytest

from repro.channels import MIMOArrayScenario, ScenarioSweep
from repro.core import CovarianceSpec
from repro.engine import DopplerSpec, PlanEntry, SimulationPlan, partition_counts
from repro.engine.plan import coerce_doppler
from repro.exceptions import DopplerError, FilterDesignError, SpecificationError


@pytest.fixture()
def spec():
    return CovarianceSpec.from_covariance_matrix(
        np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex)
    )


class TestPlanEntry:
    def test_requires_covariance_spec(self):
        with pytest.raises(SpecificationError):
            PlanEntry(spec=np.eye(2))

    def test_rejects_unknown_coloring_method(self, spec):
        with pytest.raises(SpecificationError):
            PlanEntry(spec=spec, coloring_method="qr")

    def test_rejects_unknown_psd_method(self, spec):
        with pytest.raises(SpecificationError):
            PlanEntry(spec=spec, psd_method="magic")

    def test_rejects_bad_sample_variance(self, spec):
        with pytest.raises(SpecificationError):
            PlanEntry(spec=spec, sample_variance=0.0)

    def test_rejects_bad_epsilon(self, spec):
        with pytest.raises(SpecificationError):
            PlanEntry(spec=spec, epsilon=-1.0)

    @pytest.mark.parametrize(
        "seed", [None, 7, np.int64(7), np.uint32(7), np.random.default_rng(7)]
    )
    def test_accepts_what_ensure_rng_accepts(self, spec, seed):
        assert PlanEntry(spec=spec, seed=seed).seed is seed

    @pytest.mark.parametrize(
        "seed", [1.5, np.float64(3.0), "7", [7], np.random.SeedSequence(7), True, False]
    )
    def test_rejects_an_unusable_seed_at_admission(self, spec, seed):
        # A bool is an int to isinstance, but the wire refuses it
        # (seed_from_payload), so the library does too.
        with pytest.raises(SpecificationError, match=type(seed).__name__):
            PlanEntry(spec=spec, seed=seed)
        with pytest.raises(SpecificationError, match=type(seed).__name__):
            SimulationPlan().add(spec, seed=seed)

    @pytest.mark.parametrize("seed", [1.5, np.float64(1.5), "7", [7], True, False])
    def test_from_specs_rejects_an_unusable_root_seed(self, spec, seed):
        # The root seed is spawned into per-entry seeds, never stored, so
        # from_specs checks it itself rather than truncating it.
        with pytest.raises(SpecificationError, match=type(seed).__name__):
            SimulationPlan.from_specs([spec, spec], seed=seed)

    def test_group_key_contents(self, spec):
        entry = PlanEntry(spec=spec, coloring_method="svd", psd_method="epsilon")
        assert entry.group_key == (2, "svd", "epsilon", 1e-6, None, None)


class TestDopplerSpec:
    def test_defaults_match_the_paper(self):
        doppler = DopplerSpec(normalized_doppler=0.05)
        assert doppler.n_points == 4096
        assert doppler.input_variance_per_dim == 0.5
        assert doppler.compensate_variance is True

    @pytest.mark.parametrize("bad_fm", [0.0, -0.1, 0.5, 0.7])
    def test_rejects_out_of_range_doppler(self, bad_fm):
        with pytest.raises(DopplerError):
            DopplerSpec(normalized_doppler=bad_fm, n_points=64)

    def test_rejects_empty_passband(self):
        # f_m * M < 1: no DFT bin inside the Doppler band.
        with pytest.raises(FilterDesignError):
            DopplerSpec(normalized_doppler=0.001, n_points=64)

    def test_rejects_bad_input_variance(self):
        with pytest.raises(SpecificationError):
            DopplerSpec(normalized_doppler=0.05, n_points=64, input_variance_per_dim=0.0)

    def test_filter_key_excludes_compensation_flag(self):
        on = DopplerSpec(normalized_doppler=0.05, n_points=64)
        off = DopplerSpec(normalized_doppler=0.05, n_points=64, compensate_variance=False)
        assert on.filter_key == off.filter_key == (64, 0.05, 0.5)

    def test_doppler_entry_group_key(self, spec):
        entry = PlanEntry(spec=spec, doppler=DopplerSpec(0.05, n_points=64))
        assert entry.group_key == (2, "eigen", "clip", 1e-6, (64, 0.05, 0.5), None)

    def test_doppler_entry_rejects_custom_sample_variance(self, spec):
        with pytest.raises(SpecificationError, match="sample variance"):
            PlanEntry(spec=spec, doppler=DopplerSpec(0.05, n_points=64), sample_variance=2.0)

    def test_doppler_entry_rejects_wrong_type(self, spec):
        with pytest.raises(SpecificationError):
            PlanEntry(spec=spec, doppler=0.05)  # only DopplerSpec on the entry itself

    def test_plan_add_coerces_bare_frequency(self, spec):
        plan = SimulationPlan()
        plan.add(spec, doppler=0.05)
        assert plan[0].doppler == DopplerSpec(normalized_doppler=0.05)

    def test_plan_add_rejects_bad_doppler_value(self, spec):
        plan = SimulationPlan()
        with pytest.raises(SpecificationError, match="doppler"):
            plan.add(spec, doppler="fast")

    def test_plan_add_coerces_wire_mapping(self, spec):
        """The mapping of the wire protocol, with DopplerSpec's defaults."""
        plan = SimulationPlan()
        plan.add(spec, doppler={"normalized_doppler": 0.05, "n_points": 128})
        plan.add(
            spec,
            doppler={
                "normalized_doppler": 0.1,
                "n_points": 64,
                "input_variance_per_dim": 0.25,
                "compensate_variance": False,
            },
        )
        assert plan[0].doppler == DopplerSpec(normalized_doppler=0.05, n_points=128)
        assert plan[1].doppler == DopplerSpec(
            normalized_doppler=0.1,
            n_points=64,
            input_variance_per_dim=0.25,
            compensate_variance=False,
        )
        assert coerce_doppler({"normalized_doppler": 0.05}) == DopplerSpec(0.05)

    @pytest.mark.parametrize(
        "mapping",
        [
            {},
            {"n_points": 64},
            {"normalized_doppler": 0.05, "n_points": 64, "speed": 3},
            {"normalized_doppler": "fast", "n_points": 64},
            {"normalized_doppler": 0.05, "n_points": [64]},
            {"normalized_doppler": 0.7, "n_points": 64},
            {"normalized_doppler": 0.05, "n_points": 64, "input_variance_per_dim": 0},
        ],
    )
    def test_malformed_mapping_is_a_specification_error(self, spec, mapping):
        plan = SimulationPlan()
        with pytest.raises(SpecificationError, match="doppler"):
            plan.add(spec, doppler=mapping)

    def test_from_specs_applies_doppler_to_every_entry(self, spec):
        doppler = DopplerSpec(normalized_doppler=0.1, n_points=128)
        plan = SimulationPlan.from_specs([spec, spec], seed=3, doppler=doppler)
        assert all(entry.doppler == doppler for entry in plan)

    def test_doppler_and_snapshot_entries_group_separately(self, spec):
        plan = SimulationPlan()
        plan.add(spec)
        plan.add(spec, doppler=DopplerSpec(0.05, n_points=64))
        plan.add(spec, doppler=DopplerSpec(0.05, n_points=64))
        keys = [entry.group_key for entry in plan]
        assert keys[0] == (2, "eigen", "clip", 1e-6, None, None)
        assert keys[1] == keys[2] == (2, "eigen", "clip", 1e-6, (64, 0.05, 0.5), None)


class TestSimulationPlan:
    def test_add_accepts_raw_matrix(self):
        plan = SimulationPlan()
        index = plan.add(np.eye(3, dtype=complex), seed=5)
        assert index == 0
        assert plan[0].spec.n_branches == 3
        assert plan[0].seed == 5

    def test_from_specs_derives_independent_integer_seeds(self):
        matrices = [np.eye(2, dtype=complex)] * 4
        plan = SimulationPlan.from_specs(matrices, seed=42)
        seeds = [entry.seed for entry in plan]
        assert all(isinstance(seed, int) for seed in seeds)
        assert len(set(seeds)) == 4
        # Deterministic: rebuilding from the same root seed gives the same seeds.
        again = SimulationPlan.from_specs(matrices, seed=42)
        assert seeds == [entry.seed for entry in again]

    def test_from_specs_root_seed_changes_every_entry_seed(self):
        matrices = [np.eye(2, dtype=complex)] * 4
        a = [entry.seed for entry in SimulationPlan.from_specs(matrices, seed=3)]
        b = [entry.seed for entry in SimulationPlan.from_specs(matrices, seed=4)]
        assert set(a).isdisjoint(b)

    def test_from_specs_explicit_seeds_must_match_length(self):
        with pytest.raises(SpecificationError):
            SimulationPlan.from_specs([np.eye(2, dtype=complex)], seeds=[1, 2])

    def test_from_specs_labels_must_match_length(self):
        with pytest.raises(SpecificationError):
            SimulationPlan.from_specs([np.eye(2, dtype=complex)], labels=["a", "b"])

    def test_group_keys(self, spec):
        plan = SimulationPlan()
        plan.add(spec)
        plan.add(spec, coloring_method="svd")
        plan.add(np.eye(3, dtype=complex))
        assert [entry.group_key for entry in plan] == [
            (2, "eigen", "clip", 1e-6, None, None),
            (2, "svd", "clip", 1e-6, None, None),
            (3, "eigen", "clip", 1e-6, None, None),
        ]

    def test_iteration_and_len(self, spec):
        plan = SimulationPlan()
        plan.add(spec)
        plan.add(spec)
        assert len(plan) == 2
        assert [entry.spec for entry in plan] == [spec, spec]

    def test_rejects_non_entry_in_constructor(self):
        with pytest.raises(SpecificationError):
            SimulationPlan(entries=[object()])


class TestPartitionCounts:
    def test_even_split(self):
        assert partition_counts(100, 4) == [25, 25, 25, 25]

    def test_remainder_distributed(self):
        assert partition_counts(10, 3) == [4, 3, 3]

    def test_sum_preserved(self):
        for total, parts in [(7, 2), (1, 5), (1000, 7), (0, 3)]:
            assert sum(partition_counts(total, parts)) == total

    def test_counts_differ_by_at_most_one(self):
        counts = partition_counts(23, 5)
        assert max(counts) - min(counts) <= 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            partition_counts(-1, 2)
        with pytest.raises(ValueError):
            partition_counts(10, 0)


class TestPartition:
    def test_contiguous_balanced_split(self):
        matrices = [np.eye(2, dtype=complex) * (index + 1) for index in range(5)]
        plan = SimulationPlan.from_specs(matrices, seed=0)
        parts = plan.partition(2)
        assert [len(part) for part in parts] == [3, 2]
        reassembled = [entry for part in parts for entry in part]
        assert [e.seed for e in reassembled] == [e.seed for e in plan]

    def test_drops_empty_parts(self):
        plan = SimulationPlan.from_specs([np.eye(2, dtype=complex)], seed=0)
        parts = plan.partition(4)
        assert len(parts) == 1


class TestScenarioSweep:
    def test_product_expands_grid(self):
        sweep = ScenarioSweep.product(
            MIMOArrayScenario,
            n_antennas=[2],
            spacing_wavelengths=[0.5, 1.0],
            angular_spread_rad=[0.1, 0.2, 0.3],
        )
        assert len(sweep) == 6
        assert "spacing_wavelengths=0.5" in sweep.labels[0]

    def test_product_rejects_empty_axis(self):
        with pytest.raises(SpecificationError):
            ScenarioSweep.product(MIMOArrayScenario, n_antennas=[])

    def test_product_requires_axes(self):
        with pytest.raises(SpecificationError):
            ScenarioSweep.product(MIMOArrayScenario)

    def test_to_plan_carries_labels_and_seeds(self):
        sweep = ScenarioSweep.product(
            MIMOArrayScenario, n_antennas=[2], spacing_wavelengths=[0.5, 1.5]
        )
        plan = sweep.to_plan(np.ones(2), seed=3)
        assert plan.n_entries == 2
        assert plan[0].label == sweep.labels[0]
        assert plan[0].seed != plan[1].seed

    def test_per_scenario_power_vectors(self):
        sweep = ScenarioSweep.product(
            MIMOArrayScenario, n_antennas=[2], spacing_wavelengths=[0.5, 1.5]
        )
        specs = sweep.specs([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        assert np.allclose(specs[0].gaussian_variances, [1.0, 2.0])
        assert np.allclose(specs[1].gaussian_variances, [3.0, 4.0])

    def test_power_vector_count_mismatch_rejected(self):
        sweep = ScenarioSweep.product(
            MIMOArrayScenario, n_antennas=[2], spacing_wavelengths=[0.5, 1.5]
        )
        with pytest.raises(SpecificationError):
            sweep.specs([np.array([1.0, 2.0])] * 3)

    def test_rejects_scenarios_without_interface(self):
        with pytest.raises(SpecificationError):
            ScenarioSweep([object()])
