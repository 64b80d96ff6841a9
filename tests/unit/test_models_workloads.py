"""Unit tests for the declarative workload schema (:mod:`repro.models.workloads`).

A workload's ``doppler`` mapping is decoded by the same
:func:`repro.engine.plan.coerce_doppler` as ``plan.add`` and the wire
protocol: every :class:`~repro.engine.DopplerSpec` field is honoured and an
unknown field is refused by name.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.engine import DopplerSpec, SimulationEngine, SimulationPlan
from repro.exceptions import SpecificationError
from repro.models.workloads import plan_from_workload

K = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)


def _workload(doppler):
    return {
        "name": "doppler",
        "n_samples": 200,
        "seed": 11,
        "doppler": doppler,
        "entries": [{"matrix": {"re": K.real.tolist()}}],
    }


class TestWorkloadDoppler:
    def test_every_doppler_spec_field_is_honoured(self):
        plan, _ = plan_from_workload(
            _workload(
                {
                    "normalized_doppler": 0.1,
                    "n_points": 64,
                    "input_variance_per_dim": 0.25,
                    "compensate_variance": False,
                }
            )
        )
        assert plan[0].doppler == DopplerSpec(
            0.1, n_points=64, input_variance_per_dim=0.25, compensate_variance=False
        )

    def test_uncompensated_workload_runs_to_the_plan_add_bytes(self):
        doppler = {"normalized_doppler": 0.05, "n_points": 128, "compensate_variance": False}
        workload_plan, n_samples = plan_from_workload(_workload(doppler))
        plan = SimulationPlan()
        plan.add(K, seed=11, doppler=DopplerSpec(0.05, n_points=128, compensate_variance=False))
        engine = SimulationEngine()
        got = engine.run(workload_plan, n_samples).blocks[0].samples
        expected = engine.run(plan, n_samples).blocks[0].samples
        assert got.tobytes() == expected.tobytes()

    def test_misspelled_field_is_refused_by_name(self):
        doppler = {"normalized_doppler": 0.05, "n_point": 128, "compensate_variance": False}
        with pytest.raises(SpecificationError, match="workload.doppler.*'n_point'"):
            plan_from_workload(_workload(doppler))

    def test_misspelled_field_is_a_clean_cli_error(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(_workload({"normalized_doppler": 0.05, "n_point": 128})))
        with pytest.raises(SystemExit, match="workload error: .*'n_point'"):
            main(["suite", "--file", str(path)])

    @pytest.mark.parametrize("doppler", [0.05, [0.05, 128], "fast"])
    def test_non_mapping_is_refused(self, doppler):
        with pytest.raises(SpecificationError, match="workload.doppler must be a mapping"):
            plan_from_workload(_workload(doppler))

    @pytest.mark.parametrize(
        "doppler",
        [{}, {"normalized_doppler": 0.7}, {"normalized_doppler": 0.05, "n_points": 4}],
    )
    def test_malformed_mapping_names_the_field(self, doppler):
        with pytest.raises(SpecificationError, match="workload.doppler"):
            plan_from_workload(_workload(doppler))
