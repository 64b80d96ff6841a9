"""Integration tests: every registered experiment runs and passes its acceptance criteria."""

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.experiments import EXPERIMENTS, list_experiments, run_experiment
from repro.experiments.reporting import ExperimentResult

#: Cheaper-than-default settings for the statistically heavy experiments so the
#: registry sweep stays fast; the acceptance thresholds are unchanged.
FAST_KWARGS = {
    "fig4a-spectral-envelopes": {"n_blocks": 4},
    "fig4b-spatial-envelopes": {"n_blocks": 4},
    "non-psd-recovery": {"n_samples": 60_000, "sizes": (3, 6)},
    "psd-forcing-precision": {"n_matrices": 4},
    "unequal-power": {"n_samples": 150_000, "n_blocks": 3},
    "baseline-comparison": {},
    "scaling-n": {"branch_counts": (2, 8, 32), "snapshot_samples": 20_000},
    "scaling-batch": {"batch_sizes": (1, 8), "n_samples": 128},
    "scaling-doppler-batch": {"batch_sizes": (1, 8), "n_points": 64},
}


class TestRegistry:
    def test_all_design_doc_experiments_registered(self):
        expected = {
            "eq22-spectral-covariance",
            "eq23-spatial-covariance",
            "fig4a-spectral-envelopes",
            "fig4b-spatial-envelopes",
            "doppler-autocorrelation",
            "doppler-substrate",
            "variance-compensation",
            "non-psd-recovery",
            "psd-forcing-precision",
            "unequal-power",
            "coloring-methods",
            "baseline-comparison",
            "scaling-n",
            "scaling-batch",
            "scaling-doppler-batch",
        }
        assert expected == set(list_experiments())

    def test_unknown_experiment_raises(self):
        with pytest.raises(ExperimentError):
            run_experiment("not-an-experiment")


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_runs_and_passes(experiment_id):
    kwargs = FAST_KWARGS.get(experiment_id, {})
    result = run_experiment(experiment_id, **kwargs)
    assert isinstance(result, ExperimentResult)
    assert result.experiment_id == experiment_id
    assert result.tables, "every experiment must report at least one table"
    assert result.passed, result.render()


def test_results_are_renderable_and_finite():
    result = run_experiment("eq22-spectral-covariance")
    text = result.render(include_series=True)
    assert "experiment" in text
    for value in result.metrics.values():
        assert np.isfinite(value)
