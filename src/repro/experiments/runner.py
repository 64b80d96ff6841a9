"""Experiment registry and execution helpers.

Maps the experiment identifiers of the README's experiment table to their
``run`` callables.  Used by the command line (``python -m repro``), the benchmark
harness, and the integration tests.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..exceptions import ExperimentError
from . import (
    baseline_comparison,
    coloring_methods,
    doppler_accuracy,
    doppler_substrate,
    eq22,
    eq23,
    fig4a,
    fig4b,
    non_psd,
    psd_forcing,
    scaling,
    unequal_power,
    variance_compensation,
)
from .reporting import ExperimentResult

__all__ = ["EXPERIMENTS", "run_experiment", "list_experiments"]

#: Registry: experiment id -> zero-config run callable.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "eq22-spectral-covariance": eq22.run,
    "eq23-spatial-covariance": eq23.run,
    "fig4a-spectral-envelopes": fig4a.run,
    "fig4b-spatial-envelopes": fig4b.run,
    "doppler-autocorrelation": doppler_accuracy.run,
    "doppler-substrate": doppler_substrate.run,
    "variance-compensation": variance_compensation.run,
    "non-psd-recovery": non_psd.run,
    "psd-forcing-precision": psd_forcing.run,
    "unequal-power": unequal_power.run,
    "coloring-methods": coloring_methods.run,
    "baseline-comparison": baseline_comparison.run,
    "scaling-n": scaling.run,
    "scaling-batch": scaling.run_batch,
    "scaling-doppler-batch": scaling.run_doppler_batch,
}


def list_experiments() -> List[str]:
    """Identifiers of all registered experiments, in README table order."""
    return list(EXPERIMENTS)


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id.

    Raises
    ------
    ExperimentError
        If the identifier is unknown.
    """
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError as exc:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: {list_experiments()}"
        ) from exc
    return runner(**kwargs)

