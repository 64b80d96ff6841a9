"""Reproduction of the paper's evaluation (Section 6) plus ablations.

Each module implements one experiment from the experiment table in the
README's "Experiments and benchmarks" section and returns an
:class:`repro.experiments.reporting.ExperimentResult` that records the
paper's stated values next to the measured ones.  The registry in
:mod:`repro.experiments.runner` maps experiment identifiers to callables and
backs both the command line (``python -m repro``) and the benchmark harness.

Experiments
-----------
``eq22-spectral-covariance``   Eq. (22): the spectral-correlation covariance matrix.
``eq23-spatial-covariance``    Eq. (23): the spatial-correlation covariance matrix.
``fig4a-spectral-envelopes``   Fig. 4(a): three spectrally correlated envelopes (real-time).
``fig4b-spatial-envelopes``    Fig. 4(b): three spatially correlated envelopes (real-time).
``doppler-autocorrelation``    Eq. (16)-(20): IDFT branch autocorrelation vs. J0.
``doppler-substrate``          Ablation: IDFT substrate vs. sum-of-sinusoids substrate.
``variance-compensation``      Section 5: with/without the Eq. (19) compensation.
``non-psd-recovery``           Sections 4.2-4.3: behaviour on non-PSD covariances.
``psd-forcing-precision``      Section 4.2: clipping vs. epsilon replacement.
``unequal-power``              Section 4.4: arbitrary unequal envelope powers.
``coloring-methods``           Section 4.3: eigen vs. Cholesky vs. SVD coloring.
``baseline-comparison``        Section 1: shortcomings of methods [1]-[6].
``scaling-n``                  Throughput scaling with the number of branches.
``scaling-batch``              Batched engine vs. looped single-spec generation.
``scaling-doppler-batch``      Batched Doppler substrate vs. looped real-time generation.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

# Lazy (PEP 562): importing one experiment module (``scaling``,
# ``paper_values``) does not load the registry and with it every experiment.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".reporting": ("ExperimentResult", "Table"),
        ".runner": ("EXPERIMENTS", "run_experiment", "list_experiments"),
    },
)

if TYPE_CHECKING:  # pragma: no cover - static view of the lazy names
    from .reporting import ExperimentResult, Table
    from .runner import EXPERIMENTS, list_experiments, run_experiment

__all__ = [
    "ExperimentResult",
    "Table",
    "EXPERIMENTS",
    "run_experiment",
    "list_experiments",
]
