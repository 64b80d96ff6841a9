"""repro — correlated Rayleigh fading envelope generation.

A production-oriented Python implementation of the generalized algorithm of
Tran, Wysocki, Seberry & Mertins, *"A Generalized Algorithm for the
Generation of Correlated Rayleigh Fading Envelopes in Radio Channels"*
(IPDPS 2005), together with the physical correlation models, the
Young–Beaulieu IDFT Doppler substrate, the conventional baseline methods it
is compared against, and the experiments reproducing the paper's evaluation.

Quick start
-----------
>>> import numpy as np
>>> from repro import Simulator
>>> K = np.array([[1.0, 0.5 + 0.2j], [0.5 - 0.2j, 1.0]])
>>> sim = Simulator()   # or Simulator(backend="scipy", max_workers=4, cache=...)
>>> envelopes = sim.envelopes(K, 100_000, seed=1).envelopes

Package map
-----------
``repro.api``
    The one front door: :class:`Simulator` (one-call generation, batched
    runs — replica ensembles included — bounded-memory streaming, async
    submission, pluggable linalg backends).
``repro.core``
    The paper's algorithm: covariance assembly, forced PSD, eigen coloring,
    snapshot and real-time generators.
``repro.channels``
    Spectral (Jakes) and spatial (Salz–Winters) correlation models, Doppler
    filters, the IDFT Rayleigh generator, scenario builders.
``repro.engine``
    Batched plan → compile → execute pipeline with stacked-covariance
    coloring and decomposition caching; the single-spec path is its
    ``B = 1`` case.
``repro.baselines``
    Conventional methods [1]–[6] reviewed in the paper's introduction.
``repro.linalg`` / ``repro.signal`` / ``repro.random``
    Numerical substrates.
``repro.validation``
    Statistical acceptance checks (covariance match, Rayleigh fit).
``repro.shard``
    The one multiprocess path: a plan partitioned across worker processes,
    bit-identical to running it in one process.
``repro.experiments``
    One module per paper figure/table plus ablations; also exposed through
    ``python -m repro``.
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports
from ._version import __version__

# Names resolve on first read (PEP 562), so ``import repro`` stays cheap and
# a process loads only the subpackages it uses.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".config": ("DEFAULTS", "NumericDefaults"),
        ".exceptions": (
            "ReproError",
            "SpecificationError",
            "CovarianceError",
            "NotPositiveSemiDefiniteError",
            "CholeskyError",
            "ColoringError",
            "DopplerError",
            "GenerationError",
        ),
        ".types": ("EnvelopeBlock", "GaussianBlock"),
        ".core": (
            "CovarianceSpec",
            "RayleighFadingGenerator",
            "RealTimeRayleighGenerator",
            "build_covariance_matrix",
            "correlation_coefficient_matrix",
            "envelope_power_to_gaussian_power",
            "gaussian_power_to_envelope_power",
            "envelope_correlation_from_gaussian",
            "gaussian_correlation_from_envelope",
            "gaussian_correlation_matrix_from_envelope",
            "force_positive_semidefinite",
            "compute_coloring",
            "covariance_match_report",
            "envelope_power_report",
        ),
        ".channels": (
            "OFDMScenario",
            "MIMOArrayScenario",
            "DopplerSettings",
            "ScenarioSweep",
            "SpectralCorrelationModel",
            "SpatialCorrelationModel",
            "IDFTRayleighGenerator",
            "SumOfSinusoidsGenerator",
        ),
        ".engine": (
            "BatchResult",
            "DecompositionCache",
            "DopplerFilterCache",
            "DopplerSpec",
            "FadingSpec",
            "LinalgBackend",
            "PlanEntry",
            "SimulationEngine",
            "SimulationPlan",
            "available_backends",
            "get_backend",
            "register_backend",
        ),
        ".api": ("Simulator",),
    },
)

if TYPE_CHECKING:  # pragma: no cover - static view of the lazy names
    from .api import Simulator
    from .channels import (
        DopplerSettings,
        IDFTRayleighGenerator,
        MIMOArrayScenario,
        OFDMScenario,
        ScenarioSweep,
        SpatialCorrelationModel,
        SpectralCorrelationModel,
        SumOfSinusoidsGenerator,
    )
    from .config import DEFAULTS, NumericDefaults
    from .core import (
        CovarianceSpec,
        RayleighFadingGenerator,
        RealTimeRayleighGenerator,
        build_covariance_matrix,
        compute_coloring,
        correlation_coefficient_matrix,
        covariance_match_report,
        envelope_correlation_from_gaussian,
        envelope_power_report,
        envelope_power_to_gaussian_power,
        force_positive_semidefinite,
        gaussian_correlation_from_envelope,
        gaussian_correlation_matrix_from_envelope,
        gaussian_power_to_envelope_power,
    )
    from .engine import (
        BatchResult,
        DecompositionCache,
        DopplerFilterCache,
        DopplerSpec,
        FadingSpec,
        LinalgBackend,
        PlanEntry,
        SimulationEngine,
        SimulationPlan,
        available_backends,
        get_backend,
        register_backend,
    )
    from .exceptions import (
        CholeskyError,
        ColoringError,
        CovarianceError,
        DopplerError,
        GenerationError,
        NotPositiveSemiDefiniteError,
        ReproError,
        SpecificationError,
    )
    from .types import EnvelopeBlock, GaussianBlock

__all__ = [
    "__version__",
    "DEFAULTS",
    "NumericDefaults",
    "ReproError",
    "SpecificationError",
    "CovarianceError",
    "NotPositiveSemiDefiniteError",
    "CholeskyError",
    "ColoringError",
    "DopplerError",
    "GenerationError",
    "EnvelopeBlock",
    "GaussianBlock",
    "CovarianceSpec",
    "RayleighFadingGenerator",
    "RealTimeRayleighGenerator",
    "build_covariance_matrix",
    "correlation_coefficient_matrix",
    "envelope_power_to_gaussian_power",
    "gaussian_power_to_envelope_power",
    "envelope_correlation_from_gaussian",
    "gaussian_correlation_from_envelope",
    "gaussian_correlation_matrix_from_envelope",
    "force_positive_semidefinite",
    "compute_coloring",
    "covariance_match_report",
    "envelope_power_report",
    "OFDMScenario",
    "MIMOArrayScenario",
    "DopplerSettings",
    "ScenarioSweep",
    "SpectralCorrelationModel",
    "SpatialCorrelationModel",
    "IDFTRayleighGenerator",
    "SumOfSinusoidsGenerator",
    "BatchResult",
    "DecompositionCache",
    "DopplerFilterCache",
    "LinalgBackend",
    "PlanEntry",
    "SimulationEngine",
    "SimulationPlan",
    "DopplerSpec",
    "FadingSpec",
    "available_backends",
    "get_backend",
    "register_backend",
    "Simulator",
]
