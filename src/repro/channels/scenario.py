"""High-level scenario descriptions that produce covariance specifications.

The paper's two simulation scenarios (Section 6) are expressed here as
dataclasses holding *physical* parameters; calling ``covariance_spec`` turns
them into the :class:`repro.core.covariance.CovarianceSpec` consumed by the
generators:

* :class:`OFDMScenario` — spectrally correlated branches defined by carrier
  frequencies, pairwise arrival delays, rms delay spread, Doppler and
  sampling frequencies (Section 2 / Fig. 4a).
* :class:`MIMOArrayScenario` — spatially correlated branches defined by a
  uniform linear array's spacing and the angle-of-departure spread
  (Section 3 / Fig. 4b).
* :class:`DopplerSettings` — the IDFT-generator parameters (``M``,
  ``sigma_orig^2``, sampling and Doppler frequencies) shared by the real-time
  experiments.
* :class:`ScenarioSweep` — a parameter-sweep builder that expands a grid of
  scenario parameters into many scenarios and hands them to the batched
  engine as one :class:`repro.engine.SimulationPlan`.

The imports of ``CovarianceSpec`` and the engine are deferred to call time so
that ``repro.channels`` and ``repro.core`` can be imported in either order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import DimensionError, SpecificationError
from ..types import SeedLike
from .geometry import normalized_doppler
from .spatial import SpatialCorrelationModel
from .spectral import SpectralCorrelationModel

__all__ = [
    "DopplerSettings",
    "OFDMScenario",
    "MIMOArrayScenario",
    "ScenarioSweep",
]


@dataclass(frozen=True)
class DopplerSettings:
    """Parameters of the real-time (Doppler-shaped) generation mode.

    Attributes
    ----------
    sampling_frequency_hz:
        Sampling frequency ``F_s`` of the transmitted signal.
    max_doppler_hz:
        Maximum Doppler frequency ``F_m``.
    n_points:
        IDFT block length ``M``.
    input_variance_per_dim:
        Variance ``sigma_orig^2`` of the real Gaussian sequences at the
        Doppler filter inputs.
    """

    sampling_frequency_hz: float
    max_doppler_hz: float
    n_points: int = 4096
    input_variance_per_dim: float = 0.5

    def __post_init__(self) -> None:
        if self.sampling_frequency_hz <= 0:
            raise SpecificationError("sampling_frequency_hz must be positive")
        if self.max_doppler_hz <= 0:
            raise SpecificationError("max_doppler_hz must be positive")
        if self.n_points < 8:
            raise SpecificationError("n_points must be at least 8")
        if self.input_variance_per_dim <= 0:
            raise SpecificationError("input_variance_per_dim must be positive")

    @property
    def normalized_doppler(self) -> float:
        """Normalized maximum Doppler frequency ``f_m = F_m / F_s``."""
        return normalized_doppler(self.max_doppler_hz, self.sampling_frequency_hz)


def _pairwise_delay_matrix(delays: np.ndarray, n: int) -> np.ndarray:
    """Normalize user-provided delays into a symmetric ``(N, N)`` matrix.

    Accepts either a full symmetric matrix or a length-N vector of per-branch
    arrival times (in which case the pairwise delay is the absolute
    difference of arrival times).
    """
    arr = np.asarray(delays, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != n:
            raise DimensionError(
                f"per-branch arrival times must have length {n}, got {arr.shape[0]}"
            )
        return np.abs(arr[:, None] - arr[None, :])
    if arr.shape != (n, n):
        raise DimensionError(
            f"delay matrix must have shape ({n}, {n}) or ({n},), got {arr.shape}"
        )
    if not np.allclose(arr, arr.T):
        raise SpecificationError("the delay matrix must be symmetric")
    return arr


@dataclass(frozen=True)
class OFDMScenario:
    """Spectrally correlated branches (Section 2, Fig. 4a of the paper).

    Attributes
    ----------
    carrier_frequencies_hz:
        Carrier frequency of each branch (length N).
    delays_s:
        Either a symmetric ``(N, N)`` matrix of pairwise arrival delays
        ``tau_{k,j}`` or a length-N vector of per-branch arrival times.
    rms_delay_spread_s:
        RMS delay spread ``sigma_tau`` of the channel.
    doppler:
        Doppler settings (sampling frequency, maximum Doppler, IDFT size).
    """

    carrier_frequencies_hz: np.ndarray
    delays_s: np.ndarray
    rms_delay_spread_s: float
    doppler: DopplerSettings

    def __post_init__(self) -> None:
        freqs = np.asarray(self.carrier_frequencies_hz, dtype=float)
        if freqs.ndim != 1 or freqs.size < 1:
            raise DimensionError("carrier_frequencies_hz must be a non-empty 1-D array")
        if np.any(freqs <= 0):
            raise SpecificationError("carrier frequencies must be positive")
        if self.rms_delay_spread_s < 0:
            raise SpecificationError("rms_delay_spread_s must be non-negative")
        delays = _pairwise_delay_matrix(self.delays_s, freqs.size)
        object.__setattr__(self, "carrier_frequencies_hz", freqs)
        object.__setattr__(self, "delays_s", delays)

    @property
    def n_branches(self) -> int:
        """Number of correlated branches."""
        return int(self.carrier_frequencies_hz.shape[0])

    def correlation_model(self) -> SpectralCorrelationModel:
        """The underlying Jakes spectral-correlation model."""
        return SpectralCorrelationModel(
            frequencies_hz=self.carrier_frequencies_hz,
            delays_s=self.delays_s,
            max_doppler_hz=self.doppler.max_doppler_hz,
            rms_delay_spread_s=self.rms_delay_spread_s,
        )

    def covariance_components(
        self, gaussian_powers: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(Rxx, Ryy, Rxy, Ryx)`` matrices for the given branch powers."""
        return self.correlation_model().covariance_components(gaussian_powers)

    def covariance_spec(self, gaussian_powers: np.ndarray):
        """Build the :class:`repro.core.covariance.CovarianceSpec` for this scenario."""
        from ..core.covariance import CovarianceSpec

        powers = np.asarray(gaussian_powers, dtype=float)
        if powers.shape != (self.n_branches,):
            raise DimensionError(
                f"gaussian_powers must have shape ({self.n_branches},), got {powers.shape}"
            )
        rxx, ryy, rxy, ryx = self.covariance_components(powers)
        return CovarianceSpec.from_components(
            powers,
            rxx,
            ryy,
            rxy,
            ryx,
            metadata={
                "scenario": "ofdm-spectral",
                "carrier_frequencies_hz": self.carrier_frequencies_hz.tolist(),
                "rms_delay_spread_s": self.rms_delay_spread_s,
                "max_doppler_hz": self.doppler.max_doppler_hz,
                "sampling_frequency_hz": self.doppler.sampling_frequency_hz,
            },
        )


@dataclass(frozen=True)
class MIMOArrayScenario:
    """Spatially correlated branches from a uniform linear array (Section 3, Fig. 4b).

    Attributes
    ----------
    n_antennas:
        Number of transmit antennas (branches).
    spacing_wavelengths:
        Adjacent-element spacing ``D / lambda``.
    mean_angle_rad:
        Mean angle of departure ``Phi``.
    angular_spread_rad:
        Angular half-spread ``Delta``.
    doppler:
        Optional Doppler settings for real-time generation.
    """

    n_antennas: int
    spacing_wavelengths: float
    mean_angle_rad: float = 0.0
    angular_spread_rad: float = np.pi / 18.0
    doppler: Optional[DopplerSettings] = None

    def __post_init__(self) -> None:
        # Delegate validation of the array parameters to the model class.
        self.correlation_model()

    @property
    def n_branches(self) -> int:
        """Number of correlated branches."""
        return int(self.n_antennas)

    def correlation_model(self) -> SpatialCorrelationModel:
        """The underlying Salz–Winters spatial-correlation model."""
        return SpatialCorrelationModel(
            n_antennas=self.n_antennas,
            spacing_wavelengths=self.spacing_wavelengths,
            mean_angle_rad=self.mean_angle_rad,
            angular_spread_rad=self.angular_spread_rad,
        )

    def covariance_components(
        self, gaussian_powers: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(Rxx, Ryy, Rxy, Ryx)`` matrices for the given branch powers."""
        return self.correlation_model().covariance_components(
            np.asarray(gaussian_powers, dtype=float)
        )

    def covariance_spec(self, gaussian_powers: np.ndarray):
        """Build the :class:`repro.core.covariance.CovarianceSpec` for this scenario."""
        from ..core.covariance import CovarianceSpec

        powers = np.asarray(gaussian_powers, dtype=float)
        if powers.shape != (self.n_antennas,):
            raise DimensionError(
                f"gaussian_powers must have shape ({self.n_antennas},), got {powers.shape}"
            )
        rxx, ryy, rxy, ryx = self.covariance_components(powers)
        return CovarianceSpec.from_components(
            powers,
            rxx,
            ryy,
            rxy,
            ryx,
            metadata={
                "scenario": "mimo-spatial",
                "n_antennas": self.n_antennas,
                "spacing_wavelengths": self.spacing_wavelengths,
                "mean_angle_rad": self.mean_angle_rad,
                "angular_spread_rad": self.angular_spread_rad,
            },
        )


class ScenarioSweep:
    """A parameter sweep over scenario objects, feeding the batched engine.

    A sweep holds an ordered collection of scenario objects (anything with a
    ``covariance_spec(gaussian_powers)`` method) plus one label per scenario.
    :meth:`product` expands a cartesian grid of constructor parameters —
    the typical "vary only spacing and angular spread" study — and
    :meth:`to_plan` converts the whole sweep into a
    :class:`repro.engine.SimulationPlan` with independent per-scenario seeds,
    ready for one batched plan → compile → execute pass.

    :meth:`to_plan` is the one way a sweep becomes runnable:
    ``Simulator().run(sweep.to_plan(gaussian_powers, seed=s), n)``.

    Examples
    --------
    >>> from repro.channels import MIMOArrayScenario, ScenarioSweep
    >>> sweep = ScenarioSweep.product(
    ...     MIMOArrayScenario,
    ...     n_antennas=[3],
    ...     spacing_wavelengths=[0.5, 1.0, 2.0],
    ...     angular_spread_rad=[0.1, 0.2],
    ... )
    >>> len(sweep)
    6
    >>> plan = sweep.to_plan([1.0, 1.0, 1.0], seed=11)
    >>> plan.n_entries
    6
    >>> from repro.api import Simulator
    >>> result = Simulator().run(sweep.to_plan([1.0, 1.0, 1.0], seed=11), 64)
    >>> result.n_entries
    6
    """

    def __init__(
        self,
        scenarios: Sequence[Any],
        labels: Optional[Sequence[str]] = None,
    ) -> None:
        scenarios = list(scenarios)
        if not scenarios:
            raise SpecificationError("a ScenarioSweep needs at least one scenario")
        for scenario in scenarios:
            if not hasattr(scenario, "covariance_spec"):
                raise SpecificationError(
                    "every sweep scenario must expose a covariance_spec(gaussian_powers) "
                    f"method; got {type(scenario).__name__}"
                )
        if labels is None:
            labels = [f"scenario[{index}]" for index in range(len(scenarios))]
        else:
            labels = [str(label) for label in labels]
            if len(labels) != len(scenarios):
                raise SpecificationError(
                    f"labels must have one entry per scenario: got {len(labels)} labels "
                    f"for {len(scenarios)} scenarios"
                )
        self._scenarios: Tuple[Any, ...] = tuple(scenarios)
        self._labels: Tuple[str, ...] = tuple(labels)

    @classmethod
    def product(cls, factory: Any, **axes: Sequence[Any]) -> "ScenarioSweep":
        """Expand the cartesian product of named parameter axes.

        Parameters
        ----------
        factory:
            Callable (usually a scenario dataclass) invoked once per grid
            point with the axis values as keyword arguments.
        **axes:
            Non-empty sequences of values; single (non-swept) parameters can
            be passed as one-element lists.  Axis order follows keyword
            order, with the last axis varying fastest.
        """
        if not axes:
            raise SpecificationError("ScenarioSweep.product needs at least one axis")
        names = list(axes)
        value_lists = []
        for name in names:
            values = list(axes[name])
            if not values:
                raise SpecificationError(f"sweep axis {name!r} must be non-empty")
            value_lists.append(values)
        scenarios = []
        labels = []
        for combo in itertools.product(*value_lists):
            scenarios.append(factory(**dict(zip(names, combo))))
            labels.append(",".join(f"{name}={value!r}" for name, value in zip(names, combo)))
        return cls(scenarios, labels)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def scenarios(self) -> Tuple[Any, ...]:
        """The swept scenario objects, in grid order."""
        return self._scenarios

    @property
    def labels(self) -> Tuple[str, ...]:
        """One human-readable label per scenario."""
        return self._labels

    def __len__(self) -> int:
        return len(self._scenarios)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._scenarios)

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    def _powers_for(self, gaussian_powers: Union[np.ndarray, Sequence[np.ndarray]]):
        """Normalize powers into one array per scenario (broadcast a single vector).

        Per-scenario form: a list/tuple of power vectors, or a 2-D array of
        shape ``(n_scenarios, n_branches)``.  Anything 1-D is broadcast to
        every scenario.
        """
        if isinstance(gaussian_powers, (list, tuple)):
            per_scenario_form = np.ndim(gaussian_powers[0]) >= 1
        else:
            per_scenario_form = np.ndim(gaussian_powers) >= 2
        if per_scenario_form:
            per_scenario = [np.asarray(p, dtype=float) for p in gaussian_powers]
            if len(per_scenario) != len(self._scenarios):
                raise SpecificationError(
                    f"got {len(per_scenario)} power vectors for {len(self._scenarios)} "
                    "scenarios; pass one vector to broadcast or one per scenario"
                )
            return per_scenario
        shared = np.asarray(gaussian_powers, dtype=float)
        return [shared] * len(self._scenarios)

    def specs(self, gaussian_powers: Union[np.ndarray, Sequence[np.ndarray]]):
        """Covariance specs for every scenario in the sweep.

        ``gaussian_powers`` is either one per-branch power vector shared by
        all scenarios or a sequence with one vector per scenario.
        """
        return [
            scenario.covariance_spec(powers)
            for scenario, powers in zip(self._scenarios, self._powers_for(gaussian_powers))
        ]

    def to_plan(
        self,
        gaussian_powers: Union[np.ndarray, Sequence[np.ndarray]],
        *,
        seed: SeedLike = None,
    ):
        """Build a :class:`repro.engine.SimulationPlan` covering the sweep.

        Each entry carries its scenario's label and an independent seed
        derived from ``seed`` (see
        :meth:`repro.engine.SimulationPlan.from_specs`).
        """
        from ..engine import SimulationPlan

        return SimulationPlan.from_specs(
            self.specs(gaussian_powers),
            seed=seed,
            labels=self._labels,
        )
