"""Simulation plans: declarative batches of covariance specifications.

A :class:`SimulationPlan` collects the covariance specifications of many
scenarios — a parameter sweep, a Monte-Carlo grid, a heterogeneous mix —
*before* any linear algebra runs.  Each :class:`PlanEntry` pairs one
:class:`repro.core.covariance.CovarianceSpec` with its own random seed and
algorithm options, so the batched engine can later reproduce exactly what a
loop of single-spec :class:`repro.core.generator.RayleighFadingGenerator`
instances would produce.

Entries may additionally carry a :class:`DopplerSpec`, in which case the
engine reproduces the Section 5 *real-time* algorithm instead of the
snapshot one: each branch's white samples are replaced by Young–Beaulieu
IDFT generator outputs (Doppler-shaped temporal correlation), and the
coloring step is normalized by the Eq. (19) filter-output variance.  For the
same per-entry seeds, a Doppler entry is bit-identical to a standalone
:class:`repro.core.realtime.RealTimeRayleighGenerator`.
:func:`doppler_block_size` picks the smallest valid IDFT block length for a
record.

Plans are the unit of work the engine compiles (:mod:`repro.engine.compile`)
and the unit the sharding layer partitions across worker processes
(:func:`repro.shard.slicing.partition_plan`, through :func:`partition_counts`).
A Monte-Carlo replica ensemble is a plan too: ``R`` entries sharing one
spec, with seeds derived by :meth:`SimulationPlan.from_specs`; a long
bounded-memory record is :meth:`repro.api.Simulator.stream` over a
one-entry plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.covariance import CovarianceSpec
from ..exceptions import SpecificationError
from ..models.fading import FadingLike, FadingSpec, coerce_fading
from ..types import SeedLike

__all__ = [
    "DopplerSpec",
    "FadingSpec",
    "PlanEntry",
    "SimulationPlan",
    "doppler_block_size",
    "partition_counts",
]

_COLORING_METHODS = ("eigen", "cholesky", "svd")
_PSD_METHODS = ("clip", "epsilon", "higham")

#: What callers may pass wherever a Doppler mode is expected: a ready
#: :class:`DopplerSpec`, a bare normalized Doppler frequency (defaults for
#: everything else), the wire mapping of :mod:`repro.service.protocol`
#: (the :class:`DopplerSpec` field names, ``normalized_doppler`` required),
#: or ``None`` for snapshot mode.
DopplerLike = Union[None, float, "DopplerSpec", Mapping[str, Any]]


@dataclass(frozen=True)
class DopplerSpec:
    """Doppler mode of one plan entry (the paper's Section 5 algorithm).

    Attributes
    ----------
    normalized_doppler:
        Normalized maximum Doppler frequency ``f_m = F_m / F_s`` in
        ``(0, 0.5)``.
    n_points:
        IDFT block length ``M``; samples are produced in multiples of ``M``
        and truncated to the requested count.  The paper uses 4096.
    input_variance_per_dim:
        Variance ``sigma_orig^2`` of the real Gaussian sequences at the
        Doppler-filter inputs (paper: 1/2).
    compensate_variance:
        If ``True`` (the paper's algorithm) the coloring step is normalized
        by the filter-output variance of Eq. (19); ``False`` reproduces the
        uncompensated defect of Sorooshyari & Daut [6].
    """

    normalized_doppler: float
    n_points: int = 4096
    input_variance_per_dim: float = 0.5
    compensate_variance: bool = True

    def __post_init__(self) -> None:
        from ..channels.doppler import validate_doppler_parameters

        # Raises DopplerError / FilterDesignError on invalid (M, f_m).
        validate_doppler_parameters(int(self.n_points), self.normalized_doppler)
        object.__setattr__(self, "n_points", int(self.n_points))
        object.__setattr__(self, "normalized_doppler", float(self.normalized_doppler))
        object.__setattr__(
            self, "input_variance_per_dim", float(self.input_variance_per_dim)
        )
        object.__setattr__(self, "compensate_variance", bool(self.compensate_variance))
        if (
            self.input_variance_per_dim <= 0
            or not np.isfinite(self.input_variance_per_dim)
        ):
            raise SpecificationError(
                "input_variance_per_dim must be positive and finite, got "
                f"{self.input_variance_per_dim!r}"
            )

    @property
    def filter_key(self) -> Tuple[int, float, float]:
        """Parameters determining the Doppler filter and its output variance.

        Entries sharing this key share one Young–Beaulieu filter build (the
        ``compensate_variance`` flag only affects the per-entry
        normalization, not the filter).
        """
        return (self.n_points, self.normalized_doppler, self.input_variance_per_dim)


#: Smallest IDFT block the Doppler mode will use (the historical default).
_MIN_DOPPLER_POINTS = 64

#: Largest IDFT block the Doppler mode will accept before declaring the
#: passband constraint unsatisfiable (2**26 complex samples per branch is
#: already a ~1 GiB working set).
_MAX_DOPPLER_POINTS = 1 << 26


def doppler_block_size(
    n_samples: int,
    normalized_doppler: float,
    *,
    max_points: int = _MAX_DOPPLER_POINTS,
) -> int:
    """Smallest power-of-two IDFT block length for the Doppler mode.

    The block must hold ``n_samples`` output samples and keep at least one
    DFT bin inside the Doppler filter passband
    (``floor(normalized_doppler * n_points) >= 1``), which requires
    ``n_points >= 1 / normalized_doppler``.  Both bounds are closed-form
    powers of two, so no search loop is needed.

    Raises
    ------
    SpecificationError
        If ``normalized_doppler`` is outside ``(0, 0.5)`` or the passband
        constraint cannot be met with a block of at most ``max_points``
        samples (tiny normalized Doppler would otherwise grow the block —
        and the memory footprint — without bound).
    """
    doppler = float(normalized_doppler)
    if not 0.0 < doppler < 0.5:
        raise SpecificationError(
            f"normalized_doppler must lie in (0, 0.5), got {normalized_doppler!r}"
        )
    if n_samples < 1:
        raise SpecificationError(f"n_samples must be >= 1, got {n_samples}")
    exponent = max(
        _MIN_DOPPLER_POINTS.bit_length() - 1,
        (int(n_samples) - 1).bit_length(),
        math.ceil(math.log2(1.0 / doppler)),
    )
    n_points = 1 << exponent
    if doppler * n_points < 1.0:
        # log2 round-off can land one power of two short of the passband
        # bound; the next power is exact.
        n_points <<= 1
    if n_points > max_points:
        raise SpecificationError(
            f"normalized_doppler={doppler!r} needs an IDFT block of {n_points} points "
            f"to keep one bin in the filter passband, exceeding the limit of "
            f"{max_points}; increase the Doppler (or the sampling period) instead"
        )
    return n_points


_DOPPLER_FIELDS = (
    "normalized_doppler",
    "n_points",
    "input_variance_per_dim",
    "compensate_variance",
)


def coerce_doppler(doppler: DopplerLike) -> Optional[DopplerSpec]:
    """Normalize a :data:`DopplerLike` value into an optional :class:`DopplerSpec`.

    A mapping is decoded field by field with the :class:`DopplerSpec`
    defaults; any problem with it (unknown or missing field, a value of
    the wrong type or out of range) raises
    :class:`~repro.exceptions.SpecificationError`.
    """
    if doppler is None or isinstance(doppler, DopplerSpec):
        return doppler
    if isinstance(doppler, (int, float, np.floating)) and not isinstance(doppler, bool):
        return DopplerSpec(normalized_doppler=float(doppler))
    if isinstance(doppler, Mapping):
        unknown = sorted(set(doppler) - set(_DOPPLER_FIELDS), key=str)
        if unknown:
            raise SpecificationError(
                f"unknown doppler field(s) {unknown}; expected {list(_DOPPLER_FIELDS)}"
            )
        try:
            return DopplerSpec(
                normalized_doppler=float(doppler["normalized_doppler"]),
                n_points=int(doppler.get("n_points", 4096)),
                input_variance_per_dim=float(doppler.get("input_variance_per_dim", 0.5)),
                compensate_variance=bool(doppler.get("compensate_variance", True)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecificationError(f"malformed doppler mapping: {exc}") from exc
    raise SpecificationError(
        "doppler must be None, a normalized Doppler frequency, a mapping, or a "
        f"DopplerSpec; got {type(doppler).__name__}"
    )


@dataclass(frozen=True, eq=False)
class PlanEntry:
    """One scenario inside a :class:`SimulationPlan`.

    Entries compare (and hash) by identity: the spec holds numpy arrays, so
    an element-wise ``__eq__`` would raise on membership tests like
    ``entry in plan``.

    Attributes
    ----------
    spec:
        The covariance specification to realize.
    seed:
        Seed (or generator) for this entry's white-sample stream.  Feeding
        the same seed to a standalone
        :class:`repro.core.generator.RayleighFadingGenerator` yields
        bit-identical samples.
    coloring_method, psd_method, epsilon:
        Algorithm options, as accepted by
        :func:`repro.core.coloring.compute_coloring`.
    sample_variance:
        White-sample variance ``sigma_w^2`` (step 6 of the paper's
        algorithm); the default 1.0 matches the snapshot generator.  Doppler
        entries must leave it at 1.0 — their effective variance is the
        Eq. (19) filter-output variance, computed at compile time.
    doppler:
        Optional :class:`DopplerSpec` switching this entry to the Section 5
        real-time algorithm.  Feeding the same seed to a standalone
        :class:`repro.core.realtime.RealTimeRayleighGenerator` yields
        bit-identical samples.
    fading:
        Optional :class:`repro.models.fading.FadingSpec` selecting the
        post-coloring channel model (Rician, Nakagami-m, Weibull, optional
        log-normal shadowing).  ``None`` — including a trivial spec, which
        is collapsed to ``None`` — is the byte-identical Rayleigh fast
        path.  Composes with either generation mode (snapshot or Doppler).
    label:
        Optional caller-supplied identifier carried into result metadata.
    """

    spec: CovarianceSpec
    seed: SeedLike = None
    coloring_method: str = "eigen"
    psd_method: str = "clip"
    epsilon: float = 1e-6
    sample_variance: float = 1.0
    doppler: Optional[DopplerSpec] = None
    fading: Optional[FadingSpec] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.spec, CovarianceSpec):
            raise SpecificationError(
                f"PlanEntry.spec must be a CovarianceSpec, got {type(self.spec).__name__}"
            )
        if self.coloring_method not in _COLORING_METHODS:
            raise SpecificationError(
                f"unknown coloring method {self.coloring_method!r}; "
                f"choose from {_COLORING_METHODS}"
            )
        if self.psd_method not in _PSD_METHODS:
            raise SpecificationError(
                f"unknown PSD forcing method {self.psd_method!r}; choose from {_PSD_METHODS}"
            )
        if self.epsilon <= 0 or not np.isfinite(self.epsilon):
            raise SpecificationError(
                f"epsilon must be positive and finite, got {self.epsilon!r}"
            )
        if self.sample_variance <= 0 or not np.isfinite(self.sample_variance):
            raise SpecificationError(
                f"sample_variance must be positive and finite, got {self.sample_variance!r}"
            )
        if self.doppler is not None:
            if not isinstance(self.doppler, DopplerSpec):
                raise SpecificationError(
                    f"PlanEntry.doppler must be a DopplerSpec or None, got "
                    f"{type(self.doppler).__name__}"
                )
            if self.sample_variance != 1.0:
                raise SpecificationError(
                    "Doppler entries determine their sample variance from the "
                    "Eq. (19) filter-output variance; leave sample_variance at 1.0 "
                    f"(got {self.sample_variance!r})"
                )
        if self.fading is not None:
            if not isinstance(self.fading, FadingSpec):
                raise SpecificationError(
                    f"PlanEntry.fading must be a FadingSpec or None, got "
                    f"{type(self.fading).__name__}"
                )
            if self.fading.is_trivial:
                # Plain Rayleigh without shadowing IS the default path;
                # collapsing keeps ``fading is None`` the single fast-path
                # test and the cache/group keys canonical.
                object.__setattr__(self, "fading", None)

    @property
    def n_branches(self) -> int:
        """Number of correlated branches of this entry."""
        return self.spec.n_branches

    def cache_key(self, defaults, cache_token: str = "numpy") -> str:
        """Content-hash cache key of this entry's decomposition (memoized).

        The entry is frozen and the library treats covariance matrices as
        immutable, so the hash is computed once per (tolerance bundle,
        backend cache token) and reused by subsequent compiles of the same
        plan object.  ``cache_token`` namespaces the key by the backend
        computing the decomposition (see
        :func:`repro.engine.cache.decomposition_cache_key`).
        """
        from .cache import decomposition_cache_key

        memo_key = (
            cache_token,
            defaults.eig_clip_tol,
            defaults.psd_tol,
            defaults.hermitian_atol,
            defaults.hermitian_rtol,
        )
        memo = self.__dict__.get("_cache_key_memo")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_cache_key_memo", memo)
        key = memo.get(memo_key)
        if key is None:
            key = decomposition_cache_key(
                self.spec.matrix,
                method=self.coloring_method,
                psd_method=self.psd_method,
                epsilon=self.epsilon,
                defaults=defaults,
                cache_token=cache_token,
            )
            memo[memo_key] = key
        return key

    @property
    def group_key(
        self,
    ) -> Tuple[
        int,
        str,
        str,
        float,
        Optional[Tuple[int, float, float]],
        Optional[Tuple[str, bool]],
    ]:
        """Compilation group: entries sharing it stack into one batch.

        Doppler entries group by ``(N, M, f_m, sigma_orig^2)`` in addition to
        the algorithm options, so each group shares one Young–Beaulieu filter
        build and one stacked IDFT call; the ``compensate_variance`` flag is
        per-entry and does not split groups.  Entries also group by fading
        *family* (``(model, has_shadowing)``) so the executor applies one
        stacked transform per group; the shape parameters (K, m, k) and
        shadowing spreads are per-entry columns and do not split groups.
        """
        doppler_key = None if self.doppler is None else self.doppler.filter_key
        fading_key = None if self.fading is None else self.fading.family
        return (
            self.n_branches,
            self.coloring_method,
            self.psd_method,
            float(self.epsilon),
            doppler_key,
            fading_key,
        )

    def with_seed(self, seed: SeedLike) -> "PlanEntry":
        """Return a copy of this entry with a different seed."""
        return replace(self, seed=seed)


def partition_counts(total: int, n_partitions: int) -> List[int]:
    """Split ``total`` into ``n_partitions`` non-negative counts summing to ``total``.

    The first ``total % n_partitions`` partitions receive one extra item, so
    counts differ by at most one.

    Raises
    ------
    ValueError
        If ``total`` is negative or ``n_partitions`` is not positive.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if n_partitions <= 0:
        raise ValueError(f"n_partitions must be positive, got {n_partitions}")
    base, remainder = divmod(int(total), int(n_partitions))
    return [base + (1 if index < remainder else 0) for index in range(n_partitions)]


class SimulationPlan:
    """An ordered collection of scenarios to simulate as one batch.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import CovarianceSpec
    >>> from repro.api import Simulator
    >>> from repro.engine import SimulationPlan
    >>> plan = SimulationPlan()
    >>> for power in (0.5, 1.0, 2.0):
    ...     K = power * np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex)
    ...     _ = plan.add(K, seed=int(power * 10))
    >>> result = Simulator().run(plan, n_samples=1000)
    >>> result.blocks[0].samples.shape
    (2, 1000)
    """

    def __init__(self, entries: Iterable[PlanEntry] = ()) -> None:
        self._entries: List[PlanEntry] = []
        for entry in entries:
            if not isinstance(entry, PlanEntry):
                raise SpecificationError(
                    f"SimulationPlan entries must be PlanEntry objects, got "
                    f"{type(entry).__name__}"
                )
            self._entries.append(entry)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(
        self,
        covariance: Union[CovarianceSpec, np.ndarray],
        *,
        seed: SeedLike = None,
        coloring_method: str = "eigen",
        psd_method: str = "clip",
        epsilon: float = 1e-6,
        sample_variance: float = 1.0,
        doppler: DopplerLike = None,
        fading: FadingLike = None,
        label: Optional[str] = None,
    ) -> int:
        """Append one scenario and return its plan index.

        ``covariance`` may be a :class:`CovarianceSpec` or a raw complex
        covariance matrix (branch powers read off the diagonal, as the
        generators do).  ``doppler`` may be a :class:`DopplerSpec`, a bare
        normalized Doppler frequency (defaults for block length and input
        variance), or ``None`` for snapshot mode.  ``fading`` may be a
        :class:`~repro.models.fading.FadingSpec`, a model name, a mapping
        (the JSON schema), or ``None`` for Rayleigh.
        """
        if not isinstance(covariance, CovarianceSpec):
            covariance = CovarianceSpec.from_covariance_matrix(
                np.asarray(covariance, dtype=complex)
            )
        entry = PlanEntry(
            spec=covariance,
            seed=seed,
            coloring_method=coloring_method,
            psd_method=psd_method,
            epsilon=epsilon,
            sample_variance=sample_variance,
            doppler=coerce_doppler(doppler),
            fading=coerce_fading(fading),
            label=label,
        )
        self._entries.append(entry)
        return len(self._entries) - 1

    def add_scenario(
        self,
        scenario: Any,
        gaussian_powers: np.ndarray,
        *,
        seed: SeedLike = None,
        coloring_method: str = "eigen",
        psd_method: str = "clip",
        epsilon: float = 1e-6,
        sample_variance: float = 1.0,
        doppler: DopplerLike = None,
        fading: FadingLike = None,
        label: Optional[str] = None,
    ) -> int:
        """Append a physical scenario (any object with ``covariance_spec``)."""
        if not hasattr(scenario, "covariance_spec"):
            raise SpecificationError(
                "scenario must expose a covariance_spec(gaussian_powers) method; got "
                f"{type(scenario).__name__}"
            )
        spec = scenario.covariance_spec(np.asarray(gaussian_powers, dtype=float))
        return self.add(
            spec,
            seed=seed,
            coloring_method=coloring_method,
            psd_method=psd_method,
            epsilon=epsilon,
            sample_variance=sample_variance,
            doppler=doppler,
            fading=fading,
            label=label,
        )

    @classmethod
    def from_specs(
        cls,
        specs: Sequence[Union[CovarianceSpec, np.ndarray]],
        *,
        seed: SeedLike = None,
        seeds: Optional[Sequence[SeedLike]] = None,
        coloring_method: str = "eigen",
        psd_method: str = "clip",
        epsilon: float = 1e-6,
        sample_variance: float = 1.0,
        doppler: DopplerLike = None,
        fading: FadingLike = None,
        labels: Optional[Sequence[Optional[str]]] = None,
    ) -> "SimulationPlan":
        """Build a plan from a sequence of specs with derived per-entry seeds.

        Parameters
        ----------
        specs:
            Covariance specs or raw matrices, one per entry.
        seed:
            Root seed; when given (and ``seeds`` is not), every entry
            receives an independent integer seed derived deterministically
            from it (:func:`repro.random.spawn_rngs` children).  ``R``
            copies of one spec under one root seed are a Monte-Carlo
            replica ensemble: ``R`` independent realizations of a single
            covariance.
        seeds:
            Explicit per-entry seeds (overrides ``seed``); must match
            ``len(specs)``.
        doppler:
            Doppler mode applied to every entry (``None``, a normalized
            Doppler frequency, or a :class:`DopplerSpec`).
        fading:
            Fading model applied to every entry (``None``, a model name, a
            mapping, or a :class:`~repro.models.fading.FadingSpec`).
        """
        specs = list(specs)
        if seeds is not None:
            seeds = list(seeds)
            if len(seeds) != len(specs):
                raise SpecificationError(
                    f"seeds must have one entry per spec: got {len(seeds)} seeds "
                    f"for {len(specs)} specs"
                )
        elif seed is not None and specs:
            from ..random import spawn_rngs

            children = spawn_rngs(seed, len(specs))
            # Plain integer seeds keep entries picklable for process pools.
            seeds = [int(child.integers(0, np.iinfo(np.int64).max)) for child in children]
        else:
            seeds = [None] * len(specs)
        if labels is not None and len(labels) != len(specs):
            raise SpecificationError(
                f"labels must have one entry per spec: got {len(labels)} labels "
                f"for {len(specs)} specs"
            )
        plan = cls()
        doppler_spec = coerce_doppler(doppler)
        fading_spec = coerce_fading(fading)
        for index, spec in enumerate(specs):
            plan.add(
                spec,
                seed=seeds[index],
                coloring_method=coloring_method,
                psd_method=psd_method,
                epsilon=epsilon,
                sample_variance=sample_variance,
                doppler=doppler_spec,
                fading=fading_spec,
                label=None if labels is None else labels[index],
            )
        return plan

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def entries(self) -> Tuple[PlanEntry, ...]:
        """The plan entries, in insertion order."""
        return tuple(self._entries)

    @property
    def n_entries(self) -> int:
        """Number of scenarios in the plan."""
        return len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[PlanEntry]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> PlanEntry:
        return self._entries[index]

    def group_sizes(self) -> Dict[Tuple, int]:
        """Entries per compilation group (diagnostic)."""
        sizes: Dict[Tuple, int] = {}
        for entry in self._entries:
            sizes[entry.group_key] = sizes.get(entry.group_key, 0) + 1
        return sizes

    # ------------------------------------------------------------------ #
    # Partitioning (for the sharding layer)
    # ------------------------------------------------------------------ #
    def partition(self, n_parts: int) -> List["SimulationPlan"]:
        """Split the plan into at most ``n_parts`` contiguous sub-plans.

        Entry order is preserved (sub-plan ``k`` holds a contiguous slice),
        counts differ by at most one, and empty sub-plans are dropped — the
        same contract as :func:`partition_counts`.
        """
        counts = partition_counts(len(self._entries), n_parts)
        plans: List[SimulationPlan] = []
        cursor = 0
        for count in counts:
            if count == 0:
                continue
            plans.append(SimulationPlan(self._entries[cursor : cursor + count]))
            cursor += count
        return plans
