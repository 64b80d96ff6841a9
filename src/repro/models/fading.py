"""Pluggable fading-model layer: the post-coloring envelope seam.

The engine's plan → compile → execute pipeline produces correlated complex
Gaussian samples whose moduli are Rayleigh envelopes.  This module
generalizes that final step into a closed table of *fading models* — pure,
vectorized post-coloring transforms the fused execute kernel applies in
place — so one correlated-Gaussian coloring pass can serve every channel
family the scenario zoo needs:

=============  =======================================  ======================
model          construction                             declared invariant
=============  =======================================  ======================
``rayleigh``   identity (the paper's default)           byte-identity: the
                                                        pre-refactor fast path
``rician(K)``  diffuse component scaled by              byte-identity to the
               ``1/sqrt(K+1)`` plus a static            looped scalar
               per-branch LOS amplitude                 reference
``nakagami``   inverse-CDF envelope transform           ``rtol <= 1e-12`` to
``(m)``        Rayleigh → Nakagami-m, phase             the looped scalar
               preserved (seeded Newton on scipy's      reference
               incomplete gamma, ``gammaincinv``
               fallback)
``weibull``    power envelope transform                 ``rtol <= 1e-12`` to
``(k)``        Rayleigh → Weibull, phase preserved      the looped scalar
                                                        reference
shadowing      per-branch log-normal gain drawn once    byte-identity (the
``(sigma_dB)`` per entry from a deterministic side      gains are a pure
               stream of the entry seed; composes       function of the
               multiplicatively with any model above    entry seed)
=============  =======================================  ======================

Contract
--------
A model is a pure function of the colored block and the entry's declared
parameters: no RNG draws inside the transform (shadowing draws its gains
*once* per entry from a tagged side stream of the entry seed, never from
the white-sample stream the Rayleigh identity depends on), no
time/environment reads, and phase preservation for the envelope
transforms.  The table is closed: a model exists only if
:func:`build_fading_stacks` and :func:`apply_fading_block` implement it.
Each model declares its own invariant (see the table above;
enforced in ``tests/property/test_property_fading_models.py``) and its
cache-key contribution (:meth:`FadingSpec.fading_token`, folded per entry
into :func:`repro.engine.plancache.compiled_plan_cache_key`).  Entries
group by :attr:`FadingSpec.family` at compile time, so one group applies
one model with stacked parameters.

The total branch powers ``Omega_j`` are read off the entry's covariance
diagonal: Rician splits ``Omega`` into ``K Omega / (K+1)`` LOS power and
``Omega / (K+1)`` diffuse power (envelope moments in
:func:`repro.core.rician_moments`), and the Nakagami/Weibull envelope maps
preserve ``E[r^2] = Omega``.

The Nakagami map needs the inverse regularized incomplete gamma function
from :mod:`scipy.special`.  Rather than call ``gammaincinv`` per sample,
the kernel seeds the inverse from a per-``m`` cubic Hermite table and
finishes it with one Newton step on ``gammainc`` / ``gammaincc``; samples
whose step cannot be shown to have converged are recomputed with
``gammaincinv`` (see :func:`_nakagami_inverse`).
"""

from __future__ import annotations

# reprolint: hot-module — the model transforms run inside the fused execute
# kernels; every deliberate allocation below is marked explicitly.

import math
import threading
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import SpecificationError

__all__ = [
    "FadingLike",
    "FadingModel",
    "FadingScratch",
    "FadingSpec",
    "FadingStacks",
    "apply_fading_block",
    "build_fading_stacks",
    "coerce_fading",
    "get_fading_model",
    "new_fading_scratch",
    "shadowing_gains",
]

#: Sub-stream tag deriving the shadowing side stream from an entry seed —
#: a separate :class:`numpy.random.SeedSequence` spawn key, so the gains
#: never consume from (or perturb) the entry's white-sample stream.
_SHADOWING_STREAM_TAG = 0x5AD0F1E1


def _as_float(value: Any, field: str) -> float:
    """``float(value)`` for a real number; ``bool`` and text are refused.

    ``float()`` alone would read ``True`` as 1.0 and ``"2.5"`` as 2.5, so a
    wire payload could smuggle either past validation.
    """
    if not isinstance(value, (bool, np.bool_, str, bytes)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise SpecificationError(f"{field} must be a number, got {value!r}")


@dataclass(frozen=True)
class FadingModel:
    """One fading model of the table: its validation contract and invariant.

    Attributes
    ----------
    name:
        Table key (``FadingSpec.model`` values resolve against it).
    shape_name:
        Human name of the model's shape parameter (``K-factor``, ``m``,
        ``k``), or ``None`` for shape-less models.
    exact:
        ``True`` when the model's invariant is byte-identity; ``False`` when
        the transform is compared at ``rtol`` against the scalar reference
        (see the module table).
    rtol:
        Declared relative tolerance for non-exact models.
    shape_min, shape_min_inclusive:
        Lower bound of the shape parameter's valid range.
    requires_scipy:
        Whether the transform needs :mod:`scipy.special` (checked at spec
        construction so missing scipy fails at plan build, not mid-kernel).
    """

    name: str
    shape_name: Optional[str]
    exact: bool = True
    rtol: float = 0.0
    shape_min: float = 0.0
    shape_min_inclusive: bool = True
    requires_scipy: bool = False

    @property
    def requires_shape(self) -> bool:
        """Whether this model takes a shape parameter."""
        return self.shape_name is not None

    def validate_shape(self, shape: Any) -> float:
        """Coerce and range-check a shape value, naming the field on error."""
        field = f"fading.shape (the {self.name} {self.shape_name})"
        value = _as_float(shape, field)
        in_range = np.isfinite(value) and (
            value >= self.shape_min
            if self.shape_min_inclusive
            else value > self.shape_min
        )
        if not in_range:
            bound = ">=" if self.shape_min_inclusive else ">"
            raise SpecificationError(
                f"{field} must be finite and {bound} {self.shape_min}, "
                f"got {value!r}"
            )
        return value


#: The closed model table: exactly the models :func:`build_fading_stacks`
#: and :func:`apply_fading_block` implement.
_MODELS: Dict[str, FadingModel] = {
    "rayleigh": FadingModel(name="rayleigh", shape_name=None),
    "rician": FadingModel(name="rician", shape_name="K-factor"),
    "nakagami": FadingModel(
        name="nakagami",
        shape_name="m",
        exact=False,
        rtol=1e-12,
        shape_min=0.5,
        requires_scipy=True,
    ),
    "weibull": FadingModel(
        name="weibull",
        shape_name="k",
        exact=False,
        rtol=1e-12,
        shape_min_inclusive=False,
    ),
}


def get_fading_model(name: Any) -> FadingModel:
    """Resolve a model name, raising a field-naming error on unknowns."""
    model = _MODELS.get(name) if isinstance(name, str) else None
    if model is None:
        raise SpecificationError(
            f"fading.model must be one of {sorted(_MODELS)}, got {name!r}"
        )
    return model


def _scipy_special():
    """Import-gate for scipy-backed transforms (scipy is an extra, not a dep)."""
    try:
        from scipy import special
    except ImportError as exc:  # pragma: no cover - scipy present in test env
        raise SpecificationError(
            "fading.model 'nakagami' requires scipy (scipy.special's "
            "incomplete gamma functions); install scipy or choose another model"
        ) from exc
    return special


def _weibull_power_gamma(k: float) -> float:
    """``Gamma(1 + 2/k)``, the Weibull ``E[r^2]`` factor, checked finite.

    It overflows for ``k`` below about 0.01172; such a ``k`` is refused at
    spec construction, naming the field, rather than failing mid-run.
    """
    try:
        value = math.gamma(1.0 + 2.0 / k)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise SpecificationError(
            "fading.shape (the weibull k) must keep Gamma(1 + 2/k) finite "
            f"(k >= about 0.0118), got {k!r}"
        )
    return value


@dataclass(frozen=True)
class FadingSpec:
    """Fading model of one plan entry (mirrors :class:`DopplerSpec`).

    Attributes
    ----------
    model:
        Model name from the table (``rayleigh``, ``rician``, ``nakagami``,
        ``weibull``).
    shape:
        The model's shape parameter — the Rician ``K``-factor, the
        Nakagami ``m``, or the Weibull ``k``.  Required for those models;
        must be ``None`` for ``rayleigh``.
    shadowing_sigma_db:
        Log-normal shadowing spread in dB, composed multiplicatively on
        top of the model (``0`` disables shadowing).  Shadowed entries
        need integer seeds: the per-branch gains are drawn once per entry
        from a deterministic side stream of the entry seed, so they are
        constant across streamed blocks and identical across runs.
    """

    model: str = "rayleigh"
    shape: Optional[float] = None
    shadowing_sigma_db: float = 0.0

    def __post_init__(self) -> None:
        descriptor = get_fading_model(self.model)
        if descriptor.requires_shape:
            if self.shape is None:
                raise SpecificationError(
                    f"fading.shape is required for the {descriptor.name} model "
                    f"(its {descriptor.shape_name} parameter)"
                )
            object.__setattr__(
                self, "shape", descriptor.validate_shape(self.shape)
            )
        elif self.shape is not None:
            raise SpecificationError(
                f"fading.shape must be None for the {descriptor.name} model "
                f"(it has no shape parameter), got {self.shape!r}"
            )
        sigma = _as_float(self.shadowing_sigma_db, "fading.shadowing_sigma_db")
        if sigma < 0 or not np.isfinite(sigma):
            raise SpecificationError(
                "fading.shadowing_sigma_db must be non-negative and finite, "
                f"got {sigma!r}"
            )
        object.__setattr__(self, "shadowing_sigma_db", sigma)
        if self.model == "weibull":
            _weibull_power_gamma(self.shape)
        if descriptor.requires_scipy:
            _scipy_special()

    @property
    def descriptor(self) -> FadingModel:
        """The :class:`FadingModel` of the table this spec resolves to."""
        return get_fading_model(self.model)

    @property
    def has_shadowing(self) -> bool:
        """Whether log-normal shadowing is composed on top of the model."""
        return self.shadowing_sigma_db != 0.0

    @property
    def is_trivial(self) -> bool:
        """Whether this spec is the identity (plain Rayleigh, no shadowing).

        :func:`coerce_fading` collapses trivial specs to ``None`` so
        ``entry.fading is None`` is exactly the untouched byte-identical
        Rayleigh fast path.
        """
        return self.model == "rayleigh" and not self.has_shadowing

    @property
    def family(self) -> Tuple[str, bool]:
        """Compile-group token: entries stack only within one model family."""
        return (self.model, self.has_shadowing)

    def fading_token(self) -> str:
        """Cache-key contribution of this spec: pure content, no seeds.

        Folded per entry into
        :func:`repro.engine.plancache.compiled_plan_cache_key` (and from
        there into the service request key), so plans differing only in
        fading never share compiled artifacts or coalesce in flight.
        """
        return repr(("fading", self.model, self.shape, self.shadowing_sigma_db))


#: What callers may pass wherever a fading model is expected: ``None`` or a
#: trivial spec (the Rayleigh fast path), a bare model name, a mapping with
#: ``model`` / ``shape`` / ``shadowing_sigma_db`` keys (the JSON scenario
#: schema), or a ready :class:`FadingSpec`.
FadingLike = Union[None, str, Mapping[str, Any], FadingSpec]

_FADING_FIELDS = ("model", "shape", "shadowing_sigma_db")


def coerce_fading(fading: FadingLike) -> Optional[FadingSpec]:
    """Normalize a :data:`FadingLike` value into an optional :class:`FadingSpec`.

    Trivial specs (plain Rayleigh without shadowing) collapse to ``None``,
    keeping the engine's default path byte-identical to the pre-refactor
    hard-coded Rayleigh.  Malformed values raise
    :class:`~repro.exceptions.SpecificationError` (a ``ValueError``) naming
    the offending field.
    """
    if fading is None:
        return None
    if isinstance(fading, FadingSpec):
        return None if fading.is_trivial else fading
    if isinstance(fading, str):
        spec = FadingSpec(model=fading)
    elif isinstance(fading, Mapping):
        unknown = sorted(set(fading) - set(_FADING_FIELDS))
        if unknown:
            raise SpecificationError(
                f"unknown fading field(s) {unknown}; expected "
                f"{list(_FADING_FIELDS)}"
            )
        spec = FadingSpec(**{key: fading[key] for key in _FADING_FIELDS if key in fading})
    else:
        raise SpecificationError(
            "fading must be None, a model name, a mapping with "
            f"{list(_FADING_FIELDS)} keys, or a FadingSpec; got "
            f"{type(fading).__name__}"
        )
    return None if spec.is_trivial else spec


def shadowing_gains(seed: Any, sigma_db: float, n_branches: int) -> np.ndarray:
    """Per-branch log-normal shadowing gains, deterministic in the entry seed.

    The gains ``10 ** (sigma_dB * x_j / 20)`` (``x_j`` standard normal) are
    drawn from a side stream derived from the *integer* entry seed with a
    dedicated spawn tag — never from the entry's white-sample stream — so
    they are constant across streamed blocks, identical across runs, and
    leave the underlying Rayleigh draw untouched.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise SpecificationError(
            "fading.shadowing_sigma_db requires an integer per-entry seed so "
            f"the shadowing gains are reproducible; got seed={seed!r}"
        )
    sequence = np.random.SeedSequence(
        entropy=int(seed) % (1 << 64), spawn_key=(_SHADOWING_STREAM_TAG,)
    )
    rng = np.random.default_rng(sequence)
    return 10.0 ** (float(sigma_db) * rng.standard_normal(int(n_branches)) / 20.0)


#: Seeded Nakagami inverse (see :func:`_nakagami_inverse`).  The seed table
#: spans ``s = r^2 / Omega`` over ``[1e-12, 36]`` in ``_SEED_NODES``
#: log-spaced nodes; ``-expm1(-36)`` is still below 1, so the table ends
#: short of where ``u`` rounds to 1 and ``gammaincinv`` returns ``inf``.
_SEED_NODES = 256
_SEED_S_MIN = 1e-12
_SEED_S_MAX = 36.0
_SEED_LOG_MIN = math.log(_SEED_S_MIN)
_SEED_STEP = (math.log(_SEED_S_MAX) - _SEED_LOG_MIN) / (_SEED_NODES - 1)
#: Bound on the relative error one Newton step may leave (its quadratic
#: term); each node's tolerance on the Newton correction follows from it.
_NEWTON_ERROR_BUDGET = 1e-14
#: Largest ``m`` the seeded inverse serves.  From about ``m = 8e5`` scipy's
#: ``gammainc`` and ``gammaincinv`` drift apart in the lower tail (1e-14 at
#: ``1e6``, 1e-11 at ``5e6``), so a Newton step on one no longer reproduces
#: the other; larger ``m`` use ``gammaincinv`` throughout.
_SEED_M_MAX = 1e5
#: Process-wide seed tables, keyed by the float ``m``; oldest evicted first.
_INVERSE_TABLE_LIMIT = 32
_INVERSE_TABLES: Dict[float, Optional["_InverseTable"]] = {}
_INVERSE_TABLES_LOCK = threading.Lock()
#: Elements per pass of the seeded inverse, which bounds its scratch.
_INVERSE_CHUNK = 4096


class _InverseTable:
    """Read-only seed table of the Nakagami inverse for one ``m``.

    Row ``i`` holds the cubic ``c0 + c1 t + c2 t^2 + c3 t^3`` that
    interpolates ``log x`` between nodes ``i`` and ``i + 1`` of ``log s``
    (``t`` the fractional position), and ``tolerance[i]``, the largest
    relative Newton correction whose quadratic remainder stays within
    :data:`_NEWTON_ERROR_BUDGET` on that interval.  The last row is the
    constant ``log x`` of the last node.
    """

    __slots__ = ("m_minus_one", "log_gamma", "c0", "c1", "c2", "c3", "tolerance")

    def __init__(self, m: float, log_gamma: float, rows: Sequence[np.ndarray]) -> None:
        self.m_minus_one = m - 1.0
        self.log_gamma = log_gamma
        for row in rows:
            row.setflags(write=False)
        self.c0, self.c1, self.c2, self.c3, self.tolerance = rows


def _build_inverse_table(m: float) -> Optional[_InverseTable]:  # reprolint: workspace-constructor
    """The seed table for ``m``, or ``None`` when scipy cannot fill it.

    Node values are scipy's own inverse: ``gammaincinv(m, u)`` for
    ``u <= 0.5`` and ``gammainccinv(m, exp(-s))`` above, where ``u`` near 1
    has lost the digits of ``1 - u``.  Slopes are
    ``d log x / d log s = s exp(-s) / (x pdf_m(x))``.
    """
    special = _scipy_special()
    s = np.exp(_SEED_LOG_MIN + _SEED_STEP * np.arange(_SEED_NODES, dtype=float))
    x = np.empty(_SEED_NODES)
    lower = s <= math.log(2.0)
    x[lower] = special.gammaincinv(m, -np.expm1(-s[lower]))
    x[~lower] = special.gammainccinv(m, np.exp(-s[~lower]))
    log_gamma = float(special.gammaln(m))
    rows = [np.zeros(_SEED_NODES) for _ in range(5)]
    c0, c1, c2, c3, tolerance = rows
    with np.errstate(all="ignore"):
        y = np.log(x)
        # d log x / d log s, per table step.
        slope = _SEED_STEP * s / x * np.exp(-s - ((m - 1.0) * y - x - log_gamma))
        delta = np.diff(y)
        # The Newton remainder is about |m - 1 - x| eps^2 / 2 for a relative
        # seed error eps; bound |m - 1 - x| by its larger end per interval.
        spread = np.abs(m - 1.0 - x)
        spread[:-1] = np.maximum(spread[:-1], spread[1:])
    c0[:] = y
    c1[:-1] = slope[:-1]
    c2[:-1] = 3.0 * delta - 2.0 * slope[:-1] - slope[1:]
    c3[:-1] = slope[:-1] + slope[1:] - 2.0 * delta
    tolerance[:] = np.sqrt(2.0 * _NEWTON_ERROR_BUDGET / np.maximum(spread, 1.0))
    if not (np.all(x > 0.0) and all(np.all(np.isfinite(row)) for row in rows)):
        return None
    return _InverseTable(m, log_gamma, rows)


def _inverse_table(m: float) -> Optional[_InverseTable]:  # reprolint: workspace-constructor
    """The process-wide seed table for ``m``, built on first use."""
    if m > _SEED_M_MAX:
        return None
    with _INVERSE_TABLES_LOCK:
        if m not in _INVERSE_TABLES:
            while len(_INVERSE_TABLES) >= _INVERSE_TABLE_LIMIT:
                del _INVERSE_TABLES[next(iter(_INVERSE_TABLES))]
            _INVERSE_TABLES[m] = _build_inverse_table(m)
        return _INVERSE_TABLES[m]


class FadingStacks:
    """Per-group fading operands, stacked once per execution state.

    Built by :func:`build_fading_stacks` from a compiled group's entries
    (compile groups are uniform in :attr:`FadingSpec.family`, so one stack
    bundle serves the whole ``(B, N, n)`` batch) and owned by the
    executor's ``_ExecutionState`` — the fused kernel only ever reads them.
    ``inverse_runs`` lists the Nakagami group's runs of consecutive entries
    sharing one ``m``, as ``(first, stop, m, seed table)``.
    """

    __slots__ = (
        "model",
        "needs_scratch",
        "rician_scale",
        "rician_los",
        "branch_powers",
        "shape_column",
        "weibull_scale",
        "shadow_gains",
        "inverse_runs",
    )

    def __init__(self) -> None:
        self.model = "rayleigh"
        self.needs_scratch = False
        self.rician_scale: Optional[np.ndarray] = None
        self.rician_los: Optional[np.ndarray] = None
        self.branch_powers: Optional[np.ndarray] = None
        self.shape_column: Optional[np.ndarray] = None
        self.weibull_scale: Optional[np.ndarray] = None
        self.shadow_gains: Optional[np.ndarray] = None
        self.inverse_runs: Tuple[Tuple[int, int, float, Optional[_InverseTable]], ...] = ()


def build_fading_stacks(entries: Sequence[Any]) -> Optional[FadingStacks]:  # reprolint: workspace-constructor
    """Stack one compiled group's fading operands (or ``None`` for Rayleigh).

    ``entries`` are the group's plan entries; grouping guarantees a uniform
    :attr:`FadingSpec.family`, so per-entry shape parameters and branch
    powers stack into ``(B, 1, 1)`` / ``(B, N, 1)`` broadcast columns the
    transform reuses for every block.  Pure: the only randomness is the
    deterministic seed-derived shadowing side stream.
    """
    first = entries[0].fading
    if first is None:
        return None
    stacks = FadingStacks()
    model = first.model
    stacks.model = model
    stacks.needs_scratch = model in ("nakagami", "weibull")
    powers = np.asarray(
        [np.asarray(entry.spec.gaussian_variances, dtype=float) for entry in entries]
    )[:, :, np.newaxis]
    if model != "rayleigh":
        shapes = np.asarray(
            [entry.fading.shape for entry in entries], dtype=float
        )[:, np.newaxis, np.newaxis]
    if model == "rician":
        stacks.rician_scale = np.sqrt(shapes + 1.0)
        stacks.rician_los = np.sqrt(shapes * powers / (shapes + 1.0))
    elif model == "nakagami":
        _scipy_special()  # fail at state construction, never mid-kernel
        stacks.shape_column = shapes
        stacks.branch_powers = powers
        runs = []
        for index, entry in enumerate(entries):
            m = entry.fading.shape
            if runs and runs[-1][2] == m:
                runs[-1][1] = index + 1
            else:
                runs.append([index, index + 1, m])
        stacks.inverse_runs = tuple(
            (start, stop, m, _inverse_table(m)) for start, stop, m in runs
        )
    elif model == "weibull":
        stacks.shape_column = 1.0 / shapes
        stacks.branch_powers = powers
        gammas = np.asarray(
            [_weibull_power_gamma(entry.fading.shape) for entry in entries],
            dtype=float,
        )[:, np.newaxis, np.newaxis]
        stacks.weibull_scale = np.sqrt(powers / gammas)
    if first.has_shadowing:
        stacks.shadow_gains = np.asarray(
            [
                shadowing_gains(
                    entry.seed, entry.fading.shadowing_sigma_db, entry.n_branches
                )
                for entry in entries
            ]
        )[:, :, np.newaxis]
    return stacks


class FadingScratch:
    """Reusable scratch of the envelope transforms, owned by the executor.

    ``envelope``, ``target`` and ``positive`` span the whole ``(B, N, n)``
    block.  A Nakagami group also gets the seeded inverse's flat per-pass
    buffers, at most :data:`_INVERSE_CHUNK` long: five float, two index and
    three mask arrays (``None`` for Weibull).
    """

    __slots__ = (
        "envelope",
        "target",
        "positive",
        "u",
        "bound",
        "pdf",
        "seed",
        "gather",
        "index",
        "arange",
        "inside",
        "upper",
        "mask",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, None)


def new_fading_scratch(  # reprolint: workspace-constructor
    stacks: FadingStacks, shape: Tuple[int, ...]
) -> FadingScratch:
    """Allocate the scratch :func:`apply_fading_block` needs for ``stacks``."""
    scratch = FadingScratch()
    scratch.envelope = np.empty(shape, dtype=np.float64)
    scratch.target = np.empty(shape, dtype=np.float64)
    scratch.positive = np.empty(shape, dtype=np.bool_)
    if stacks.model == "nakagami":
        chunk = max(1, min(math.prod(shape), _INVERSE_CHUNK))
        scratch.u, scratch.bound, scratch.pdf, scratch.seed, scratch.gather = np.empty(
            (5, chunk), dtype=np.float64
        )
        scratch.index = np.empty(chunk, dtype=np.intp)
        scratch.arange = np.arange(chunk, dtype=np.intp)
        scratch.inside, scratch.upper, scratch.mask = np.empty((3, chunk), dtype=np.bool_)
    return scratch


def _nakagami_inverse(  # reprolint: hot-path
    special: Any,
    s: np.ndarray,
    m: float,
    table: Optional[_InverseTable],
    scratch: FadingScratch,
) -> None:
    """Overwrite flat ``s = r^2 / Omega`` with ``gammaincinv(m, -expm1(-s))``.

    ``u = -expm1(-s)`` is the Rayleigh envelope CDF at ``r``.  The inverse
    is seeded by cubic Hermite interpolation of ``log x`` in ``log s`` from
    ``table``, then takes one Newton step: on ``P(m, x) = u`` through
    ``gammainc`` for ``u <= 0.5``, and on ``Q(m, x) = 1 - u`` through
    ``gammaincc`` above (``1 - u`` is exact there, Sterbenz), the same
    target as the reference's rounded ``u``.  An element is recomputed
    with ``gammaincinv`` when its ``s`` lies off the table or its Newton
    correction exceeds the interval's tolerance, which also catches
    non-finite results; without a table (``m`` past
    :data:`_SEED_M_MAX`) every element is.  Every step is element-wise,
    so no result depends on the other elements of the block.
    """
    n = s.shape[0]
    u = scratch.u[:n]
    np.negative(s, out=u)
    np.expm1(u, out=u)
    np.negative(u, out=u)
    if table is None:
        special.gammaincinv(m, u, out=s)
        return
    seed, pdf, gather = scratch.seed[:n], scratch.pdf[:n], scratch.gather[:n]
    bound = scratch.bound[:n]
    index = scratch.index[:n]
    inside, upper, mask = scratch.inside[:n], scratch.upper[:n], scratch.mask[:n]
    # Table position k = (log s - log s_min) / step, s clamped onto the table.
    np.fmax(s, _SEED_S_MIN, out=seed)
    np.fmin(seed, _SEED_S_MAX, out=seed)
    np.equal(seed, s, out=inside)
    np.log(seed, out=seed)
    np.subtract(seed, _SEED_LOG_MIN, out=seed)
    np.multiply(seed, 1.0 / _SEED_STEP, out=seed)
    np.copyto(index, seed, casting="unsafe")
    np.subtract(seed, index, out=seed)
    # Horner on the interval's cubic: pdf holds log x0 for now.
    table.c3.take(index, out=pdf, mode="clip")
    for row in (table.c2, table.c1, table.c0):
        np.multiply(pdf, seed, out=pdf)
        row.take(index, out=gather, mode="clip")
        np.add(pdf, gather, out=pdf)
    table.tolerance.take(index, out=bound, mode="clip")
    np.exp(pdf, out=seed)
    np.multiply(bound, seed, out=bound)
    # pdf_m(x0) = exp((m - 1) log x0 - x0 - log Gamma(m)).
    np.multiply(pdf, table.m_minus_one, out=pdf)
    np.subtract(pdf, seed, out=pdf)
    np.subtract(pdf, table.log_gamma, out=pdf)
    np.exp(pdf, out=pdf)
    # s <- P(m, x0) below the median and -Q(m, x0) above it.
    np.greater(u, 0.5, out=upper)
    n_upper = int(np.count_nonzero(upper))
    if n_upper < n:
        np.logical_not(upper, out=mask)
        _gather_apply(special.gammainc, m, seed, s, mask, n - n_upper, scratch)
    if n_upper:
        _gather_apply(special.gammaincc, m, seed, s, upper, n_upper, scratch, negate=True)
    # Newton: the residual P - u or -(Q - (1 - u)), over pdf_m(x0).
    np.subtract(u, upper, out=gather)
    np.subtract(s, gather, out=s)
    np.divide(s, pdf, out=s)
    np.abs(s, out=gather)
    np.less_equal(gather, bound, out=mask)
    np.subtract(seed, s, out=s)
    # Accept converged steps from on-table s; gammaincinv for the rest.
    np.logical_and(mask, inside, out=mask)
    n_accepted = int(np.count_nonzero(mask))
    if n_accepted < n:
        np.logical_not(mask, out=mask)
        _gather_apply(special.gammaincinv, m, u, s, mask, n - n_accepted, scratch)


def _gather_apply(  # reprolint: hot-path
    function: Any,
    m: float,
    source: np.ndarray,
    out: np.ndarray,
    mask: np.ndarray,
    count: int,
    scratch: FadingScratch,
    negate: bool = False,
) -> None:
    """``out[mask] = ±function(m, source[mask])`` through scratch buffers.

    ``count`` is the number of set elements of ``mask``.  Compacting the
    selected elements replaces ``where=`` on the scipy.special ufunc, which
    can corrupt memory with scipy 1.17.
    """
    selected = scratch.index[:count]
    values = scratch.gather[:count]
    scratch.arange[: mask.shape[0]].compress(mask, out=selected)
    source.take(selected, out=values, mode="clip")
    function(m, values, out=values)
    if negate:
        np.negative(values, out=values)
    out[selected] = values


def apply_fading_block(  # reprolint: hot-path
    colored: np.ndarray,
    stacks: FadingStacks,
    scratch: Optional[FadingScratch] = None,
) -> None:
    """Apply one group's fading transform to a colored block, in place.

    ``colored`` is the ``(B, N, n)`` post-normalization complex record the
    fused kernel just produced.  Every operation is a ufunc writing into
    ``colored`` or the state-owned ``scratch`` (from
    :func:`new_fading_scratch`; required for Nakagami and Weibull), so the
    hot path stays allocation-free; the envelope transforms preserve each
    sample's phase by scaling the complex sample to its target envelope (a
    zero sample maps to zero).  The scalar reference this must match
    (exactly, or at the model's declared rtol) is
    :func:`repro.models.reference.reference_fading_samples`.
    """
    model = stacks.model
    if model == "rician":
        colored /= stacks.rician_scale
        colored += stacks.rician_los
    elif model == "nakagami":
        special = _scipy_special()
        r = scratch.envelope
        t = scratch.target
        np.abs(colored, out=r)
        np.multiply(r, r, out=t)
        np.divide(t, stacks.branch_powers, out=t)
        # s = r^2 / Omega becomes x = gammaincinv(m, -expm1(-s)) run by run
        # (entries sharing one m), in passes of at most the scratch length;
        # the target envelope is sqrt(Omega * x / m).
        flat = t.reshape(-1)
        width = t[0].size
        chunk = scratch.u.shape[0]
        for first, stop, m, table in stacks.inverse_runs:
            for start in range(first * width, stop * width, chunk):
                end = min(start + chunk, stop * width)
                _nakagami_inverse(special, flat[start:end], m, table, scratch)
        np.multiply(t, stacks.branch_powers, out=t)
        np.divide(t, stacks.shape_column, out=t)
        np.sqrt(t, out=t)
        # Phase-preserving rescale; where r == 0 the target is 0 already.
        np.greater(r, 0.0, out=scratch.positive)
        np.divide(t, r, out=t, where=scratch.positive)
        colored *= t
    elif model == "weibull":
        r = scratch.envelope
        t = scratch.target
        np.abs(colored, out=r)
        # Target envelope: lambda * (r^2 / Omega)^(1/k).
        np.multiply(r, r, out=t)
        np.divide(t, stacks.branch_powers, out=t)
        np.power(t, stacks.shape_column, out=t)
        np.multiply(t, stacks.weibull_scale, out=t)
        np.greater(r, 0.0, out=scratch.positive)
        np.divide(t, r, out=t, where=scratch.positive)
        colored *= t
    if stacks.shadow_gains is not None:
        colored *= stacks.shadow_gains
