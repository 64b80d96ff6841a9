"""Pluggable linear-algebra backends for the batched engine.

The engine's compile step reduces to two stacked decompositions —
``eigh`` over a ``(B, N, N)`` covariance stack and ``cholesky`` over the
same shape — and the execute step to one stacked ``matmul`` plus, for
Doppler-mode entries, one stacked ``fft``/``ifft`` over the frequency-domain
block stack.  A :class:`LinalgBackend` supplies exactly those operations,
which makes backend choice a constructor argument of
:class:`repro.api.Simulator` / :class:`repro.engine.SimulationEngine`
instead of a code path:

* ``"numpy"`` (default) — ``np.linalg`` gufuncs, the reference
  implementation every other backend is measured against;
* ``"scipy"`` — per-slice :func:`scipy.linalg.eigh` with an explicit LAPACK
  driver.  The default ``"evd"`` driver calls the same LAPACK routine
  (``?heevd``) as numpy's ``eigh``, so its results are expected
  bit-identical and it shares the numpy decomposition cache; other drivers
  (``"ev"``, ``"evr"``, ``"evx"``) produce valid but not bitwise-equal
  decompositions and are cached under their own key.

Backends are registered by name in a process-wide registry
(:func:`register_backend` / :func:`get_backend` /
:func:`available_backends`), so downstream code — and tests — can add new
implementations without touching the engine.

**Contract.**  All arguments and results are host (numpy) arrays; backends
that compute elsewhere transfer internally.  ``eigh`` must return
eigenvalues in ascending order per slice (numpy's convention — the engine
flips to the paper's descending order itself), and ``cholesky`` must raise
``np.linalg.LinAlgError`` on a non-positive-definite slice so the engine's
error translation keeps working.  ``fft``/``ifft`` transform along one axis
of an arbitrary-rank array with numpy's normalization (``ifft`` carries the
``1/M`` factor of Eq. 17); for backends claiming ``tolerance == 0.0`` they
must be bit-identical to ``np.fft`` per slice — scipy's pocketfft satisfies
this (asserted by the parity suite), device FFTs do not.  The optional
``matmul_into``/``ifft_into`` hooks write the same results into
caller-owned buffers (the execute kernels' allocation-light path); the base
class provides copying fallbacks, so overriding them is purely a
performance decision and never changes bytes.
"""

from __future__ import annotations

import abc
import threading
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..exceptions import BackendError

__all__ = [
    "LinalgBackend",
    "NumpyBackend",
    "ScipyBackend",
    "register_backend",
    "get_backend",
    "resolve_backend",
    "available_backends",
    "BackendSpec",
]

#: What callers may pass wherever a backend is expected: a registered name,
#: a ready instance, or ``None`` for the numpy default.
BackendSpec = Union[None, str, "LinalgBackend"]


class LinalgBackend(abc.ABC):
    """Decompose-stack / matmul contract the engine compiles and executes on.

    Attributes
    ----------
    name:
        Registry name, also recorded in result metadata.
    tolerance:
        Documented elementwise deviation from the numpy backend for the
        same inputs.  ``0.0`` means bit-identical (the backend runs the same
        LAPACK routine); ``None`` means no sample-level parity guarantee at
        all (e.g. a LAPACK driver that may flip eigenvector signs — the
        decomposition is still a valid coloring, ``L L^H = K``, but raw
        samples are not comparable).  Positive values are the per-element
        absolute tolerance parity tests check against.
    """

    name: str = "abstract"
    tolerance: Optional[float] = 0.0

    @property
    def cache_token(self) -> str:
        """Decomposition-cache namespace for this backend.

        Backends that are bit-identical to numpy (``tolerance == 0.0``)
        share the ``"numpy"`` namespace — a cached decomposition is the same
        bytes no matter which of them computed it.  Everything else is
        cached under its own name so its decompositions can never be
        served to a numpy run (or vice versa).
        """
        return "numpy" if self.tolerance == 0.0 else self.name

    @abc.abstractmethod
    def eigh(self, stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Eigendecompose every Hermitian matrix in a ``(B, N, N)`` stack.

        Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending
        per slice, exactly like ``np.linalg.eigh``.
        """

    @abc.abstractmethod
    def cholesky(self, stack: np.ndarray) -> np.ndarray:
        """Lower-triangular Cholesky factors of a ``(B, N, N)`` stack.

        Must raise ``np.linalg.LinAlgError`` when a slice is not positive
        definite.
        """

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Stacked matrix product (the execute step's coloring multiply)."""
        return np.matmul(a, b)

    def matmul_into(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Stacked matrix product written into a caller-owned ``out`` array.

        The allocation-light hook of the execute kernels: backends that can
        compute directly into ``out`` override this (numpy/scipy route the
        gufunc's ``out=``); the base implementation computes through
        :meth:`matmul` and copies, so every backend satisfies the contract.
        ``out`` must have the result's shape and dtype.  The written values
        must be bit-identical to :meth:`matmul` on the same operands.
        """
        np.copyto(out, self.matmul(a, b))
        return out

    def fft(self, array: np.ndarray, axis: int = -1) -> np.ndarray:
        """Discrete Fourier transform along ``axis`` (numpy normalization)."""
        return np.fft.fft(array, axis=axis)

    def ifft(self, array: np.ndarray, axis: int = -1) -> np.ndarray:
        """Inverse DFT along ``axis`` — the Doppler substrate's stacked IDFT.

        Carries numpy's ``1/M`` factor, i.e. the normalization of Eq. (17).
        """
        return np.fft.ifft(array, axis=axis)

    def ifft_into(
        self, array: np.ndarray, out: np.ndarray, axis: int = -1
    ) -> np.ndarray:
        """Inverse DFT written into a caller-owned complex ``out`` array.

        Same contract as :meth:`matmul_into`: bit-identical to
        :meth:`ifft`, with the base implementation copying through it so
        backends without an ``out=``-capable transform still work.
        """
        np.copyto(out, self.ifft(array, axis=axis))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} tolerance={self.tolerance!r}>"


class NumpyBackend(LinalgBackend):
    """The reference backend: numpy's stacked LAPACK/BLAS gufuncs."""

    name = "numpy"
    tolerance: Optional[float] = 0.0

    def eigh(self, stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        eigenvalues, eigenvectors = np.linalg.eigh(stack)
        return eigenvalues, eigenvectors

    def cholesky(self, stack: np.ndarray) -> np.ndarray:
        return np.linalg.cholesky(stack)

    def matmul_into(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        # The gufunc writes into ``out`` directly — same BLAS dispatch, same
        # bits, one less (B, N, n) allocation per block.
        return np.matmul(a, b, out=out)

    def ifft_into(
        self, array: np.ndarray, out: np.ndarray, axis: int = -1
    ) -> np.ndarray:
        # pocketfft's out= writes the same transform into the caller's
        # buffer (numpy >= 2.0).
        return np.fft.ifft(array, axis=axis, out=out)


class ScipyBackend(LinalgBackend):
    """Per-slice :func:`scipy.linalg.eigh` with an explicit LAPACK driver.

    Parameters
    ----------
    driver:
        LAPACK eigensolver driver (``"evd"``, ``"ev"``, ``"evr"``,
        ``"evx"``).  The default ``"evd"`` calls the divide-and-conquer
        ``?heevd`` — the routine numpy's ``eigh`` uses — so its output is
        expected bit-identical to the numpy backend and it shares the numpy
        cache namespace.  Other drivers run different eigensolvers whose
        eigenvectors can differ by sign/phase; they get ``tolerance = None``
        (valid coloring, no raw-sample parity) and a private cache
        namespace.

    Raises
    ------
    BackendError
        If scipy is not installed.
    """

    _DRIVERS = ("evd", "ev", "evr", "evx")

    def __init__(self, driver: str = "evd") -> None:
        if driver not in self._DRIVERS:
            raise BackendError(
                f"unknown scipy eigh driver {driver!r}; choose from {self._DRIVERS}"
            )
        try:
            import scipy.fft as _scipy_fft
            import scipy.linalg as _scipy_linalg
        except ImportError as exc:  # pragma: no cover - scipy ships in the image
            raise BackendError(
                "the 'scipy' backend requires scipy, which is not installed"
            ) from exc
        self._linalg = _scipy_linalg
        self._fft = _scipy_fft
        self.driver = driver
        self.name = "scipy" if driver == "evd" else f"scipy-{driver}"
        self.tolerance = 0.0 if driver == "evd" else None

    def eigh(self, stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # scipy.linalg.eigh is 2-D only; loop the slices with the chosen
        # LAPACK driver (the decompositions are independent).
        values = np.empty(stack.shape[:2], dtype=float)
        vectors = np.empty(stack.shape, dtype=stack.dtype)
        for index in range(stack.shape[0]):
            values[index], vectors[index] = self._linalg.eigh(
                stack[index], driver=self.driver, check_finite=False
            )
        return values, vectors

    def cholesky(self, stack: np.ndarray) -> np.ndarray:
        factors = np.empty_like(stack)
        for index in range(stack.shape[0]):
            # scipy raises scipy.linalg.LinAlgError, which *is*
            # np.linalg.LinAlgError, satisfying the contract.
            factors[index] = self._linalg.cholesky(
                stack[index], lower=True, check_finite=False
            )
        return factors

    def matmul_into(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        # The coloring multiply is numpy's BLAS gufunc either way; writing
        # into ``out`` keeps the scipy backend on the fused execute path.
        return np.matmul(a, b, out=out)

    def fft(self, array: np.ndarray, axis: int = -1) -> np.ndarray:
        # scipy.fft and np.fft are both pocketfft: bit-identical per slice,
        # so the bitwise guarantee (and the shared cache namespace of the
        # evd driver) extends to the Doppler substrate.
        return self._fft.fft(array, axis=axis)

    def ifft(self, array: np.ndarray, axis: int = -1) -> np.ndarray:
        # scipy.fft has no out= parameter; ifft_into stays on the base
        # class's copying fallback (bit-identical, one extra copy).
        return self._fft.ifft(array, axis=axis)

    def __reduce__(self):
        # The held scipy.linalg module is not picklable; reduce to the
        # constructor arguments so instances can cross process boundaries
        # (Simulator's parallel runs ship the backend to workers).
        return (type(self), (self.driver,))


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

_REGISTRY: Dict[str, Callable[[], LinalgBackend]] = {}
_INSTANCES: Dict[str, LinalgBackend] = {}
_LOCK = threading.Lock()


def register_backend(name: str, factory: Callable[[], LinalgBackend]) -> None:
    """Register a backend factory under ``name`` (once per name).

    The factory is called lazily on first :func:`get_backend` lookup and may
    raise :class:`repro.exceptions.BackendError` for missing dependencies —
    which is how the scipy backends stay registered but unavailable on
    hosts without scipy.
    """
    if not name or not isinstance(name, str):
        raise BackendError(f"backend name must be a non-empty string, got {name!r}")
    with _LOCK:
        if name in _REGISTRY:
            raise BackendError(f"backend {name!r} is already registered")
        _REGISTRY[name] = factory
        _INSTANCES.pop(name, None)


def get_backend(spec: BackendSpec = None) -> LinalgBackend:
    """Resolve a backend name (or instance, or ``None``) to an instance.

    Instances are memoized per name, so every engine asking for ``"numpy"``
    shares one stateless backend object.

    Raises
    ------
    BackendError
        For unregistered names, or when the backend's dependency is missing
        (the underlying cause is chained).
    """
    if spec is None:
        spec = "numpy"
    if isinstance(spec, LinalgBackend):
        return spec
    if not isinstance(spec, str):
        raise BackendError(
            f"backend must be a name, a LinalgBackend instance, or None; got "
            f"{type(spec).__name__}"
        )
    with _LOCK:
        instance = _INSTANCES.get(spec)
        if instance is not None:
            return instance
        factory = _REGISTRY.get(spec)
        registered = sorted(_REGISTRY)
    if factory is None:
        raise BackendError(
            f"unknown backend {spec!r}; registered backends: {registered}"
        )
    instance = factory()  # may raise BackendError for missing dependencies
    with _LOCK:
        return _INSTANCES.setdefault(spec, instance)


#: Alias used by the engine internals where ``None`` means "numpy default".
resolve_backend = get_backend


def available_backends() -> List[str]:
    """Names of registered backends whose dependencies import successfully.

    Backends are probed by construction; ones that raise
    :class:`BackendError` (e.g. the scipy backends without scipy) are
    simply omitted rather than raising.
    """
    with _LOCK:
        registered = sorted(_REGISTRY)
    names: List[str] = []
    for name in registered:
        try:
            get_backend(name)
        except BackendError:
            continue
        names.append(name)
    return names


register_backend("numpy", NumpyBackend)
register_backend("scipy", ScipyBackend)
register_backend("scipy-evr", lambda: ScipyBackend(driver="evr"))
