"""Shared fixtures for the repro test-suite.

Besides the paper's reference covariances, this hosts the deterministic
fault-injection harness of the serving-layer test pass: ``FlakyEigh``
fails the Nth stacked ``eigh`` and ``FlakyStore`` fails the Nth disk
``lookup``/``put``, so tests can prove that a mid-compile fault fails only
the affected request — never the service loop — at an exactly chosen
point.  ``GatedEigh`` holds every stacked ``eigh`` until the test
releases it.  Both ``eigh`` fakes are patched over
``repro.linalg.batched._eigh_hermitian_stack``, the one function every
stacked eigendecomposition passes through.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.covariance import CovarianceSpec
from repro.engine.store import ArtifactStore
from repro.experiments import paper_values as pv
from repro.linalg import batched


class InjectedFault(RuntimeError):
    """The deterministic error the flaky fixtures raise."""


#: The unpatched stacked ``eigh``, which every fake below calls through.
_EIGH = batched._eigh_hermitian_stack


class FlakyEigh:
    """A stacked ``eigh`` whose Nth call fails deterministically.

    ``fail_at`` is 1-based; ``fail_at=2`` serves the first decomposition
    and fails the second, and ``fail_at=0`` never fires (a pure counter).
    Counting is thread-safe (compiles run on the simulator's pool threads).
    """

    def __init__(self, fail_at: int = 1) -> None:
        self._fail_at = int(fail_at)
        self._calls = 0
        self._count_lock = threading.Lock()

    @property
    def eigh_calls(self) -> int:
        with self._count_lock:
            return self._calls

    def __call__(self, herm):
        with self._count_lock:
            self._calls += 1
            calls = self._calls
        if calls == self._fail_at:
            raise InjectedFault(f"injected backend fault at eigh call {calls}")
        return _EIGH(herm)


class GatedEigh:
    """A stacked ``eigh`` that blocks until the test sets ``release``."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, herm):
        self.entered.set()
        if not self.release.wait(timeout=10):
            raise RuntimeError("gate never released")  # pragma: no cover
        return _EIGH(herm)


class FlakyStore(ArtifactStore):
    """An artifact store whose Nth ``lookup`` or ``put`` fails.

    ``operation`` selects which call site is instrumented; the chosen
    call raises :class:`InjectedFault` the ``fail_at``-th time it runs
    (1-based) and behaves normally otherwise.
    """

    def __init__(self, *args, fail_at: int = 1, operation: str = "lookup", **kwargs):
        if operation not in ("lookup", "put"):
            raise ValueError(f"operation must be 'lookup' or 'put', got {operation!r}")
        super().__init__(*args, **kwargs)
        self._fail_at = int(fail_at)
        self._operation = operation
        self._flaky_calls = 0
        self._flaky_lock = threading.Lock()

    def _trip(self, operation: str) -> None:
        if operation != self._operation:
            return
        with self._flaky_lock:
            self._flaky_calls += 1
            calls = self._flaky_calls
        if calls == self._fail_at:
            raise InjectedFault(
                f"injected store fault at {operation} call {calls}"
            )

    def lookup(self, key):
        self._trip("lookup")
        return super().lookup(key)

    def put(self, key, payload):
        self._trip("put")
        return super().put(key, payload)


@pytest.fixture()
def flaky_eigh(monkeypatch):
    """Factory that patches a fresh :class:`FlakyEigh` in (``fail_at``
    1-based) and returns it; a later call replaces the earlier fake."""

    def _install(fail_at: int = 1) -> FlakyEigh:
        fake = FlakyEigh(fail_at=fail_at)
        monkeypatch.setattr(batched, "_eigh_hermitian_stack", fake)
        return fake

    return _install


@pytest.fixture()
def gated_eigh(monkeypatch):
    """A :class:`GatedEigh` patched in for the test."""
    fake = GatedEigh()
    monkeypatch.setattr(batched, "_eigh_hermitian_stack", fake)
    yield fake
    fake.release.set()


@pytest.fixture()
def flaky_plan_cache(tmp_path):
    """Factory for a disk-attached ``CompiledPlanCache`` with a flaky store.

    The returned cache is fully functional (memory + disk tiers) except
    that the Nth disk ``lookup``/``put`` raises :class:`InjectedFault` —
    the deterministic stand-in for a failing filesystem under the plan
    tier.
    """
    from repro.engine.plancache import CompiledPlanCache

    def _make(fail_at: int = 1, operation: str = "lookup") -> CompiledPlanCache:
        cache = CompiledPlanCache(cache_dir=tmp_path / "flaky-cache")
        real_store = cache.artifact_store
        cache._store = FlakyStore(
            real_store.namespace,
            dump=real_store._dump,
            load=real_store._load,
            cache_dir=tmp_path / "flaky-cache",
            format_version=real_store._format_version,
            fail_at=fail_at,
            operation=operation,
        )
        return cache

    return _make


@pytest.fixture(scope="session")
def eq22_covariance() -> np.ndarray:
    """The paper's Eq. (22) covariance matrix (spectral correlation)."""
    return pv.EQ22_COVARIANCE.copy()


@pytest.fixture(scope="session")
def eq23_covariance() -> np.ndarray:
    """The paper's Eq. (23) covariance matrix (spatial correlation)."""
    return pv.EQ23_COVARIANCE.copy()


@pytest.fixture(scope="session")
def eq22_spec(eq22_covariance) -> CovarianceSpec:
    """Covariance spec built from Eq. (22)."""
    return CovarianceSpec.from_covariance_matrix(eq22_covariance)


@pytest.fixture(scope="session")
def eq23_spec(eq23_covariance) -> CovarianceSpec:
    """Covariance spec built from Eq. (23)."""
    return CovarianceSpec.from_covariance_matrix(eq23_covariance)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator for each test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def indefinite_covariance() -> np.ndarray:
    """A small Hermitian covariance request that is NOT positive semi-definite."""
    matrix = np.array(
        [
            [1.0, 0.9, 0.1],
            [0.9, 1.0, 0.9],
            [0.1, 0.9, 1.0],
        ],
        dtype=complex,
    )
    eigenvalues = np.linalg.eigvalsh(matrix)
    assert np.min(eigenvalues) < 0  # construction sanity check
    return matrix


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: statistically heavy tests (large sample counts)")
