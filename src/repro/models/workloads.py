"""Named workload suites and the declarative JSON scenario schema.

A *workload* is a plain JSON-able mapping describing one batched run of the
fading-model zoo — the file format behind ``repro-experiments suite``::

    {
      "name": "rician-los",
      "n_samples": 4096,
      "seed": 20050413,
      "fading": {"model": "rician", "shape": 4.0},
      "doppler": {"normalized_doppler": 0.05, "n_points": 128},   # optional
      "entries": [
        {"powers": [1.0, 1.0], "rho": 0.5, "label": "two-branch"},
        {"powers": [1.0, 2.0, 0.5], "rho": [0.5, 0.3]}
      ]
    }

Each entry builds an exponential-profile covariance
``K[i, j] = rho^{|i-j|} * sqrt(Omega_i * Omega_j)`` from its per-branch
Gaussian powers and correlation coefficient (a float, or ``[re, im]`` for a
complex coefficient), or supplies the matrix directly as
``{"matrix": {"re": [[...]], "im": [[...]]}}``.  The ``fading`` value is
the :func:`repro.models.fading.coerce_fading` schema; ``doppler`` carries
the :class:`repro.engine.DopplerSpec` fields.  Malformed workloads raise
:class:`~repro.exceptions.SpecificationError` (a ``ValueError``) naming
the offending field, which the CLI and HTTP layers surface as exit code
2 / status 400 — never a traceback.

:data:`NAMED_SUITES` ships one ready workload per fading model (plus
the shadowing composition); ``repro-experiments suite --list`` prints
them and the CI workload-suite smoke job runs each one.

This module imports the engine, so :mod:`repro.models` does **not**
re-export it at package level (the engine itself imports
``repro.models.fading``); import it directly or through the CLI.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..engine import DopplerSpec, SimulationEngine, SimulationPlan
from ..exceptions import SpecificationError
from .fading import coerce_fading

__all__ = [
    "NAMED_SUITES",
    "available_suites",
    "get_suite",
    "load_workload",
    "plan_from_workload",
    "run_suite",
]

_WORKLOAD_FIELDS = ("name", "description", "n_samples", "seed", "fading", "doppler", "entries")
_ENTRY_FIELDS = ("powers", "rho", "matrix", "label")


def _correlation_matrix(entry: Mapping[str, Any], index: int) -> np.ndarray:
    """One entry's covariance matrix from its declarative fields."""
    if "matrix" in entry:
        matrix_obj = entry["matrix"]
        if not isinstance(matrix_obj, Mapping) or "re" not in matrix_obj:
            raise SpecificationError(
                f"entries[{index}].matrix must be a mapping with 're' (and "
                "optionally 'im') nested lists"
            )
        real = np.asarray(matrix_obj["re"], dtype=float)
        imag = np.asarray(matrix_obj.get("im", np.zeros_like(real)), dtype=float)
        if real.ndim != 2 or real.shape[0] != real.shape[1] or real.shape != imag.shape:
            raise SpecificationError(
                f"entries[{index}].matrix must be square with matching "
                f"re/im shapes, got {real.shape} and {imag.shape}"
            )
        return real + 1j * imag
    try:
        powers = np.asarray(entry["powers"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecificationError(
            f"entries[{index}].powers must be a list of per-branch Gaussian "
            f"powers: {exc}"
        ) from exc
    if powers.ndim != 1 or powers.size < 1 or np.any(powers <= 0):
        raise SpecificationError(
            f"entries[{index}].powers must be a non-empty list of positive "
            f"numbers, got {entry['powers']!r}"
        )
    rho_raw = entry.get("rho", 0.0)
    if isinstance(rho_raw, (list, tuple)):
        if len(rho_raw) != 2:
            raise SpecificationError(
                f"entries[{index}].rho must be a number or a [re, im] pair, "
                f"got {rho_raw!r}"
            )
        rho = complex(float(rho_raw[0]), float(rho_raw[1]))
    else:
        try:
            rho = complex(float(rho_raw), 0.0)
        except (TypeError, ValueError) as exc:
            raise SpecificationError(
                f"entries[{index}].rho must be a number or a [re, im] pair, "
                f"got {rho_raw!r}"
            ) from exc
    if abs(rho) >= 1.0:
        raise SpecificationError(
            f"entries[{index}].rho must satisfy |rho| < 1, got |rho|={abs(rho)}"
        )
    n = powers.size
    profile = np.eye(n, dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            profile[i, j] = rho ** (j - i)
            profile[j, i] = np.conj(profile[i, j])
    return profile * np.sqrt(np.outer(powers, powers))


def plan_from_workload(payload: Mapping[str, Any]) -> Tuple[SimulationPlan, int]:
    """Build ``(plan, n_samples)`` from one declarative workload mapping.

    Raises :class:`~repro.exceptions.SpecificationError` naming the
    offending field on any malformed value.
    """
    if not isinstance(payload, Mapping):
        raise SpecificationError(
            f"a workload must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(_WORKLOAD_FIELDS))
    if unknown:
        raise SpecificationError(
            f"unknown workload field(s) {unknown}; expected {list(_WORKLOAD_FIELDS)}"
        )
    try:
        n_samples = int(payload["n_samples"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecificationError(
            f"workload.n_samples must be a positive integer: {exc}"
        ) from exc
    if n_samples < 1:
        raise SpecificationError(
            f"workload.n_samples must be >= 1, got {n_samples}"
        )
    seed = payload.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SpecificationError(
            f"workload.seed must be an integer, got {seed!r}"
        )
    fading = coerce_fading(payload.get("fading"))
    doppler_obj = payload.get("doppler")
    if doppler_obj is None:
        doppler = None
    elif isinstance(doppler_obj, Mapping):
        try:
            doppler = DopplerSpec(
                normalized_doppler=float(doppler_obj["normalized_doppler"]),
                n_points=int(doppler_obj.get("n_points", 4096)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecificationError(
                f"workload.doppler must carry a normalized_doppler (and "
                f"optional n_points): {exc}"
            ) from exc
    else:
        raise SpecificationError(
            "workload.doppler must be a mapping with normalized_doppler, got "
            f"{type(doppler_obj).__name__}"
        )
    entries = payload.get("entries")
    if not isinstance(entries, list) or not entries:
        raise SpecificationError(
            "workload.entries must be a non-empty list of entry objects"
        )
    plan = SimulationPlan()
    for index, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise SpecificationError(
                f"entries[{index}] must be a JSON object, got "
                f"{type(entry).__name__}"
            )
        unknown = sorted(set(entry) - set(_ENTRY_FIELDS))
        if unknown:
            raise SpecificationError(
                f"unknown entries[{index}] field(s) {unknown}; expected "
                f"{list(_ENTRY_FIELDS)}"
            )
        label = entry.get("label")
        plan.add(
            _correlation_matrix(entry, index),
            seed=seed + index,
            doppler=doppler,
            fading=fading,
            label=None if label is None else str(label),
        )
    return plan, n_samples


#: One ready-to-run workload per fading model, plus the
#: shadowing composition — the suites behind ``repro-experiments suite``
#: and the CI workload-suite smoke job.
NAMED_SUITES: Dict[str, Dict[str, Any]] = {
    "rayleigh-baseline": {
        "name": "rayleigh-baseline",
        "description": "the paper's correlated Rayleigh envelopes (no model)",
        "n_samples": 2048,
        "seed": 20050413,
        "entries": [
            {"powers": [1.0, 1.0], "rho": 0.5, "label": "equal-power"},
            {"powers": [1.0, 2.0, 0.5], "rho": [0.5, 0.3], "label": "power-sweep"},
        ],
    },
    "rician-los": {
        "name": "rician-los",
        "description": "Rician K=4 line-of-sight links",
        "n_samples": 2048,
        "seed": 20050413,
        "fading": {"model": "rician", "shape": 4.0},
        "entries": [
            {"powers": [1.0, 1.0], "rho": 0.6, "label": "strong-los"},
            {"powers": [0.5, 1.5], "rho": 0.3, "label": "unequal"},
        ],
    },
    "nakagami-wsn": {
        "name": "nakagami-wsn",
        "description": "Nakagami-m m=1.5 sensor-network links",
        "n_samples": 2048,
        "seed": 20050413,
        "fading": {"model": "nakagami", "shape": 1.5},
        "entries": [
            {"powers": [1.0, 1.0, 1.0], "rho": 0.4, "label": "three-branch"},
        ],
    },
    "weibull-indoor": {
        "name": "weibull-indoor",
        "description": "Weibull k=1.7 indoor measurement fits",
        "n_samples": 2048,
        "seed": 20050413,
        "fading": {"model": "weibull", "shape": 1.7},
        "entries": [
            {"powers": [1.0, 1.0], "rho": [0.4, 0.2], "label": "indoor-pair"},
        ],
    },
    "shadowed-urban": {
        "name": "shadowed-urban",
        "description": "Rayleigh links behind 6 dB log-normal shadowing",
        "n_samples": 2048,
        "seed": 20050413,
        "fading": {"model": "rayleigh", "shadowing_sigma_db": 6.0},
        "entries": [
            {"powers": [1.0, 1.0], "rho": 0.5, "label": "urban-pair"},
            {"powers": [2.0, 0.5], "rho": 0.2, "label": "urban-unequal"},
        ],
    },
}


def available_suites() -> Tuple[str, ...]:
    """Names of the shipped workload suites, sorted."""
    return tuple(sorted(NAMED_SUITES))


def get_suite(name: Any) -> Dict[str, Any]:
    """Resolve a named suite, raising a field-naming error on unknowns."""
    suite = NAMED_SUITES.get(name) if isinstance(name, str) else None
    if suite is None:
        raise SpecificationError(
            f"unknown workload suite {name!r}; available: {sorted(NAMED_SUITES)}"
        )
    return suite


def load_workload(path: Union[str, Path]) -> Dict[str, Any]:
    """Read one workload mapping from a JSON file."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf8"))
    except OSError as exc:
        raise SpecificationError(f"cannot read workload file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecificationError(
            f"workload file {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise SpecificationError(
            f"workload file {path} must hold a JSON object at the top level"
        )
    return payload


def run_suite(
    workload: Union[str, Mapping[str, Any]],
    *,
    n_samples: Optional[int] = None,
    backend: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one workload (a suite name or mapping) and summarize the result.

    The summary is JSON-able: suite identity, per-entry labels and mean
    envelope powers, the fading metadata the execute kernel stamped on
    every block, and the compile/execute timings.
    """
    payload = get_suite(workload) if isinstance(workload, str) else workload
    plan, default_samples = plan_from_workload(payload)
    count = default_samples if n_samples is None else int(n_samples)
    if count < 1:
        raise SpecificationError(f"n_samples must be >= 1, got {count}")
    engine = SimulationEngine(backend=backend)
    result = engine.run(plan, count)
    entries = []
    for entry, block in zip(plan, result.blocks):
        envelopes = np.abs(block.samples)
        entries.append(
            {
                "label": entry.label,
                "n_branches": entry.n_branches,
                "mean_envelope_power": float(np.mean(envelopes**2)),
                "fading": block.metadata.get("fading"),
            }
        )
    return {
        "suite": payload.get("name"),
        "description": payload.get("description"),
        "n_entries": plan.n_entries,
        "n_samples": count,
        "backend": result.backend,
        "compile_seconds": float(result.compile_report.compile_seconds),
        "execute_seconds": float(result.execute_seconds),
        "entries": entries,
    }
