"""Experiments ``scaling-n``, ``scaling-batch``, ``scaling-doppler-batch``.

The paper presents the algorithm as applicable "for an arbitrary number N of
Rayleigh envelopes"; :func:`run` measures how the generation cost scales with
``N`` for both modes (snapshot and real-time) and confirms that the
statistical accuracy does not degrade as ``N`` grows.  It doubles as the
kernel behind the ``bench_scaling`` benchmark.

:func:`run_batch` measures the batched engine (:mod:`repro.engine`) against
the looped single-spec path over a sweep of batch sizes ``B``: the same
``B`` scenarios are generated once by looping
:class:`repro.core.generator.RayleighFadingGenerator` and once through
plan → compile → execute, cold (empty decomposition cache) and warm (all
decompositions cached).  The experiment's *acceptance criterion* is
bit-identity of the batched and looped samples — deterministic, so the
registry sweep never depends on host timing; the speedups and cache counters
are reported as metrics and exercised by ``bench_engine_batch``.

:func:`run_doppler_batch` is the Doppler-mode analogue: the same ``B``
scenarios are generated once by looping
:class:`repro.core.realtime.RealTimeRayleighGenerator` (per scenario: one
Young–Beaulieu filter build, one decomposition, one ``(N, M)`` IDFT
dispatch, one coloring matmul) and once as a Doppler plan of the batched
engine (one shared filter build, stacked decompositions, one stacked IDFT
over all ``B·N`` branches, one stacked coloring matmul).  Acceptance is
again bit-identity; the filter-reuse counters (``doppler_filters_built`` vs
``doppler_entries``) and speedups are metrics, exercised by
``bench_doppler_batch``.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.covariance import CovarianceSpec
from ..core.generator import RayleighFadingGenerator
from ..core.realtime import RealTimeRayleighGenerator
from ..engine import DopplerSpec, SimulationEngine, SimulationPlan
from ..models import coerce_fading, reference_fading_samples
from ..validation.metrics import relative_frobenius_error
from . import paper_values as pv
from .reporting import ExperimentResult, Table

__all__ = [
    "run",
    "run_batch",
    "run_doppler_batch",
    "batch_sweep_specs",
    "shard_sweep_plan",
    "exponential_correlation_covariance",
]


def exponential_correlation_covariance(n: int, rho: complex = 0.5 + 0.3j) -> np.ndarray:
    """Hermitian covariance with correlation ``rho^{|k-j|}`` and unit powers.

    The exponential (AR-1 style) correlation profile is a standard synthetic
    family that stays positive definite for ``|rho| < 1`` at every size, so
    it isolates the scaling behaviour from PSD-repair effects.
    """
    if not 0 <= abs(rho) < 1:
        raise ValueError(f"|rho| must be < 1, got {abs(rho)}")
    matrix = np.eye(n, dtype=complex)
    for k in range(n):
        for j in range(n):
            if k < j:
                matrix[k, j] = rho ** (j - k)
            elif k > j:
                matrix[k, j] = np.conj(rho) ** (k - j)
    return matrix


def run(
    seed: int = 20050413,
    branch_counts=(2, 4, 8, 16, 32, 64),
    snapshot_samples: int = 50_000,
    realtime_points: int = 1024,
) -> ExperimentResult:
    """Run the scaling sweep."""
    table = Table(
        title="Generation throughput and accuracy vs. number of branches",
        columns=[
            "N",
            "snapshot time [s]",
            "snapshot Msamples/s",
            "snapshot cov err",
            "realtime time [s]",
            "realtime Msamples/s",
        ],
    )
    metrics = {}
    accuracy_ok = True

    for n in branch_counts:
        covariance = exponential_correlation_covariance(n)
        spec = CovarianceSpec.from_covariance_matrix(covariance)

        snapshot = RayleighFadingGenerator(spec, rng=seed)
        start = time.perf_counter()
        samples = snapshot.generate(snapshot_samples)
        snapshot_time = time.perf_counter() - start
        achieved = samples @ samples.conj().T / snapshot_samples
        snapshot_error = relative_frobenius_error(achieved, covariance)
        accuracy_ok &= snapshot_error <= 0.1
        snapshot_rate = n * snapshot_samples / snapshot_time / 1e6

        realtime = RealTimeRayleighGenerator(
            spec,
            normalized_doppler=pv.NORMALIZED_DOPPLER,
            n_points=realtime_points,
            rng=seed + 1,
        )
        start = time.perf_counter()
        realtime.generate(1)
        realtime_time = time.perf_counter() - start
        realtime_rate = n * realtime_points / realtime_time / 1e6

        table.add_row(n, snapshot_time, snapshot_rate, snapshot_error, realtime_time, realtime_rate)
        metrics[f"snapshot_time_n{n}"] = snapshot_time
        metrics[f"snapshot_error_n{n}"] = snapshot_error
        metrics[f"realtime_time_n{n}"] = realtime_time

    result = ExperimentResult(
        experiment_id="scaling-n",
        paper_artifact="Generality claim (arbitrary N), Sections 4.4 and 7",
        description=(
            "Wall-clock cost and covariance accuracy of the snapshot and real-time "
            "generators as the number of correlated branches grows from 2 to 64 with an "
            "exponential correlation profile."
        ),
        parameters={
            "branch_counts": list(branch_counts),
            "snapshot_samples": snapshot_samples,
            "realtime_points": realtime_points,
            "seed": seed,
        },
        metrics=metrics,
        passed=accuracy_ok,
        notes=(
            "Timings are informational (they depend on the host); the acceptance "
            "criterion is that the covariance accuracy does not degrade with N."
        ),
    )
    result.add_table(table)
    return result


def batch_sweep_specs(batch_size: int, n_branches: int = 4):
    """``batch_size`` distinct small covariance specs for the batch sweep.

    Each spec scales the same exponential-correlation profile by a distinct
    per-branch power vector (a power sweep), so every matrix in the batch is
    unique — the decomposition cache gets no free intra-batch hits and the
    cold-path comparison is honest.
    """
    base = exponential_correlation_covariance(n_branches)
    specs = []
    for index in range(batch_size):
        powers = 1.0 + (index + 1) / batch_size * np.linspace(0.5, 1.5, n_branches)
        matrix = base * np.sqrt(np.outer(powers, powers))
        specs.append(CovarianceSpec.from_covariance_matrix(matrix))
    return specs


def shard_sweep_plan(
    n_entries: int,
    n_branches: int = 4,
    seed: int = 20050413,
    *,
    doppler_every: int = 0,
    normalized_doppler: float = 0.05,
    n_points: int = 64,
) -> SimulationPlan:
    """A deterministic labelled sweep plan for the sharded runner.

    Builds on :func:`batch_sweep_specs` (every matrix unique, so no two
    entries share a decomposition)
    with per-entry seeds ``seed + index`` and labels ``sweep-<index>``.
    With ``doppler_every=k`` every ``k``-th entry becomes a Doppler entry
    sharing one filter key — the mixed-workload shape the `shard` CLI,
    ``bench_shard_scaling``, and the cross-process property suite all run.
    """
    if n_entries < 1:
        raise ValueError(f"n_entries must be >= 1, got {n_entries}")
    specs = batch_sweep_specs(n_entries, n_branches)
    plan = SimulationPlan()
    for index, spec in enumerate(specs):
        doppler = None
        if doppler_every and index % doppler_every == doppler_every - 1:
            doppler = DopplerSpec(
                normalized_doppler=normalized_doppler, n_points=n_points
            )
        plan.add(
            spec,
            seed=seed + index,
            doppler=doppler,
            label=f"sweep-{index}",
        )
    return plan


def _best_time(kernel, repeats: int):
    """Best-of-``repeats`` wall-clock time of ``kernel`` plus its last result."""
    best = float("inf")
    result = None
    for _ in range(max(1, int(repeats))):
        start = time.perf_counter()
        result = kernel()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_batch(
    seed: int = 20050413,
    batch_sizes=(1, 16, 256),
    n_branches: int = 4,
    n_samples: int = 64,
    repeats: int = 3,
    fading=None,
) -> ExperimentResult:
    """Run the batched-engine vs. looped-generation sweep.

    ``fading`` optionally applies one fading model (a name, mapping, or
    :class:`repro.models.FadingSpec`) to every plan entry.  The looped
    baseline then runs the plain Rayleigh generator and transforms its
    samples through the scalar reference oracle
    (:func:`repro.models.reference_fading_samples`); acceptance is
    byte-identity for exact models (``rician``, shadowing) and the model's
    declared ``rtol`` otherwise (``nakagami``, ``weibull``).

    For every batch size ``B`` the same scenarios (distinct matrices,
    independent derived seeds) are generated four ways:

    * **looped** — one :class:`RayleighFadingGenerator` per spec, each with a
      disabled cache (every construction pays its own decomposition), the
      pre-engine execution model;
    * **batched cold** — one plan → compile → execute pass against an empty
      decomposition cache (stacked decompositions, all misses);
    * **batched warm** — the same pass again (compile is all cache hits);
    * **execute only** — re-executing the already-compiled plan (the
      compile-once / execute-many usage the pipeline split exists for).

    Passing requires the batched samples to be bit-identical to the looped
    samples for every entry at every ``B``.  Speedups and cache hit/miss
    counts are recorded as metrics.
    """
    table = Table(
        title="Batched engine vs. looped generation",
        columns=[
            "B",
            "looped [s]",
            "batch cold [s]",
            "batch warm [s]",
            "execute only [s]",
            "speedup warm",
            "speedup execute",
            "cache hits",
            "cache misses",
            "identical",
        ],
    )
    metrics = {}
    all_identical = True
    total_warm_hits = 0
    total_warm_misses = 0
    total_cold_misses = 0
    fading_spec = coerce_fading(fading)
    if fading_spec is None or fading_spec.descriptor.exact:
        matches = np.array_equal
    else:
        rtol = fading_spec.descriptor.rtol

        def matches(reference, candidate):
            return bool(np.allclose(candidate, reference, rtol=rtol, atol=1e-15))

    for batch_size in batch_sizes:
        specs = batch_sweep_specs(batch_size, n_branches)
        plan = SimulationPlan.from_specs(
            specs, seed=seed + batch_size, fading=fading_spec
        )
        entry_seeds = [entry.seed for entry in plan]

        # Looped baseline: per-spec generators (the pre-engine execution
        # model pays one decomposition per generator).
        looped_time, looped_blocks = _best_time(
            lambda: [
                RayleighFadingGenerator(spec, rng=entry_seed).generate_gaussian(
                    n_samples
                )
                for spec, entry_seed in zip(specs, entry_seeds)
            ],
            repeats,
        )

        # Cold: a fresh cache per repeat, so every repeat pays the stacked
        # decomposition (the best-of timing stays a true cold measurement).
        cold_time, cold = _best_time(
            lambda: SimulationEngine().run(plan, n_samples),
            repeats,
        )

        engine = SimulationEngine()
        engine.run(plan, n_samples)  # populate the cache
        engine.cache.reset_stats()
        warm_time, warm = _best_time(lambda: engine.run(plan, n_samples), repeats)

        compiled = engine.compile(plan)
        execute_time, executed = _best_time(
            lambda: engine.run(compiled, n_samples), repeats
        )

        # The acceptance reference: looped Rayleigh samples, pushed through
        # the scalar fading oracle when a model is in play (untimed — the
        # timing columns compare the Rayleigh-generation cost both paths
        # share, the transform cost shows up only in the batched columns).
        if fading_spec is None:
            references = [looped.samples for looped in looped_blocks]
        else:
            references = [
                reference_fading_samples(
                    looped.samples,
                    spec.gaussian_variances,
                    fading_spec,
                    seed=entry_seed,
                )
                for looped, spec, entry_seed in zip(
                    looped_blocks, specs, entry_seeds
                )
            ]

        identical = all(
            matches(reference, batched.samples)
            and matches(reference, rerun.samples)
            and matches(reference, direct.samples)
            for reference, batched, rerun, direct in zip(
                references, cold.blocks, warm.blocks, executed.blocks
            )
        )
        all_identical &= identical

        speedup_cold = looped_time / cold_time
        speedup_warm = looped_time / warm_time
        speedup_execute = looped_time / execute_time
        # Per-compile cache counters: the warm compile serves every entry
        # from the cache, the cold compile misses every unique matrix.
        warm_hits = warm.compile_report.cache_hits
        cold_misses = cold.compile_report.cache_misses
        table.add_row(
            batch_size,
            looped_time,
            cold_time,
            warm_time,
            execute_time,
            speedup_warm,
            speedup_execute,
            warm_hits,
            cold_misses,
            identical,
        )
        metrics[f"looped_time_b{batch_size}"] = looped_time
        metrics[f"batch_cold_time_b{batch_size}"] = cold_time
        metrics[f"batch_warm_time_b{batch_size}"] = warm_time
        metrics[f"execute_only_time_b{batch_size}"] = execute_time
        metrics[f"speedup_cold_b{batch_size}"] = speedup_cold
        metrics[f"speedup_warm_b{batch_size}"] = speedup_warm
        metrics[f"speedup_execute_b{batch_size}"] = speedup_execute
        metrics[f"warm_cache_hits_b{batch_size}"] = float(warm_hits)
        metrics[f"cold_cache_misses_b{batch_size}"] = float(cold_misses)
        total_warm_hits += int(warm_hits)
        total_warm_misses += int(warm.compile_report.cache_misses)
        total_cold_misses += int(cold_misses)

    # Per-phase totals: cold compiles pay the decompositions, warm compiles
    # should serve every lookup from the cache.  Kept separate so consumers
    # (the CLI summary) can report honest per-phase rates instead of mixing
    # two different runs into one statistic.
    metrics["warm_cache_hits_total"] = float(total_warm_hits)
    metrics["warm_cache_misses_total"] = float(total_warm_misses)
    metrics["cold_cache_misses_total"] = float(total_cold_misses)

    result = ExperimentResult(
        experiment_id="scaling-batch",
        paper_artifact=(
            "Scaling extension: plan/compile/execute engine over the Section 4.4 "
            "snapshot algorithm"
        ),
        description=(
            "Wall-clock comparison of the batched engine (stacked eigendecomposition "
            "+ decomposition cache + stacked coloring matmul) against looping the "
            "single-spec generator over B scenarios, with bit-identity of the two "
            "paths as the acceptance criterion."
        ),
        parameters={
            "batch_sizes": list(batch_sizes),
            "n_branches": n_branches,
            "n_samples": n_samples,
            "seed": seed,
            "fading": (
                None
                if fading_spec is None
                else {
                    "model": fading_spec.model,
                    "shape": fading_spec.shape,
                    "shadowing_sigma_db": fading_spec.shadowing_sigma_db,
                }
            ),
        },
        metrics=metrics,
        passed=all_identical,
        notes=(
            "Speedups are informational (host-dependent); the acceptance criterion "
            "is bit-identity of batched and looped samples for the same per-entry "
            "seeds. The defaults sit in the decomposition-bound regime (small "
            "matrices, short blocks) the engine targets; as blocks grow, both paths "
            "converge to the RNG-bound cost and the ratio approaches 1. The "
            "bench_engine_batch benchmark tracks the >=5x speedup target at B=256."
        ),
    )
    result.add_table(table)
    return result


def run_doppler_batch(
    seed: int = 20050413,
    batch_sizes=(1, 16, 256),
    n_branches: int = 4,
    n_points: int = 128,
    normalized_doppler: float = pv.NORMALIZED_DOPPLER,
    repeats: int = 3,
) -> ExperimentResult:
    """Run the batched-Doppler vs. looped real-time generation sweep.

    For every batch size ``B`` the same scenarios (distinct matrices,
    independent derived seeds, a shared Doppler mode) are generated three
    ways:

    * **looped** — one :class:`RealTimeRayleighGenerator` per spec with a
      disabled decomposition cache: every scenario pays its own filter
      build, its own decomposition, its own IDFT dispatch, and its own
      coloring matmul — the pre-engine execution model;
    * **batched warm** — one Doppler plan through plan → compile → execute
      with every decomposition cached (one shared filter build, one stacked
      IDFT over all ``B·N`` branch blocks, one stacked coloring matmul);
    * **execute only** — re-executing the already-compiled plan.

    Passing requires the batched samples to be bit-identical to the looped
    samples for every entry at every ``B``.  Speedups and the Doppler
    filter-reuse counters (filters built vs. entries served) are recorded as
    metrics; the CLI ``batch --doppler`` mode prints them.
    """
    doppler = DopplerSpec(
        normalized_doppler=float(normalized_doppler), n_points=int(n_points)
    )
    table = Table(
        title="Batched Doppler substrate vs. looped real-time generation",
        columns=[
            "B",
            "looped [s]",
            "batch warm [s]",
            "execute only [s]",
            "speedup warm",
            "speedup execute",
            "filters built",
            "entries served",
            "identical",
        ],
    )
    metrics = {}
    all_identical = True
    total_filters_built = 0
    total_entries_served = 0

    for batch_size in batch_sizes:
        specs = batch_sweep_specs(batch_size, n_branches)
        plan = SimulationPlan.from_specs(specs, seed=seed + batch_size, doppler=doppler)
        entry_seeds = [entry.seed for entry in plan]

        # Looped baseline: per-spec real-time generators (the pre-engine
        # model pays a decomposition and a filter build per generator, and
        # runs one IDFT per branch).
        looped_time, looped_blocks = _best_time(
            lambda: [
                RealTimeRayleighGenerator(
                    spec,
                    normalized_doppler=doppler.normalized_doppler,
                    n_points=doppler.n_points,
                    rng=entry_seed,
                ).generate_gaussian(1)
                for spec, entry_seed in zip(specs, entry_seeds)
            ],
            repeats,
        )

        engine = SimulationEngine()
        engine.run(plan, n_points)  # populate the decomposition cache
        warm_time, warm = _best_time(lambda: engine.run(plan, n_points), repeats)

        compiled = engine.compile(plan)
        execute_time, executed = _best_time(
            lambda: engine.run(compiled, n_points), repeats
        )

        identical = all(
            np.array_equal(looped.samples, batched.samples)
            and np.array_equal(looped.samples, direct.samples)
            for looped, batched, direct in zip(
                looped_blocks, warm.blocks, executed.blocks
            )
        )
        all_identical &= identical

        speedup_warm = looped_time / warm_time
        speedup_execute = looped_time / execute_time
        filters_built = warm.compile_report.doppler_filters_built
        entries_served = warm.compile_report.doppler_entries
        table.add_row(
            batch_size,
            looped_time,
            warm_time,
            execute_time,
            speedup_warm,
            speedup_execute,
            filters_built,
            entries_served,
            identical,
        )
        metrics[f"looped_time_b{batch_size}"] = looped_time
        metrics[f"batch_warm_time_b{batch_size}"] = warm_time
        metrics[f"execute_only_time_b{batch_size}"] = execute_time
        metrics[f"speedup_warm_b{batch_size}"] = speedup_warm
        metrics[f"speedup_execute_b{batch_size}"] = speedup_execute
        metrics[f"doppler_filters_built_b{batch_size}"] = float(filters_built)
        metrics[f"doppler_entries_b{batch_size}"] = float(entries_served)
        total_filters_built += int(filters_built)
        total_entries_served += int(entries_served)

    metrics["doppler_filters_built_total"] = float(total_filters_built)
    metrics["doppler_entries_total"] = float(total_entries_served)

    result = ExperimentResult(
        experiment_id="scaling-doppler-batch",
        paper_artifact=(
            "Scaling extension: batched Doppler substrate (stacked IDFTs) over the "
            "Section 5 real-time algorithm"
        ),
        description=(
            "Wall-clock comparison of the batched Doppler substrate (one shared "
            "Young-Beaulieu filter + one stacked IDFT over all branches of all "
            "scenarios + stacked coloring matmul with Eq. (19) compensation) "
            "against looping the real-time generator over B scenarios, with "
            "bit-identity of the two paths as the acceptance criterion."
        ),
        parameters={
            "batch_sizes": list(batch_sizes),
            "n_branches": n_branches,
            "n_points": int(n_points),
            "normalized_doppler": float(normalized_doppler),
            "seed": seed,
        },
        metrics=metrics,
        passed=all_identical,
        notes=(
            "Speedups are informational (host-dependent); the acceptance criterion "
            "is bit-identity of batched and looped samples for the same per-entry "
            "seeds. The looped path pays B filter builds, B decompositions, and B "
            "separate IDFT dispatches where the batched path pays one build, "
            "stacked decompositions, and one stacked transform. The "
            "bench_doppler_batch benchmark tracks the >=3x speedup target at B=256."
        ),
    )
    result.add_table(table)
    return result
