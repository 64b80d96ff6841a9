"""Plan execution: batched white-sample drawing and stacked coloring.

The execute step turns a :class:`repro.engine.compile.CompiledPlan` into
correlated samples:

* each entry draws its white complex Gaussian samples from its *own* seeded
  stream — exactly the stream a standalone
  :class:`repro.core.generator.RayleighFadingGenerator` would use, which is
  what makes batched and looped generation bit-identical;
* Doppler-mode entries replace the white draws with Young–Beaulieu IDFT
  branch streams: every branch of every entry in a group draws its Gaussian
  input sequences from its own spawned child stream (exactly the streams a
  standalone :class:`repro.core.realtime.RealTimeRayleighGenerator` would
  spawn), the group's shared filter weights all frequency-domain blocks, and
  one stacked ``(B·N·n_blocks, M)`` IDFT produces every time-domain
  block at once (:func:`repro.channels.idft_generator.batched_doppler_blocks`);
* each compiled group colors all of its entries with a single stacked
  ``matmul`` (one BLAS gufunc dispatch for the whole ``(B, N, n)`` batch),
  normalized per entry by the effective sample variance — for Doppler
  groups the Eq. (19) filter-output variance;
* groups with a non-trivial fading model (see :mod:`repro.models.fading`)
  apply their post-coloring transform in place right after normalization —
  before any Doppler remainder is banked — through stacked per-group
  operands and state-owned scratch; ``entry.fading is None`` skips the
  seam entirely, keeping plain Rayleigh byte-identical to the
  pre-model-zoo fast path;
* long records stream through :func:`stream_plan` in fixed-size blocks with
  persistent per-entry generators, so memory stays bounded at one block.
  Doppler groups produce samples in multiples of the IDFT length ``M`` and
  keep the remainder in a fixed ``(B, N, M)`` ring buffer, so any
  ``block_size`` (and any ``n_samples`` not divisible by ``M``) works; the
  buffered leftover never exceeds ``M - 1`` samples per branch;
* the hot path is allocation-light: :class:`_ExecutionState` owns reusable
  scratch (Doppler kernel workspaces, snapshot white-draw buffers,
  normalization columns) that persists across streamed blocks, the IDFT
  runs in place, and the coloring matmul writes straight into the per-call
  record through ``matmul``'s ``out=``.  At most two block-sized
  buffers are live at any instant; only the records handed to callers are
  freshly allocated.
"""

from __future__ import annotations

# reprolint: hot-module — the fused execute kernels are allocation-light by
# contract; every deliberate allocation below is marked explicitly.

import time
import tracemalloc
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..channels.idft_generator import batched_doppler_blocks
from ..exceptions import GenerationError
from ..models.fading import (
    FadingScratch,
    FadingStacks,
    apply_fading_block,
    build_fading_stacks,
    new_fading_scratch,
)
from ..random import complex_gaussian, ensure_rng, spawn_rngs
from ..types import GaussianBlock
from .compile import CompiledGroup, CompiledPlan
from .result import BatchResult

__all__ = ["check_stream_arguments", "execute_plan", "stream_plan"]


class _DopplerLeftover:
    """Ring buffer for one Doppler group's colored-but-unconsumed samples.

    Capacity is one IDFT block ``(B, N, M)``: a refill generates whole
    blocks, the request consumes at least one sample past every complete
    block but the last, so the remainder is always ``<= M - 1`` samples per
    branch.  ``start``/``length`` track the live window; a refill resets
    ``start`` to 0, a consume advances it.  The buffer is allocated once per
    group and never grows — the old per-refill ``np.concatenate`` copy (and
    the reference it kept to the whole multi-block record) is gone.
    """

    __slots__ = ("data", "start", "length")

    def __init__(self, batch_size: int, n_branches: int, m: int) -> None:  # reprolint: workspace-constructor
        self.data = np.empty((batch_size, n_branches, m), dtype=np.complex128)
        self.start = 0
        self.length = 0


class _ExecutionState:
    """Per-execution random streams, Doppler buffers, and reusable scratch.

    One state object lives for the duration of an :func:`execute_plan` call
    or across every block of a :func:`stream_plan` iteration, so streams (and
    partially consumed Doppler IDFT blocks) persist exactly like the
    generators of a loop of standalone instances would.

    * ``streams[i]`` is the entry's generator (snapshot entries) or the list
      of its per-branch child generators (Doppler entries) — spawned from the
      entry seed exactly like ``RealTimeRayleighGenerator`` spawns its branch
      streams.
    * ``leftovers[g]`` is a Doppler group's :class:`_DopplerLeftover` ring
      buffer (samples are produced in multiples of the IDFT length ``M``;
      requests need not be).

    Scratch ownership: the state owns every reusable buffer of the execute
    hot path — the per-group Doppler kernel workspaces (the weighted /
    transformed block buffer), the per-group snapshot white-draw scratch,
    the flattened branch-generator lists, and the cached normalization
    columns.  Scratch is *internal*: arrays handed to callers
    (``GaussianBlock.samples``) always view freshly allocated per-call
    records, never scratch, so results stay valid after the state produces
    its next block.  Colored records are deliberately *not* pooled: the
    caller keeps views of them, so pooling would pin a second resident
    copy and raise the execute peak by a full block.
    """

    def __init__(self, compiled: CompiledPlan) -> None:
        self.streams: List[Union[np.random.Generator, List[np.random.Generator]]] = []
        for entry in compiled.plan:
            if entry.doppler is None:
                self.streams.append(ensure_rng(entry.seed))
            else:
                self.streams.append(
                    spawn_rngs(ensure_rng(entry.seed), entry.n_branches)
                )
        self.leftovers: Dict[int, _DopplerLeftover] = {}
        self._workspaces: Dict[int, dict] = {}
        self._white: Dict[int, np.ndarray] = {}
        self._branch_rngs: Dict[int, List[np.random.Generator]] = {}
        self._norms: Dict[int, np.ndarray] = {}
        self._fading: Dict[int, Optional[FadingStacks]] = {}
        self._fading_scratch: Dict[int, FadingScratch] = {}

    def workspace(self, group_index: int) -> dict:
        """The group's ``batched_doppler_blocks`` scratch dict."""
        return self._workspaces.setdefault(group_index, {})

    def branch_rngs(
        self, group_index: int, group: CompiledGroup
    ) -> List[np.random.Generator]:
        """The group's branch generators, flattened once in entry order."""
        rngs = self._branch_rngs.get(group_index)
        if rngs is None:
            rngs = [rng for index in group.indices for rng in self.streams[index]]
            self._branch_rngs[group_index] = rngs
        return rngs

    def norm(self, group_index: int, group: CompiledGroup) -> np.ndarray:
        """The group's ``sqrt(sample_variances)`` column, computed once."""
        norm = self._norms.get(group_index)
        if norm is None:
            norm = np.sqrt(group.sample_variances)[:, np.newaxis, np.newaxis]
            self._norms[group_index] = norm
        return norm

    def white_scratch(self, group_index: int, shape: Tuple[int, ...]) -> np.ndarray:  # reprolint: workspace-constructor
        """Reusable snapshot white-draw input ``(B, N, n_samples)``."""
        array = self._white.get(group_index)
        if array is None or array.shape != shape:
            array = np.empty(shape, dtype=np.complex128)
            self._white[group_index] = array
        return array

    def fading(
        self, group_index: int, group: CompiledGroup
    ) -> Optional[FadingStacks]:
        """The group's stacked fading operands (``None`` = Rayleigh path)."""
        try:
            return self._fading[group_index]
        except KeyError:
            stacks = build_fading_stacks(group.entries)
            self._fading[group_index] = stacks
            return stacks

    def fading_scratch(  # reprolint: workspace-constructor
        self, group_index: int, stacks: FadingStacks, shape: Tuple[int, ...]
    ) -> FadingScratch:
        """Reusable scratch for the envelope transforms: the block-shaped
        envelope/target/mask arrays plus the seeded Nakagami inverse's
        per-pass float, index and mask buffers.

        Re-checked on shape because Doppler requests vary in block length.
        """
        scratch = self._fading_scratch.get(group_index)
        if scratch is None or scratch.envelope.shape != shape:
            scratch = new_fading_scratch(stacks, shape)
            self._fading_scratch[group_index] = scratch
        return scratch


def _matmul_into(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Stacked coloring matmul written into ``out``."""
    return np.matmul(a, b, out=out)


def _apply_fading(  # reprolint: hot-path
    state: _ExecutionState,
    group_index: int,
    group: CompiledGroup,
    colored: np.ndarray,
) -> None:
    """Apply the group's fading transform to ``colored`` in place.

    A no-op for plain Rayleigh groups (``stacks is None``), so the default
    path never pays for the seam.  Envelope transforms (Nakagami, Weibull)
    run through the state-owned float/index/mask scratch to keep the hot
    path allocation-free.
    """
    stacks = state.fading(group_index, group)
    if stacks is None:
        return
    if stacks.needs_scratch:
        scratch = state.fading_scratch(group_index, stacks, colored.shape)
        apply_fading_block(colored, stacks, scratch)
    else:
        apply_fading_block(colored, stacks)


def _doppler_colored_blocks(
    group: CompiledGroup,
    state: _ExecutionState,
    group_index: int,
    n_samples: int,
) -> np.ndarray:
    """Colored Doppler samples ``(B, N, n_samples)`` for one group.

    Serves the request leftover-first from the group's ring buffer, then
    generates whole IDFT blocks (all entries and branches through one
    stacked IDFT in reused workspace), colors the fresh record
    with one stacked ``_matmul_into`` into a fresh exact-size record, and
    banks the sub-block remainder in the ring — so arbitrary ``n_samples``
    compose into bit-identical continuous streams.  When the request
    starts block-aligned (no leftover) the caller gets a view of the
    colored record directly, zero copies; otherwise a fresh output is
    assembled from the ring prefix and the record.  The colored record is
    deliberately *not* reused scratch: the caller keeps views of it, and a
    second resident copy would raise the execute peak by a full block.
    """
    doppler = group.doppler
    m = doppler.n_points
    leftover = state.leftovers.get(group_index)
    taken = 0
    if leftover is not None and leftover.length:
        taken = min(leftover.length, n_samples)
    missing = n_samples - taken
    colored = None
    if missing > 0:
        n_blocks = -(-missing // m)  # ceil division
        fresh = batched_doppler_blocks(
            group.doppler_filter,
            state.branch_rngs(group_index, group),
            n_blocks=n_blocks,
            input_variance_per_dim=doppler.input_variance_per_dim,
            workspace=state.workspace(group_index),
        ).reshape(group.batch_size, group.n_branches, n_blocks * m)
        # reprolint: disable=hot-path-allocation (fresh result record: callers keep views of it)
        colored = np.empty_like(fresh)
        _matmul_into(group.coloring_stack, fresh, colored)
        colored /= state.norm(group_index, group)
        # Fading applies before the remainder is banked, so the ring buffer
        # only ever holds finished samples and any block split reads the
        # same bytes as one long record.
        _apply_fading(state, group_index, group, colored)
    if taken == 0:
        out = colored[:, :, :n_samples]
    else:
        # reprolint: disable=hot-path-allocation (fresh result record: callers keep views of it)
        out = np.empty(
            (group.batch_size, group.n_branches, n_samples), dtype=np.complex128
        )
        stop = leftover.start + taken
        out[:, :, :taken] = leftover.data[:, :, leftover.start : stop]
        leftover.start = stop
        leftover.length -= taken
        if missing > 0:
            out[:, :, taken:] = colored[:, :, :missing]
    if missing > 0:
        remainder = colored.shape[2] - missing
        if remainder:
            # Lazily allocated: a block-aligned request never pays for it.
            if leftover is None:
                leftover = _DopplerLeftover(group.batch_size, group.n_branches, m)
                state.leftovers[group_index] = leftover
            leftover.data[:, :, :remainder] = colored[:, :, missing:]
            leftover.start = 0
            leftover.length = remainder
        elif leftover is not None:
            leftover.start = 0
            leftover.length = 0
    assert leftover is None or leftover.length <= m - 1
    return out


def _generate_block(
    compiled: CompiledPlan, n_samples: int, state: _ExecutionState
) -> List[GaussianBlock]:
    """Draw and color one block of ``n_samples`` for every entry.

    ``state`` holds one random stream per plan entry (plan order) plus the
    Doppler group buffers; drawing advances them, which is what lets
    :func:`stream_plan` produce consecutive blocks from continuous streams.
    """
    blocks: List[Optional[GaussianBlock]] = [None] * compiled.n_entries
    for group_index, group in enumerate(compiled.groups):
        batch_size = group.batch_size
        n_branches = group.n_branches
        if group.is_doppler:
            colored = _doppler_colored_blocks(group, state, group_index, n_samples)
        else:
            white = state.white_scratch(
                group_index, (batch_size, n_branches, n_samples)
            )
            for position, (index, entry) in enumerate(zip(group.indices, group.entries)):
                complex_gaussian(
                    (n_branches, n_samples),
                    variance=entry.sample_variance,
                    rng=state.streams[index],
                    out=white[position],
                )
            # One stacked BLAS dispatch colors the whole group into a fresh
            # exact-size result (callers keep views of it); slice results
            # are bit-identical to per-entry `L @ w`.
            # reprolint: disable=hot-path-allocation (fresh result record: callers keep views of it)
            colored = np.empty((batch_size, n_branches, n_samples), dtype=np.complex128)
            _matmul_into(group.coloring_stack, white, colored)
            colored /= state.norm(group_index, group)
            _apply_fading(state, group_index, group, colored)
        for position, (index, entry) in enumerate(zip(group.indices, group.entries)):
            decomposition = group.decompositions[position]
            if group.is_doppler:
                metadata = {
                    "method": "realtime",
                    "normalized_doppler": entry.doppler.normalized_doppler,
                    "n_points": entry.doppler.n_points,
                    "filter_output_variance": group.doppler_output_variance,
                    "compensate_variance": entry.doppler.compensate_variance,
                }
            else:
                metadata = {"method": "snapshot"}
            metadata.update(
                {
                    "coloring_method": decomposition.method,
                    "was_repaired": decomposition.was_repaired,
                    "engine": "batch",
                    "plan_index": index,
                    "batch_size": batch_size,
                }
            )
            if entry.fading is not None:
                metadata["fading"] = {
                    "model": entry.fading.model,
                    "shape": entry.fading.shape,
                    "shadowing_sigma_db": entry.fading.shadowing_sigma_db,
                }
            if entry.label is not None:
                metadata["label"] = entry.label
            blocks[index] = GaussianBlock(
                samples=colored[position],
                variances=entry.spec.gaussian_variances.copy(),  # reprolint: disable=hot-path-allocation (tiny per-entry metadata copy, caller-owned)
                metadata=metadata,
            )
    return blocks  # type: ignore[return-value]


def execute_plan(
    compiled: CompiledPlan, n_samples: int, *, measure_allocation: bool = False
) -> BatchResult:
    """Execute a compiled plan, producing ``n_samples`` per entry.

    Parameters
    ----------
    compiled:
        The compiled plan (see :func:`repro.engine.compile.compile_plan`).
    n_samples:
        Time samples per branch for every entry.  Doppler entries generate
        ``ceil(n_samples / M)`` IDFT blocks and truncate.
    measure_allocation:
        Trace the execute step with :mod:`tracemalloc` and report its peak
        allocation in :attr:`BatchResult.peak_alloc_bytes`.  Tracing slows
        generation down noticeably; off by default.  When tracing is already
        active (e.g. an outer profiler), the peak counter is reset instead
        of restarted and tracing is left running.

    Returns
    -------
    BatchResult
        Per-entry Gaussian blocks, bit-identical to looping
        ``RayleighFadingGenerator(entry.spec, rng=entry.seed).generate_gaussian(n_samples)``
        — or, for Doppler entries,
        ``RealTimeRayleighGenerator(...).generate_gaussian(ceil(n_samples / M))``
        truncated to ``n_samples`` — over the plan.  The guarantee holds
        regardless of how ``compiled`` was obtained: a fresh compile, any
        memory-cache configuration, or a whole-plan disk artifact all
        execute to the same bytes (the cache-transparency invariant; see
        ``docs/ARCHITECTURE.md``).
    """
    if n_samples < 1:
        raise GenerationError(f"n_samples must be >= 1, got {n_samples}")
    start = time.perf_counter()
    peak: Optional[int] = None
    if measure_allocation:
        started_here = not tracemalloc.is_tracing()
        if started_here:
            tracemalloc.start()
        else:
            tracemalloc.reset_peak()
        try:
            blocks = _generate_block(compiled, int(n_samples), _ExecutionState(compiled))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started_here:
                tracemalloc.stop()
    else:
        blocks = _generate_block(compiled, int(n_samples), _ExecutionState(compiled))
    return BatchResult(
        blocks=tuple(blocks),
        n_samples=int(n_samples),
        compile_report=compiled.report,
        execute_seconds=time.perf_counter() - start,
        peak_alloc_bytes=peak,
    )


def stream_plan(
    compiled: CompiledPlan,
    *,
    block_size: int,
    n_blocks: int,
) -> Iterator[BatchResult]:
    """Yield ``n_blocks`` consecutive batched blocks of ``block_size`` samples.

    Memory stays bounded at one ``(B, N, block_size)`` batch regardless of
    the record length (plus at most ``M - 1`` buffered samples per Doppler
    branch).  Per-entry generators persist across blocks: a snapshot
    entry's blocks equal successive ``generate_gaussian(block_size)`` calls
    of one standalone generator, and concatenating a Doppler entry's blocks
    equals one long :func:`execute_plan` record cut into pieces, for any
    block size, divisible into the IDFT length or not.  Bad arguments raise
    here, before the first block.
    """
    check_stream_arguments(block_size, n_blocks)
    return _stream_blocks(compiled, int(block_size), int(n_blocks))


def check_stream_arguments(block_size: int, n_blocks: int) -> None:
    """Raise :class:`GenerationError` unless both stream sizes are >= 1."""
    if block_size < 1:
        raise GenerationError(f"block_size must be >= 1, got {block_size}")
    if n_blocks < 1:
        raise GenerationError(f"n_blocks must be >= 1, got {n_blocks}")


def _stream_blocks(
    compiled: CompiledPlan, block_size: int, n_blocks: int
) -> Iterator[BatchResult]:
    state = _ExecutionState(compiled)
    for _ in range(n_blocks):
        start = time.perf_counter()
        blocks = _generate_block(compiled, block_size, state)
        yield BatchResult(
            blocks=tuple(blocks),
            n_samples=block_size,
            compile_report=compiled.report,
            execute_seconds=time.perf_counter() - start,
        )
