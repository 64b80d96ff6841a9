"""Seed handling utilities.

Every public constructor in the library accepts ``rng`` arguments of type
:data:`repro.types.SeedLike` (``None``, ``int`` or ``numpy.random.Generator``)
and normalizes them through :func:`ensure_rng`.  Parallel code uses
:func:`spawn_rngs` to derive independent child generators from a parent seed
in a reproducible way, mirroring numpy's ``SeedSequence.spawn`` mechanism.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..config import DEFAULT_RNG_SEED
from ..types import SeedLike

__all__ = ["ensure_rng", "spawn_rngs"]

#: What :func:`ensure_rng` accepts as a seed besides ``None``; ``bool``,
#: an ``int`` subclass, is refused (see ``_is_seed``).
SEED_TYPES = (int, np.integer, np.random.Generator)


def _is_seed(value: object) -> bool:
    """Whether ``value`` is a seed other than ``None``: a :data:`SEED_TYPES`
    instance that is not a ``bool``, which the wire refuses as well."""
    return isinstance(value, SEED_TYPES) and not isinstance(value, bool)


def _seed_type_error(seed: object) -> TypeError:
    return TypeError(
        f"seed must be None, an int, or a numpy Generator; got {type(seed).__name__}"
    )


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Normalize ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (use the package-wide
        :data:`repro.config.DEFAULT_RNG_SEED`, so that "no seed supplied"
        still means "reproducible"), an integer seed, or an existing
        generator (returned unchanged).

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_RNG_SEED
    elif not _is_seed(seed):
        raise _seed_type_error(seed)
    return np.random.default_rng(int(seed))


def spawn_rngs(seed: SeedLike, n: int) -> List[np.random.Generator]:
    """Derive ``n`` statistically independent generators from one seed.

    Parameters
    ----------
    seed:
        Parent seed (``None``/int/Generator).  When a Generator is passed its
        bit generator's seed sequence is spawned; when an int is passed a
        fresh :class:`numpy.random.SeedSequence` is built from it.
    n:
        Number of child generators; must be positive.

    Raises
    ------
    TypeError
        For a seed :func:`ensure_rng` refuses too (a ``bool``, a float, a
        string, ...), rather than truncating it to an integer.
    """
    if n <= 0:
        raise ValueError(f"number of spawned generators must be positive, got {n}")
    if isinstance(seed, np.random.Generator):
        seed_seq = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
        children = seed_seq.spawn(n)
        return [np.random.default_rng(child) for child in children]
    if seed is None:
        seed = DEFAULT_RNG_SEED
    elif not _is_seed(seed):
        raise _seed_type_error(seed)
    seq = np.random.SeedSequence(int(seed))
    return [np.random.default_rng(child) for child in seq.spawn(n)]

