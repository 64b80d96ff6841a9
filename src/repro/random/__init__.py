"""Random-number substrate: seeding and complex Gaussian sampling.

The whole library funnels randomness through :func:`ensure_rng` so that every
generator, experiment and benchmark is reproducible from a single integer
seed, and through :func:`spawn_rngs` so that parallel workers receive
statistically independent streams.
"""

from .rng import ensure_rng, spawn_rngs
from .complex_gaussian import complex_gaussian

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "complex_gaussian",
]
