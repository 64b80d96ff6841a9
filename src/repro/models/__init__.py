"""Fading-model zoo: pluggable post-coloring channel models.

The closed model table and spec types live in :mod:`repro.models.fading`; the looped
scalar reference oracles in :mod:`repro.models.reference`; the named
workload suites and the declarative JSON scenario schema in
:mod:`repro.models.workloads` (imported lazily by the CLI — it depends on
the engine, which in turn imports this package).
"""

from .fading import (
    FadingLike,
    FadingModel,
    FadingSpec,
    FadingStacks,
    apply_fading_block,
    build_fading_stacks,
    coerce_fading,
    get_fading_model,
    shadowing_gains,
)
from .reference import reference_fading_samples

__all__ = [
    "FadingLike",
    "FadingModel",
    "FadingSpec",
    "FadingStacks",
    "apply_fading_block",
    "build_fading_stacks",
    "coerce_fading",
    "get_fading_model",
    "shadowing_gains",
    "reference_fading_samples",
]
