"""``repro.analysis`` — reprolint, the project-invariant static analyzer.

An AST-based, zero-dependency lint framework enforcing the invariants
that the property-test suites can only sample dynamically:

* ``lock-discipline`` — state written under a lock is never accessed
  without it (:mod:`repro.analysis.lock_discipline`);
* ``hot-path-allocation`` — no allocating numpy constructors in the
  fused execute kernels (:mod:`repro.analysis.hot_path`);
* ``cache-key-purity`` — content-hash builders stay deterministic
  (:mod:`repro.analysis.key_purity`).

Run it with ``python -m repro.analysis`` or ``repro-experiments lint``;
the committed tree lints clean, and ``tests/unit/test_analysis_selfcheck.py``
keeps it that way in tier 1.  Suppression and marker directives are
documented in :mod:`repro.analysis.framework` and docs/ARCHITECTURE.md
("Static guarantees").
"""

from .framework import (
    AnalysisError,
    Finding,
    LintReport,
    ModuleInfo,
    Project,
    Rule,
    all_rules,
    load_project,
    register_rule,
    resolve_rules,
    run_lint,
)

# Importing the rule modules registers them.
from . import hot_path, key_purity, lock_discipline  # noqa: F401
from .cli import build_parser, main

__all__ = [
    "AnalysisError",
    "Finding",
    "LintReport",
    "ModuleInfo",
    "Project",
    "Rule",
    "all_rules",
    "build_parser",
    "load_project",
    "main",
    "register_rule",
    "resolve_rules",
    "run_lint",
]
