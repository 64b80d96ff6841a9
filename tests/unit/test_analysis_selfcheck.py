"""Tier-1 self-check: the committed tree lints clean under every rule.

This is the standing static gate: any PR that introduces an unguarded
read of lock-protected state, an allocating constructor in the fused
execute path, or an impure cache-key reference fails here — before the
(sampled, dynamic) property suites would ever catch it.  Deliberate exceptions are visible in the diff as
``# reprolint:`` directives (see docs/ARCHITECTURE.md, "Static
guarantees").
"""

from pathlib import Path

import repro
from repro.analysis import all_rules, run_lint

PACKAGE_DIR = Path(repro.__file__).resolve().parent

EXPECTED_RULES = {
    "lock-discipline",
    "hot-path-allocation",
    "cache-key-purity",
}


def test_all_three_rule_families_are_registered():
    assert {rule.name for rule in all_rules()} >= EXPECTED_RULES


def test_source_tree_lints_clean():
    report = run_lint([PACKAGE_DIR])
    rendered = "\n".join(finding.format() for finding in report.findings)
    assert report.clean, f"reprolint findings on the committed tree:\n{rendered}"
    assert set(report.rules) >= EXPECTED_RULES
    # The whole package was actually scanned, not an empty directory.
    assert report.files > 50


def test_hot_modules_are_marked():
    """The allocation rule only bites while the hot markers stay present."""
    from repro.analysis.framework import ModuleInfo

    execute = PACKAGE_DIR / "engine" / "execute.py"
    module = ModuleInfo(
        execute, str(execute), execute.read_text(encoding="utf8")
    )
    assert module.hot_module

    idft = PACKAGE_DIR / "channels" / "idft_generator.py"
    module = ModuleInfo(idft, str(idft), idft.read_text(encoding="utf8"))
    assert module.hot_path_lines, "batched_doppler_blocks lost its hot-path marker"

    serving_core = PACKAGE_DIR / "service" / "core.py"
    module = ModuleInfo(
        serving_core, str(serving_core), serving_core.read_text(encoding="utf8")
    )
    assert module.hot_module, "the serving core lost its hot-module marker"


#: A lock-written attribute read outside the lock, behind a suppression.
_ADVISORY_READ_MODULE = """
import threading


class Store:
    def __init__(self):
        self._lock = threading.Lock()
        self._dir = None

    def attach(self, path):
        with self._lock:
            self._dir = path

    @property
    def attached(self):
        # reprolint: disable=lock-discipline (advisory read)
        return self._dir is not None
"""


def test_lock_guarded_modules_produce_findings_when_unsuppressed(tmp_path):
    """An advisory lock-free read is a *suppressed* finding.

    Guards against the rule silently losing its teeth: stripping the
    suppression directive must re-surface the unguarded read of ``_dir``.
    """
    path = tmp_path / "store.py"
    path.write_text(_ADVISORY_READ_MODULE, encoding="utf8")
    assert run_lint([path], ["lock-discipline"]).clean

    path.write_text(
        _ADVISORY_READ_MODULE.replace("# reprolint:", "# stripped:"), encoding="utf8"
    )
    findings = run_lint([path], ["lock-discipline"]).findings
    assert any("_dir" in finding.message for finding in findings)
