"""``repro.shard`` is the package's one multiprocess path.

Every other module runs in-process (``Simulator.run`` included), so no
module outside ``repro/shard/`` may import a process-spawning API:
``subprocess``, ``multiprocessing`` or ``ProcessPoolExecutor``.  The check
walks the sources with :mod:`ast`, so it sees lazy imports inside
functions too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
SPAWNING_MODULES = ("subprocess", "multiprocessing", "concurrent.futures.process")
SPAWNING_NAMES = ("ProcessPoolExecutor",)


def _spawning_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules, names = [alias.name for alias in node.names], []
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules, names = [node.module], [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            modules, names = [], [node.attr]
        else:
            continue
        for module in modules:
            if any(module == root or module.startswith(root + ".") for root in SPAWNING_MODULES):
                yield node.lineno, module
        for name in names:
            if name in SPAWNING_NAMES:
                yield node.lineno, name


def _offenders(root: Path):
    found = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative.parts[0] == "shard":
            continue
        tree = ast.parse(path.read_text(encoding="utf8"), filename=str(path))
        found.extend(f"{relative}:{line}: {what}" for line, what in sorted(_spawning_imports(tree)))
    return found


def test_only_repro_shard_starts_processes():
    assert _offenders(PACKAGE_ROOT) == []


def test_the_guard_sees_every_spelling(tmp_path):
    (tmp_path / "shard").mkdir()
    (tmp_path / "shard" / "runner.py").write_text("import subprocess\n")
    (tmp_path / "ok.py").write_text("from concurrent.futures import ThreadPoolExecutor\n")
    (tmp_path / "bad.py").write_text(
        "import subprocess\n"
        "import multiprocessing.pool\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from concurrent.futures.process import BrokenProcessPool\n"
        "import concurrent.futures\n"
        "def lazy():\n"
        "    from multiprocessing import get_context\n"
        "    return concurrent.futures.ProcessPoolExecutor\n"
    )
    assert [entry.split(": ")[0] for entry in _offenders(tmp_path)] == [
        f"bad.py:{line}" for line in (1, 2, 3, 4, 7, 8)
    ]
