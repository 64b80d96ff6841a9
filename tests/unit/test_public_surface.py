"""Every public top-level definition in ``repro`` has a referrer that ships.

A public (no leading underscore) top-level ``def`` or ``class`` under
``src/repro`` must be reached from code outside ``tests/`` and
``benchmarks/``: the package itself, ``examples/``, ``perfbench/`` or an
entry point in ``pyproject.toml``.  A definition that nothing ships with
reaches is either deleted with its tests or listed in
:data:`PUBLIC_SURFACE` with the reason it stays.

Reach is transitive and by name: module-level code, the examples, perfbench
and the table entries are the roots; a definition is reached when a reached
definition (or a root) names it, as an identifier, an attribute, or a
``"module:attr"`` string such as perfbench's probe targets.  Docstrings,
``__all__`` and imports (package re-exports) are not referrers.  A
definition carrying a decorator the package defines (``@register_rule``)
counts as reached, because the decorator registers it.  Matching by name is
conservative: a dead definition that shares a name with a live one passes.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Set, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
SHIPPED_DIRS = ("examples", "perfbench")

#: Public definitions that stay without a shipped referrer, by module.
PUBLIC_SURFACE: Dict[str, Dict[str, str]] = {
    "core/covariance.py": {
        "covariance_entry": "inverse of decompose_covariance_entry; the "
        "covariance-spec property suite round-trips through it",
    },
    "core/envelope_correlation.py": {
        "envelope_correlation_approximation": "the |rho_g|^2 approximation the "
        "envelope-correlation property suite bounds the exact map against",
    },
    "core/variance.py": {
        "rayleigh_moments": "analytic target of the planned statistical "
        "acceptance tests (ROADMAP item 11)",
        "rician_moments": "analytic target of the planned statistical "
        "acceptance tests (ROADMAP item 11)",
    },
    "engine/backends.py": {
        "available_backends": "backend discovery; the --backend help and the "
        "README point users to it",
    },
    "signal/levels.py": {
        "level_crossing_rate": "empirical LCR for ROADMAP item 11",
        "average_fade_duration": "empirical AFD for ROADMAP item 11",
        "theoretical_lcr": "analytic LCR target for ROADMAP item 11",
        "theoretical_afd": "analytic AFD target for ROADMAP item 11",
    },
    "validation/empirical.py": {
        "empirical_correlation_coefficients": "oracle the tests check "
        "generated correlation coefficients against",
    },
}

_ENTRY_POINT = re.compile(r"^[A-Za-z_][\w.]*:([A-Za-z_][\w.]*)$")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree: ast.AST) -> Set[int]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module,) + _DEFINITIONS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _names(node: ast.AST, docstrings: Set[int]) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and id(sub) not in docstrings
        ):
            match = _ENTRY_POINT.match(sub.value)
            if match:
                yield from match.group(1).split(".")


def _assigned_name(stmt: ast.stmt) -> str:
    """The single name a top-level assignment binds, or ``""``."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign):
        target = stmt.target
    else:
        return ""
    return target.id if isinstance(target, ast.Name) else ""


def _scan(package: Path):
    """``(definitions, edges, roots)`` of every module under ``package``."""
    modules = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf8"), filename=str(path))
        modules.append((path.relative_to(package).as_posix(), tree))
    package_functions = {
        stmt.name
        for _, tree in modules
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    definitions: List[Tuple[str, int, str]] = []
    edges: Dict[str, Set[str]] = {}
    roots: Set[str] = set()
    for relative, tree in modules:
        docstrings = _docstrings(tree)
        for stmt in tree.body:
            name = _assigned_name(stmt)
            if isinstance(stmt, _DEFINITIONS):
                name = stmt.name
                definitions.append((relative, stmt.lineno, name))
                decorators = {d.id for d in stmt.decorator_list if isinstance(d, ast.Name)}
                if decorators & package_functions:
                    roots.add(name)
            elif name == "__all__" or isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            elif not name:
                roots.update(_names(stmt, docstrings))
                continue
            edges.setdefault(name, set()).update(
                other for other in _names(stmt, docstrings) if other != name
            )
    return definitions, edges, roots


def _shipped_roots(repo: Path) -> Set[str]:
    roots: Set[str] = set()
    for directory in SHIPPED_DIRS:
        for path in sorted((repo / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf8"), filename=str(path))
            roots.update(_names(tree, _docstrings(tree)))
    pyproject = repo / "pyproject.toml"
    if pyproject.is_file():
        for target in re.findall(r'"([\w.]+:[\w.]+)"', pyproject.read_text(encoding="utf8")):
            roots.update(target.partition(":")[2].split("."))
    return roots


def _reach(roots: Iterable[str], edges: Mapping[str, Set[str]]) -> Set[str]:
    reached: Set[str] = set()
    pending = list(roots)
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending.extend(edges.get(name, ()))
    return reached


def surface_findings(
    package: Path, repo: Path, table: Mapping[str, Mapping[str, str]]
) -> List[str]:
    """Unreached public definitions, then stale table entries."""
    definitions, edges, roots = _scan(package)
    roots |= _shipped_roots(repo)
    public = [(m, line, name) for m, line, name in definitions if not name.startswith("_")]
    listed = {(module, name) for module, names in table.items() for name in names}
    reached_alone = _reach(roots, edges)
    reached = _reach(roots | {name for _, name in listed}, edges)
    findings = [
        f"{module}:{line}: {name} has no referrer outside tests/ and benchmarks/"
        for module, line, name in public
        if name not in reached
    ]
    defined = {(module, name) for module, _, name in public}
    for module, name in sorted(listed):
        if (module, name) not in defined:
            findings.append(f"{module}: {name} is listed but not defined there")
        elif name in reached_alone:
            findings.append(f"{module}: {name} is listed but has a referrer; unlist it")
    return findings


@lru_cache(maxsize=1)
def _names_the_other_tests_use() -> Set[str]:
    names: Set[str] = set()
    for path in sorted((REPO_ROOT / "tests").rglob("*.py")):
        if path.resolve() != Path(__file__).resolve():
            tree = ast.parse(path.read_text(encoding="utf8"), filename=str(path))
            names.update(_names(tree, _docstrings(tree)))
    return names


def test_every_public_definition_has_a_shipped_referrer():
    assert surface_findings(PACKAGE_ROOT, REPO_ROOT, PUBLIC_SURFACE) == []


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in sorted(PUBLIC_SURFACE.items()) for name in names],
)
def test_every_listed_definition_is_used_by_a_test(module, name):
    """A table entry stays because a test calls it; once none does, it is dead."""
    assert name in _names_the_other_tests_use(), (
        f"{module}: {name} is listed but no test uses it; delete it and unlist it"
    )


def test_the_guard_sees_test_only_definitions(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("from pkg.api import run\nrun()\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "probes.py").write_text('TARGETS = ["pkg.api:Probed.call"]\n')
    (tmp_path / "pyproject.toml").write_text('[project.scripts]\ntool = "pkg.cli:main"\n')
    (package / "__init__.py").write_text(
        '"""pkg.api:dead_doc"""\n'
        "from .api import run, dead_export\n"
        '__all__ = ["run", "dead_export", "dead_all"]\n'
    )
    (package / "cli.py").write_text("def main():\n    return 0\n")
    (package / "api.py").write_text(
        "from .reg import register\n"
        "def run():\n    return _helper() + used_by_helper()\n"
        "def _helper():\n    return 1\n"
        "def used_by_helper():\n    return 2\n"
        "def dead_export():\n    return only_dead_calls_me()\n"
        "def only_dead_calls_me():\n    return 3\n"
        "def dead_doc():\n    '''Mentions run() in prose only.'''\n"
        "def dead_all():\n    return dead_all()\n"
        "def kept():\n    return 4\n"
        "def stale():\n    return run()\n"
        "@register\nclass Registered:\n    pass\n"
        "class Probed:\n    def call(self):\n        return _helper()\n"
    )
    (package / "reg.py").write_text("def register(cls):\n    return cls\n")
    table = {
        "api.py": {"kept": "tested target", "run": "reached anyway"},
        "cli.py": {"gone": "deleted since"},
    }
    assert surface_findings(package, tmp_path, table) == [
        "api.py:8: dead_export has no referrer outside tests/ and benchmarks/",
        "api.py:10: only_dead_calls_me has no referrer outside tests/ and benchmarks/",
        "api.py:12: dead_doc has no referrer outside tests/ and benchmarks/",
        "api.py:14: dead_all has no referrer outside tests/ and benchmarks/",
        "api.py:18: stale has no referrer outside tests/ and benchmarks/",
        "api.py: run is listed but has a referrer; unlist it",
        "cli.py: gone is listed but not defined there",
    ]
