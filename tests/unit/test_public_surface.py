"""Every public definition, member and keyword in ``repro`` is reached by shipped code.

Shipped code is what lies outside ``tests/`` and ``benchmarks/``: the
package itself, ``examples/``, ``perfbench/`` and the entry points in
``pyproject.toml``.  The guard checks three kinds of public (no leading
underscore) surface under ``src/repro``:

* top-level ``def``, ``class`` and single-name assignments (a constant or an
  alias);
* methods and properties of the package's classes;
* keyword-only parameters with a default, of public functions, public
  methods and public classes' ``__init__``.

Each must be reached by shipped code, or be listed in :data:`PUBLIC_SURFACE`
with the reason it stays; otherwise it is deleted with its tests.

Definitions and members are reached by name, transitively: module-level
code, the examples, perfbench and the table entries are the roots, and a
definition is reached when a reached definition (or a root) names it, as an
identifier, an attribute, a ``"module:attr"`` string such as perfbench's
probe targets, or the string literal a ``getattr``/``hasattr``/``setattr``
call reads.  A class being reached does not reach its public methods; each is
reached by its own name.  A definition carrying a decorator the package
defines (``@register_rule``) counts as reached, because the decorator
registers it, and so does a ``visit_*`` method of an ``ast.NodeVisitor``,
which the visitor dispatches to.  Docstrings, ``__all__`` and imports
(package re-exports) are not referrers.  Matching by name is conservative: a
dead definition that shares a name with a live one passes.

A keyword-only parameter is reached when a shipped call to its callee (by
name) passes the keyword or forwards ``**kwargs``.  A class's callee names
are its own and those of subclasses without an ``__init__``;
``super().__init__(...)`` calls the base classes and ``cls(...)`` the class
it is written in.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Collection, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
SHIPPED_DIRS = ("examples", "perfbench")

_ENGINE_SUITE = "the batch-equals-loop property suite (test_property_engine.py) sets it"
_DISK_TIER = "part of the plan cache's disk tier, which ROADMAP item 8 deletes whole"

#: Public surface that stays without a shipped referrer, by module: a
#: definition by name, a member as ``Class.member`` and a keyword-only
#: parameter as ``callee(keyword=)``.
PUBLIC_SURFACE: Dict[str, Dict[str, str]] = {
    "core/covariance.py": {
        "covariance_entry": "inverse of decompose_covariance_entry; the "
        "covariance-spec property suite round-trips through it",
    },
    "core/envelope_correlation.py": {
        "envelope_correlation_approximation": "the |rho_g|^2 approximation the "
        "envelope-correlation property suite bounds the exact map against",
    },
    "core/generator.py": {
        "RayleighFadingGenerator(coloring_method=)": _ENGINE_SUITE,
        "RayleighFadingGenerator(psd_method=)": _ENGINE_SUITE,
    },
    "core/variance.py": {
        "gaussian_power_to_envelope_power": "the variance property suite "
        "round-trips Eq. (15) through it",
        "rayleigh_moments": "analytic target of the planned statistical "
        "acceptance tests (ROADMAP item 11)",
        "rician_moments": "analytic target of the planned statistical "
        "acceptance tests (ROADMAP item 11)",
    },
    "engine/compile.py": {
        "CompiledPlan.decomposition_for": "the cache-persistence property "
        "suite reads a repaired entry's decomposition through it",
    },
    "engine/execute.py": {
        "execute_plan(measure_allocation=)": "the CI execute-memory gate "
        "(benchmarks/bench_execute_memory.py) sets it",
    },
    "engine/plan.py": {
        "SimulationPlan.from_specs(seeds=)": _ENGINE_SUITE,
        "SimulationPlan.from_specs(coloring_method=)": _ENGINE_SUITE,
        "SimulationPlan.from_specs(psd_method=)": _ENGINE_SUITE,
    },
    "engine/plancache.py": {
        "CompiledPlanCache.artifact_store": _DISK_TIER,
        "CompiledPlanCache(disk_max_bytes=)": _DISK_TIER,
    },
    "engine/store.py": {
        "ArtifactStore.evict_pass": _DISK_TIER,
    },
    "engine/tiered.py": {
        "TierStats.memory_hits": "shard/worker.py reads it with getattr by a "
        "name in _TIER_COUNTERS, a string tuple the guard does not follow",
    },
    "experiments/paper_values.py": {
        "KM_EXPECTED": "the paper's stated k_m = 204; a test checks that the "
        "Doppler parameters reproduce it",
    },
    "service/core.py": {
        "EnvelopeService.queue_depth": "the service property suite checks the "
        "queue drains through it",
        "EnvelopeService.submit(coalesce=)": "the service property suite "
        "compares coalesced and solo responses through it",
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
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = _FUNCTIONS + (ast.ClassDef,)
_REFLECTION = ("getattr", "hasattr", "setattr")
#: Method-name prefix a standard-library base class dispatches to, by base name.
_DISPATCH = {"NodeVisitor": "visit_"}

#: ``(module, line, key, name)`` of a definition or member, reached by ``name``.
Definition = Tuple[str, int, str, str]
#: ``(module, line, key, callees, keyword)`` of a keyword-only parameter.
Parameter = Tuple[str, int, str, Tuple[str, ...], str]


def _docstrings(tree: ast.AST) -> Set[int]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module,) + _DEFINITIONS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _walk(node: ast.AST, skip: Collection[ast.AST] = ()) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into the nodes in ``skip``."""
    pending = [node]
    while pending:
        sub = pending.pop()
        yield sub
        pending.extend(child for child in ast.iter_child_nodes(sub) if child not in skip)


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else ""


def _base_name(base: ast.expr) -> str:
    if isinstance(base, ast.Subscript):
        base = base.value
    if isinstance(base, ast.Name):
        return base.id
    return base.attr if isinstance(base, ast.Attribute) else ""


def _names(
    node: ast.AST, docstrings: Set[int], skip: Collection[ast.AST] = ()
) -> Iterator[str]:
    for sub in _walk(node, skip):
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
        elif isinstance(sub, ast.Call) and _callee(sub) in _REFLECTION and len(sub.args) > 1:
            attribute = sub.args[1]
            if isinstance(attribute, ast.Constant) and isinstance(attribute.value, str):
                yield attribute.value


def _passed_keywords(tree: ast.AST) -> Set[Tuple[str, Optional[str]]]:
    """``(callee, keyword)`` of every keyword a call passes, ``None`` for ``**``.

    ``super().__init__(...)`` calls each base class and ``cls(...)`` the class
    it is written in.
    """
    passed: Set[Tuple[str, Optional[str]]] = set()

    def visit(node: ast.AST, bases: List[str], own: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, [_base_name(base) for base in child.bases], child.name)
                continue
            if isinstance(child, ast.Call):
                callees = [_callee(child)]
                func = child.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "__init__"
                    and isinstance(func.value, ast.Call)
                    and _callee(func.value) == "super"
                ):
                    callees = bases
                elif callees == ["cls"]:
                    callees = [own]
                passed.update((callee, kw.arg) for callee in callees for kw in child.keywords)
            visit(child, bases, own)

    visit(tree, [], "")
    return passed


def _keyword_only(
    relative: str, function: ast.AST, callee: str, shown: str
) -> Iterator[Parameter]:
    arguments = function.args
    for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
        if default is not None:
            key = f"{shown}({argument.arg}=)"
            yield relative, argument.lineno, key, (callee,), argument.arg


def _assigned_name(stmt: ast.stmt) -> str:
    """The single name a top-level assignment binds, or ``""``."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign):
        target = stmt.target
    else:
        return ""
    return target.id if isinstance(target, ast.Name) else ""


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf8"), filename=str(path))


def _scan(package: Path):
    """``(definitions, parameters, edges, roots, passed)`` of ``package``.

    ``edges`` maps a name to the names its definitions mention.  A class's
    public methods and properties are nodes of their own, so a class being
    reached does not reach them; its other members belong to the class.
    """
    modules = [
        (path.relative_to(package).as_posix(), _parse(path))
        for path in sorted(package.rglob("*.py"))
    ]
    package_functions = {
        stmt.name for _, tree in modules for stmt in tree.body if isinstance(stmt, _FUNCTIONS)
    }
    definitions: List[Definition] = []
    parameters: List[Parameter] = []
    edges: Dict[str, Set[str]] = {}
    roots: Set[str] = set()
    passed: Set[Tuple[str, Optional[str]]] = set()
    bases: Dict[str, List[str]] = {}
    initialised: Set[str] = set()
    for relative, tree in modules:
        docstrings = _docstrings(tree)
        passed |= _passed_keywords(tree)
        for stmt in tree.body:
            name = _assigned_name(stmt)
            members: List[ast.AST] = []
            if isinstance(stmt, _DEFINITIONS):
                name = stmt.name
                definitions.append((relative, stmt.lineno, name, name))
                decorators = {d.id for d in stmt.decorator_list if isinstance(d, ast.Name)}
                if decorators & package_functions:
                    roots.add(name)
            elif name == "__all__" or isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            elif not name:
                roots.update(_names(stmt, docstrings))
                continue
            else:
                definitions.append((relative, stmt.lineno, name, name))
            if isinstance(stmt, _FUNCTIONS) and not name.startswith("_"):
                parameters.extend(_keyword_only(relative, stmt, name, name))
            if isinstance(stmt, ast.ClassDef):
                bases[name] = [_base_name(base) for base in stmt.bases]
                dispatch = [_DISPATCH[base] for base in bases[name] if base in _DISPATCH]
                methods = [m for m in stmt.body if isinstance(m, _FUNCTIONS)]
                for init in (m for m in methods if m.name == "__init__"):
                    initialised.add(name)
                    if not name.startswith("_"):
                        parameters.extend(_keyword_only(relative, init, name, name))
                members = [m for m in methods if not m.name.startswith("_")]
                seen: Set[str] = set()
                for member in members:
                    edges.setdefault(member.name, set()).update(_names(member, docstrings))
                    if member.name in seen:  # a property's setter
                        continue
                    seen.add(member.name)
                    qualified = f"{name}.{member.name}"
                    definitions.append((relative, member.lineno, qualified, member.name))
                    parameters.extend(_keyword_only(relative, member, member.name, qualified))
                    if any(member.name.startswith(prefix) for prefix in dispatch):
                        roots.add(member.name)
            edges.setdefault(name, set()).update(
                other for other in _names(stmt, docstrings, members) if other != name
            )
    # A subclass without its own ``__init__`` is a call to its base's.
    inheritors = {name: [name] for name in initialised}
    for name, callees in inheritors.items():
        for callee in callees:
            callees.extend(
                sub for sub, of in bases.items() if callee in of and sub not in initialised
            )
    parameters = [
        (module, line, key, tuple(inheritors.get(callees[0], callees)), keyword)
        for module, line, key, callees, keyword in parameters
    ]
    return definitions, parameters, edges, roots, passed


def _shipped(repo: Path) -> Tuple[Set[str], Set[Tuple[str, Optional[str]]]]:
    """Names the shipped directories and entry points mention, and keywords they pass."""
    roots: Set[str] = set()
    passed: Set[Tuple[str, Optional[str]]] = set()
    for directory in SHIPPED_DIRS:
        for path in sorted((repo / directory).rglob("*.py")):
            tree = _parse(path)
            roots.update(_names(tree, _docstrings(tree)))
            passed |= _passed_keywords(tree)
    pyproject = repo / "pyproject.toml"
    if pyproject.is_file():
        for target in re.findall(r'"([\w.]+:[\w.]+)"', pyproject.read_text(encoding="utf8")):
            roots.update(target.partition(":")[2].split("."))
    return roots, passed


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
    """Unreached definitions and unpassed parameters, then stale table entries."""
    definitions, parameters, edges, roots, passed = _scan(package)
    shipped_roots, shipped_passed = _shipped(repo)
    roots |= shipped_roots
    passed |= shipped_passed
    listed = {(module, key) for module, keys in table.items() for key in keys}
    public = [entry for entry in definitions if not entry[3].startswith("_")]
    reached_alone = _reach(roots, edges)
    reached = _reach(roots | {name for m, _, key, name in public if (m, key) in listed}, edges)

    def is_passed(callees: Tuple[str, ...], keyword: str) -> bool:
        return any((callee, keyword) in passed or (callee, None) in passed for callee in callees)

    findings = [
        f"{module}:{line}: {key} has no referrer outside tests/ and benchmarks/"
        for module, line, key, name in public
        if name not in reached
    ]
    findings += [
        f"{module}:{line}: {key} is never passed outside tests/ and benchmarks/"
        for module, line, key, callees, keyword in parameters
        if callees[0] in reached and (module, key) not in listed and not is_passed(callees, keyword)
    ]
    referred = {(m, key) for m, _, key, name in public if name in reached_alone}
    referred |= {(m, key) for m, _, key, callees, kw in parameters if is_passed(callees, kw)}
    defined = {(m, key) for m, _, key, _ in public} | {(m, key) for m, _, key, *_ in parameters}
    for module, key in sorted(listed):
        if (module, key) not in defined:
            findings.append(f"{module}: {key} is listed but not defined there")
        elif (module, key) in referred:
            findings.append(f"{module}: {key} is listed but has a referrer; unlist it")
    return findings


@lru_cache(maxsize=1)
def _what_the_other_tests_use() -> Tuple[Set[str], Set[Tuple[str, Optional[str]]]]:
    """Names the other tests and benchmarks mention, and the keywords they pass."""
    names: Set[str] = set()
    passed: Set[Tuple[str, Optional[str]]] = set()
    paths = [*(REPO_ROOT / "tests").rglob("*.py"), *(REPO_ROOT / "benchmarks").rglob("*.py")]
    for path in sorted(paths):
        if path.resolve() != Path(__file__).resolve():
            tree = _parse(path)
            names.update(_names(tree, _docstrings(tree)))
            passed |= _passed_keywords(tree)
    return names, passed


def test_every_public_definition_has_a_shipped_referrer():
    assert surface_findings(PACKAGE_ROOT, REPO_ROOT, PUBLIC_SURFACE) == []


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in sorted(PUBLIC_SURFACE.items()) for name in names],
)
def test_every_listed_definition_is_used_by_a_test(module, name):
    """A table entry stays because a test uses it; once none does, it is dead."""
    names, passed = _what_the_other_tests_use()
    callee, _, keyword = name.partition("(")
    callee = callee.rpartition(".")[2]
    if keyword:
        used = {(callee, keyword[: -len("=)")]), (callee, None)} & passed
    else:
        used = callee in names
    assert used, f"{module}: {name} is listed but no test uses it; delete it and unlist it"


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
    (package / "cli.py").write_text("def main():\n    return LIVE_CONSTANT\n")
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
        "DEAD_CONSTANT = 5\n"
        "LIVE_CONSTANT: int = 6\n"
        "_PRIVATE = 7\n"
        "PAIR_A, PAIR_B = 1, 2\n"
    )
    (package / "reg.py").write_text("def register(cls):\n    return cls\n")
    (package / "members.py").write_text(
        "import ast\n"
        "class Base:\n"
        "    def __init__(self, *, level=0, inherited=0, dead_level=0):\n"
        "        self.level = level\n"
        "class Child(Base):\n"
        "    def __init__(self):\n"
        "        super().__init__(level=1)\n"
        "class Quiet(Base):\n"
        "    pass\n"
        "class Shape:\n"
        "    def area(self):\n        return 1\n"
        "    def dead_method(self):\n        return only_dead_members_call_me()\n"
        "    def by_name(self):\n        return 3\n"
        "    @property\n    def dead_property(self):\n        return 4\n"
        "    def scaled(self, *, factor=1, dead_knob=2, listed_knob=3):\n"
        "        return factor\n"
        "class Visitor(ast.NodeVisitor):\n"
        "    def visit_Name(self, node):\n        return node\n"
        "    def dead_helper(self):\n        return 5\n"
        "def only_dead_members_call_me():\n    return 6\n"
        "def forwarded(*, knob=1):\n    return knob\n"
        "def configure(**options):\n    return forwarded(**options)\n"
        "SHAPE = Shape()\n"
        "SHAPE.scaled(factor=SHAPE.area())\n"
        'getattr(SHAPE, "by_name")()\n'
        'Visitor().visit(ast.parse("x"))\n'
        "configure()\n"
        "print(Child(), Quiet(inherited=2))\n"
    )
    table = {
        "api.py": {"kept": "tested target", "run": "reached anyway"},
        "cli.py": {"gone": "deleted since"},
        "members.py": {
            "Shape.scaled(listed_knob=)": "tested knob",
            "Shape.gone": "deleted since",
            "forwarded(knob=)": "reached through **options",
        },
    }
    assert surface_findings(package, tmp_path, table) == [
        "api.py:8: dead_export has no referrer outside tests/ and benchmarks/",
        "api.py:10: only_dead_calls_me has no referrer outside tests/ and benchmarks/",
        "api.py:12: dead_doc has no referrer outside tests/ and benchmarks/",
        "api.py:14: dead_all has no referrer outside tests/ and benchmarks/",
        "api.py:18: stale has no referrer outside tests/ and benchmarks/",
        "api.py:26: DEAD_CONSTANT has no referrer outside tests/ and benchmarks/",
        "members.py:13: Shape.dead_method has no referrer outside tests/ and benchmarks/",
        "members.py:18: Shape.dead_property has no referrer outside tests/ and benchmarks/",
        "members.py:25: Visitor.dead_helper has no referrer outside tests/ and benchmarks/",
        "members.py:27: only_dead_members_call_me has no referrer outside tests/ and benchmarks/",
        "members.py:3: Base(dead_level=) is never passed outside tests/ and benchmarks/",
        "members.py:20: Shape.scaled(dead_knob=) is never passed outside tests/ and benchmarks/",
        "api.py: run is listed but has a referrer; unlist it",
        "cli.py: gone is listed but not defined there",
        "members.py: Shape.gone is listed but not defined there",
        "members.py: forwarded(knob=) is listed but has a referrer; unlist it",
    ]
