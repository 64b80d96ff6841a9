"""Rule ``cache-key-purity`` — content-hash builders must be deterministic.

The cache keys (``decomposition_cache_key``, ``compiled_plan_cache_key``,
``PlanEntry.cache_key``, ``DopplerSpec.filter_key``, the filter-cache
``_key_hash``) are pure functions of *content*: the same covariance
matrices, tolerances, and Doppler parameters must hash to the same key on
every host and every run.  Seeds and labels are deliberately excluded
(execution re-binds them); wall-clock time, RNG state, and environment
variables must never leak in — at multi-host scale an impure key silently
splits (or worse, aliases) cache entries.

The rule builds a project-wide call graph from the key-builder roots
(functions named like the builders above) and flags any reachable
function that references ``seed(s)`` / ``label(s)`` identifiers,
``time.*``, ``random`` / ``np.random``, or ``os.environ``.  Call edges
resolve by name: plain calls to project top-level functions, and
attribute calls to project method names that are not ubiquitous builtin
names (``.get``, ``.update``, ...) — an over-approximation, which for a
gate is the safe direction (see docs/ARCHITECTURE.md, "Static
guarantees").
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple, Union

from .framework import Finding, ModuleInfo, Project, Rule, register_rule

__all__ = ["CacheKeyPurityRule", "ROOT_NAMES"]

#: Function/method names treated as cache-key builders (reachability roots).
ROOT_NAMES = frozenset(
    {
        "decomposition_cache_key",
        "compiled_plan_cache_key",
        "cache_key",
        "filter_key",
        "fading_token",
        "_key_hash",
    }
)

_FORBIDDEN_IDENTIFIERS = frozenset({"seed", "seeds", "label", "labels"})

#: Attribute names that are ubiquitous on builtins — never resolved as
#: project method calls (keeps ``memo.get`` from dragging in every
#: project class that happens to define ``get``).
_BUILTIN_ATTRS = frozenset(
    set(dir(dict))
    | set(dir(list))
    | set(dir(set))
    | set(dir(str))
    | set(dir(bytes))
    | set(dir(tuple))
    | set(dir(frozenset))
)

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


class _FunctionIndex:
    """Project-wide name → function-node index for call-graph edges."""

    def __init__(self, project: Project) -> None:
        #: module-top-level functions by name
        self.functions: Dict[str, List[Tuple[ModuleInfo, _FunctionNode, str]]] = {}
        #: class methods by bare method name
        self.methods: Dict[str, List[Tuple[ModuleInfo, _FunctionNode, str]]] = {}
        for module in project.modules:
            for statement in module.tree.body:
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.functions.setdefault(statement.name, []).append(
                        (module, statement, statement.name)
                    )
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualname = f"{node.name}.{item.name}"
                        self.methods.setdefault(item.name, []).append(
                            (module, item, qualname)
                        )

    def roots(self) -> List[Tuple[ModuleInfo, _FunctionNode, str]]:
        found = []
        for name in sorted(ROOT_NAMES):
            found.extend(self.functions.get(name, ()))
            found.extend(self.methods.get(name, ()))
        return found

    def resolve_call(
        self, call: ast.Call
    ) -> List[Tuple[ModuleInfo, _FunctionNode, str]]:
        func = call.func
        if isinstance(func, ast.Name):
            return list(self.functions.get(func.id, ()))
        if isinstance(func, ast.Attribute) and func.attr not in _BUILTIN_ATTRS:
            targets = list(self.functions.get(func.attr, ()))
            targets.extend(self.methods.get(func.attr, ()))
            return targets
        return []


@register_rule
class CacheKeyPurityRule(Rule):
    name = "cache-key-purity"
    description = (
        "functions reachable from cache-key builders must not touch "
        "seeds, labels, time, random state, or the environment"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        index = _FunctionIndex(project)
        #: function node id -> (module, node, qualname, root qualname)
        reachable: Dict[int, Tuple[ModuleInfo, _FunctionNode, str, str]] = {}
        queue: List[Tuple[ModuleInfo, _FunctionNode, str, str]] = [
            (module, node, qualname, qualname)
            for module, node, qualname in index.roots()
        ]
        while queue:
            module, node, qualname, root = queue.pop()
            if id(node) in reachable:
                continue
            reachable[id(node)] = (module, node, qualname, root)
            for child in ast.walk(node):
                if isinstance(child, ast.Call):
                    for target in index.resolve_call(child):
                        if id(target[1]) not in reachable:
                            queue.append((*target, root))

        for module, node, qualname, root in sorted(
            reachable.values(), key=lambda item: (item[0].display_path, item[1].lineno)
        ):
            yield from self._check_function(module, node, qualname, root)

    def _check_function(
        self, module: ModuleInfo, node: _FunctionNode, qualname: str, root: str
    ) -> Iterator[Finding]:
        def finding(at: ast.AST, reference: str) -> Finding:
            via = "" if qualname == root else f" (reachable from '{root}')"
            return Finding(
                rule=self.name,
                path=module.display_path,
                line=at.lineno,
                col=at.col_offset,
                message=(
                    f"cache-key builder '{qualname}'{via} references "
                    f"'{reference}' — keys must be pure functions of content "
                    f"(no seeds/labels/time/random/environment)"
                ),
            )

        for arg in (
            *node.args.posonlyargs,
            *node.args.args,
            *node.args.kwonlyargs,
        ):
            if arg.arg in _FORBIDDEN_IDENTIFIERS:
                yield finding(arg, arg.arg)

        for child in ast.walk(node):
            if isinstance(child, ast.Attribute):
                if child.attr in _FORBIDDEN_IDENTIFIERS:
                    yield finding(child, f".{child.attr}")
                elif child.attr == "environ":
                    yield finding(child, "os.environ")
                elif child.attr == "random":
                    yield finding(child, "np.random")
                elif isinstance(child.value, ast.Name) and child.value.id == "time":
                    yield finding(child, f"time.{child.attr}")
            elif isinstance(child, ast.Name):
                if child.id in _FORBIDDEN_IDENTIFIERS or child.id == "random":
                    yield finding(child, child.id)
