"""Rule ``lock-discipline`` — a lightweight static race detector.

Two symbol spaces are checked, matching how the library guards shared
state (see docs/ARCHITECTURE.md, "Static guarantees"):

* **Instance attributes.**  Within a class, any ``self.<attr>`` that is
  ever *written* while holding ``with self.<lock>:`` (lock attributes are
  names ending in ``lock``, e.g. ``_lock`` / ``_memory_lock`` /
  ``_pool_lock``) is lock-guarded: every other read or write of it in that
  class must also hold the lock.  ``__init__``-family methods are
  construction-time and exempt; methods named ``*_locked`` are treated as
  called-with-lock-held (the codebase convention).

* **Module globals.**  Names written inside ``with <LOCK>:`` blocks of
  module functions (where ``<LOCK>`` is a module-level ``threading.Lock``)
  are guarded the same way — this covers the module-level table and
  launcher patterns.

"Written" includes in-place mutation: direct assignment, ``+=``, ``del``,
subscript stores (``d[k] = v``), and mutating method calls (``.pop``,
``.setdefault``, ``.clear``, ...).  Locals captured under the lock and
used outside are fine — only the shared name itself is tracked.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from .framework import Finding, ModuleInfo, Rule, register_rule

__all__ = ["LockDisciplineRule"]

_LOCK_NAME_RE = re.compile(r"(?:^|_)(?:lock|LOCK)$", re.IGNORECASE)

_INIT_METHODS = {"__init__", "__new__", "__post_init__"}

#: Method calls that mutate their receiver in place.
_MUTATORS = {
    "add",
    "append",
    "clear",
    "discard",
    "extend",
    "insert",
    "move_to_end",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
}

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: (symbol, is_write, lock_held, line, col)
_Access = Tuple[str, bool, bool, int, int]


class _AccessCollector(ast.NodeVisitor):
    """Collect accesses of tracked symbols with lock-held context.

    ``match`` maps an AST expression node to a tracked symbol name (or
    ``None``); ``is_lock`` decides whether a ``with`` context expression
    takes a tracked lock.
    """

    def __init__(self, match, is_lock, assume_locked: bool = False) -> None:
        self._match = match
        self._is_lock = is_lock
        self.lock_held = assume_locked
        self.accesses: List[_Access] = []

    # -- write-context detection ------------------------------------- #
    def _record(self, node: ast.AST, is_write: bool) -> None:
        symbol = self._match(node)
        if symbol is not None:
            self.accesses.append(
                (symbol, is_write, self.lock_held, node.lineno, node.col_offset)
            )

    def _record_target(self, target: ast.expr) -> None:
        """Record an assignment/deletion target, unwrapping containers."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element)
        elif isinstance(target, ast.Starred):
            self._record_target(target.value)
        elif isinstance(target, (ast.Name, ast.Attribute)):
            self._record(target, True)
            if isinstance(target, ast.Attribute):
                self.visit(target.value)
        elif isinstance(target, (ast.Subscript,)):
            # d[k] = v mutates d: the container itself is written.
            self._record(target.value, True)
            if self._match(target.value) is None:
                self.visit(target.value)
            self.visit(target.slice)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_target(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node.target)
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_target(target)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and self._match(func.value) is not None
        ):
            # Record the receiver once, as a write, not again as a read.
            self._record(func.value, True)
            if isinstance(func.value, ast.Attribute):
                self.visit(func.value.value)
            for arg in node.args:
                self.visit(arg)
            for keyword in node.keywords:
                self.visit(keyword.value)
            return
        self.generic_visit(node)

    # -- reads -------------------------------------------------------- #
    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._record(node, False)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        self._record(node, False)

    # -- lock scopes --------------------------------------------------- #
    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: Union[ast.With, ast.AsyncWith]) -> None:
        takes_lock = False
        for item in node.items:
            if self._is_lock(item.context_expr):
                takes_lock = True
            else:
                self.visit(item.context_expr)
            if item.optional_vars is not None:
                self._record_target(item.optional_vars)
        if takes_lock and not self.lock_held:
            self.lock_held = True
            for statement in node.body:
                self.visit(statement)
            self.lock_held = False
        else:
            for statement in node.body:
                self.visit(statement)

    # Nested defs share the enclosing lock state conservatively: a closure
    # defined under the lock is assumed to run under it.  (None of the
    # guarded classes define closures today.)


@register_rule
class LockDisciplineRule(Rule):
    name = "lock-discipline"
    description = (
        "state written under a lock must never be accessed without that lock"
    )

    # ------------------------------------------------------------------ #
    # Class scope
    # ------------------------------------------------------------------ #
    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)
        yield from self._check_module_globals(module)

    def _check_class(self, module: ModuleInfo, node: ast.ClassDef) -> Iterator[Finding]:
        def match(expr: ast.AST) -> Optional[str]:
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and not _LOCK_NAME_RE.search(expr.attr)
            ):
                return expr.attr
            return None

        def is_lock(expr: ast.AST) -> bool:
            return (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and _LOCK_NAME_RE.search(expr.attr) is not None
            )

        methods = [
            item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        accesses: Dict[str, List[_Access]] = {}
        for method in methods:
            collector = _AccessCollector(
                match, is_lock, assume_locked=method.name.endswith("_locked")
            )
            for statement in method.body:
                collector.visit(statement)
            accesses[method.name] = collector.accesses

        guarded: Dict[str, int] = {}
        for name, method_accesses in accesses.items():
            if name in _INIT_METHODS:
                continue
            for symbol, is_write, lock_held, line, _col in method_accesses:
                if is_write and lock_held and symbol not in guarded:
                    guarded[symbol] = line
        if not guarded:
            return
        for name, method_accesses in accesses.items():
            if name in _INIT_METHODS:
                continue
            for symbol, is_write, lock_held, line, col in method_accesses:
                if symbol in guarded and not lock_held:
                    action = "written" if is_write else "read"
                    yield Finding(
                        rule=self.name,
                        path=module.display_path,
                        line=line,
                        col=col,
                        message=(
                            f"'self.{symbol}' is lock-guarded in class "
                            f"'{node.name}' (written under a lock at line "
                            f"{guarded[symbol]}) but {action} here without "
                            f"holding the lock"
                        ),
                    )

    # ------------------------------------------------------------------ #
    # Module scope
    # ------------------------------------------------------------------ #
    def _check_module_globals(self, module: ModuleInfo) -> Iterator[Finding]:
        lock_names: Set[str] = set()
        global_names: Set[str] = set()
        for statement in module.tree.body:
            targets: List[ast.expr] = []
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign):
                targets = [statement.target]
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if _LOCK_NAME_RE.search(target.id):
                    lock_names.add(target.id)
                else:
                    global_names.add(target.id)
        if not lock_names or not global_names:
            return

        def match(expr: ast.AST) -> Optional[str]:
            if isinstance(expr, ast.Name) and expr.id in global_names:
                return expr.id
            return None

        def is_lock(expr: ast.AST) -> bool:
            return isinstance(expr, ast.Name) and expr.id in lock_names

        functions = [
            item
            for item in module.tree.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        accesses: Dict[str, List[_Access]] = {}
        for function in functions:
            collector = _AccessCollector(
                match, is_lock, assume_locked=function.name.endswith("_locked")
            )
            for statement in function.body:
                collector.visit(statement)
            accesses[function.name] = collector.accesses

        guarded: Dict[str, int] = {}
        for function_accesses in accesses.values():
            for symbol, is_write, lock_held, line, _col in function_accesses:
                if is_write and lock_held and symbol not in guarded:
                    guarded[symbol] = line
        if not guarded:
            return
        for function_accesses in accesses.values():
            for symbol, is_write, lock_held, line, col in function_accesses:
                if symbol in guarded and not lock_held:
                    action = "written" if is_write else "read"
                    yield Finding(
                        rule=self.name,
                        path=module.display_path,
                        line=line,
                        col=col,
                        message=(
                            f"module global '{symbol}' is lock-guarded "
                            f"(written under a lock at line {guarded[symbol]}) "
                            f"but {action} here without holding the lock"
                        ),
                    )
