"""Per-module analysis context shared by every rule.

One :class:`ModuleContext` wraps a parsed module with the derived facts the
rules keep needing: a child->parent map, import alias resolution ("which
local name is the ``time`` module here?"), lexical queries ("is this node
inside a loop?", "is it guarded by ``if telemetry.enabled():``?"), and the
package-relative path used for rule scoping.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping

from repro.analysis.config import LintConfig

#: Node types whose bodies iterate (ZOV001's definition of a "hot loop").
LOOP_NODES = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
              ast.DictComp, ast.GeneratorExp)

FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def package_relpath(file: Path, root: Path) -> str:
    """Path of ``file`` relative to the scanned package, posix separators.

    The scoping patterns in the config ("core/", "observability/report.py")
    are relative to the ``repro`` package, so ``src`` and ``repro`` path
    components are stripped: scanning ``src/`` yields ``core/wr.py`` for
    ``src/repro/core/wr.py``, and a fixture tree ``tmp/core/bad.py`` scanned
    at ``tmp`` yields ``core/bad.py``.
    """
    resolved = file.resolve()
    parts = list(resolved.parts)
    if "repro" in parts:
        parts = parts[len(parts) - parts[::-1].index("repro"):]
    else:
        try:
            parts = list(resolved.relative_to(root.resolve()).parts)
        except ValueError:
            parts = [resolved.name]
        while parts and parts[0] in ("src", "repro"):
            parts = parts[1:]
    return "/".join(parts)


@dataclass
class ModuleContext:
    """Everything a rule may ask about one module (see module docstring)."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    config: LintConfig
    _parents: dict[int, ast.AST] = field(default_factory=dict)
    _module_aliases: dict[str, str] = field(default_factory=dict)
    _imported_names: dict[str, tuple[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self._module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self._imported_names[alias.asname or alias.name] = (
                        node.module, alias.name
                    )

    # -- tree navigation ------------------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, FUNCTION_NODES):
                return ancestor
        return None

    def in_loop(self, node: ast.AST) -> bool:
        """Whether the node sits inside a loop body or a comprehension."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, LOOP_NODES):
                return True
            if isinstance(ancestor, FUNCTION_NODES):
                return False  # loops outside a nested def don't iterate it
        return False

    def guarded_by(self, node: ast.AST, predicate: Callable[[ast.expr], bool]) -> bool:
        """Whether an ancestor ``if`` (with the node in its *body*) has a
        test satisfying ``predicate`` anywhere in its expression."""
        child: ast.AST = node
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.If) and child not in ancestor.orelse:
                for sub in ast.walk(ancestor.test):
                    if isinstance(sub, ast.expr) and predicate(sub):
                        return True
            child = ancestor
        return False

    def within_with(self, node: ast.AST, predicate: Callable[[ast.expr], bool]) -> bool:
        """Whether an ancestor ``with`` block has a matching context item."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    if predicate(item.context_expr):
                        return True
        return False

    # -- import resolution ----------------------------------------------------

    def resolve_module(self, name: str) -> str | None:
        """The dotted module a bare local name refers to, if it is a module
        alias (``import time as _time`` makes ``_time`` resolve to ``time``)."""
        return self._module_aliases.get(name)

    def resolve_import(self, name: str) -> tuple[str, str] | None:
        """``(module, original_name)`` for a ``from m import x [as y]``."""
        return self._imported_names.get(name)

    def call_target(self, call: ast.Call) -> str | None:
        """Fully-resolved dotted name of a call target, when resolvable.

        ``_time.perf_counter()`` resolves to ``time.perf_counter`` under
        ``import time as _time``; ``perf_counter()`` resolves the same way
        under ``from time import perf_counter``.  Unresolvable targets
        (methods on objects, locals) return ``None``.
        """
        func = call.func
        if isinstance(func, ast.Name):
            imported = self.resolve_import(func.id)
            if imported is not None:
                return f"{imported[0]}.{imported[1]}"
            return None
        if isinstance(func, ast.Attribute):
            base = _dotted_base(func.value)
            if base is None:
                return None
            head = base.split(".")[0]
            module = self.resolve_module(head)
            if module is not None:
                rest = base.split(".")[1:]
                return ".".join([module, *rest, func.attr])
            imported = self.resolve_import(head)
            if imported is not None:
                rest = base.split(".")[1:]
                return ".".join([imported[0], imported[1], *rest, func.attr])
            return None
        return None

    def rule_options(self, rule_id: str) -> Mapping[str, object]:
        return self.config.rule_options(rule_id)


def _dotted_base(node: ast.expr) -> str | None:
    """``a.b.c`` for nested Name/Attribute chains, else ``None``."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def build_context(
    path: Path, relpath: str, source: str, config: LintConfig
) -> ModuleContext:
    """Parse and wrap one module (raises ``SyntaxError`` on bad source)."""
    tree = ast.parse(source, filename=str(path))
    return ModuleContext(
        path=path, relpath=relpath, source=source, tree=tree, config=config
    )


@dataclass
class TreeContext:
    """Every parseable module of one lint run, for whole-tree rules.

    Rules that need interprocedural facts (the CONC family) receive this
    instead of a single :class:`ModuleContext`.  ``cache`` lets several
    rules share one expensive analysis: build it on first use, stash it
    under a stable key, and later rules find it ready.
    """

    modules: tuple[ModuleContext, ...]
    config: LintConfig
    cache: dict[str, object] = field(default_factory=dict)

    def module(self, relpath: str) -> ModuleContext | None:
        for ctx in self.modules:
            if ctx.relpath == relpath:
                return ctx
        return None
