"""Rule ``pickle-safety``: only module-level callables cross the fan-out seam.

:class:`repro.engine._pool.FanOutSpec` ships its ``compute``/``setup``
callables to worker processes.  The fork transport tolerates
closures by accident of inheritance; the shared-memory and any future spawn
transport pickle them by qualified name — so a lambda, a nested ``def``, or
a bound method handed to ``FanOutSpec`` works on one transport and dies on
another.  This rule pins the contract at the call site: every callable
argument to a ``FanOutSpec(...)`` construction must be ``None`` or a name
bound at module level in the same file (a ``def``, an import, or a
module-level assignment).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set
from typing import Tuple as TypingTuple

from ..framework import ModuleContext, Finding, Rule

#: Positional parameter names of ``FanOutSpec(...)``, in order.
_SPEC_PARAMS = ("compute", "setup")


def _module_level_names(tree: ast.Module) -> Set[str]:
    """Names bound by module-level defs, imports and assignments."""
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
    return names


def _nested_def_names(tree: ast.Module) -> Set[str]:
    """Names of ``def``s nested inside another function."""
    nested: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(node):
            if (inner is not node
                    and isinstance(inner, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))):
                nested.add(inner.name)
    return nested


class PickleSafetyRule(Rule):
    id = "pickle-safety"
    summary = ("FanOutSpec compute/setup must be module-level "
               "functions — no lambdas, nested defs, or bound methods")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        module_names = _module_level_names(ctx.tree)
        nested_names = _nested_def_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name != "FanOutSpec":
                continue
            arguments = [(role, value) for role, value
                         in zip(_SPEC_PARAMS, node.args)]
            arguments.extend((keyword.arg or "**", keyword.value)
                             for keyword in node.keywords)
            for role, value in arguments:
                problem = self._diagnose(value, module_names, nested_names)
                if problem is not None:
                    yield ctx.finding(
                        value, self.id,
                        f"FanOutSpec {role}={problem}; pass a module-level "
                        f"function so every transport can pickle it by "
                        f"qualified name")

    def _diagnose(self, value: ast.expr, module_names: Set[str],
                  nested_names: Set[str]) -> Optional[str]:
        """None when ``value`` is transport-safe, else a short diagnosis."""
        if isinstance(value, ast.Constant) and value.value is None:
            return None
        if isinstance(value, ast.Lambda):
            return "a lambda (unpicklable)"
        if isinstance(value, ast.Name):
            if value.id in nested_names and value.id not in module_names:
                return f"nested function {value.id!r} (unpicklable)"
            if value.id in module_names:
                return None
            return (f"{value.id!r}, which is not bound at module level "
                    f"in this file")
        if isinstance(value, ast.Attribute):
            base = value.value
            if isinstance(base, ast.Name) and base.id in module_names:
                return None
            return ("a bound attribute; workers cannot pickle it by "
                    "qualified name")
        if isinstance(value, ast.Call):
            return "a call result, not a module-level function reference"
        return "not a module-level function reference"
