"""Rule ``typed-defs``: full signatures in the strict-mypy tier.

``mypy --strict``-style checking (``disallow_untyped_defs``) for
``engine/``, ``relational/session.py``, ``relational/evaluation.py``,
``relational/columnar.py`` and the responsibility engines
(``core/flow_responsibility.py``, ``core/responsibility.py``,
``core/hitting_set.py``) runs in CI, but mypy is not part of the runtime
container.  This rule enforces the *presence* half of that contract
locally — every ``def`` in the strict tier annotates all of its parameters
(``self``/``cls`` excepted) and its return type — so an unannotated
signature fails ``repro lint`` on the developer's machine, not first in
CI.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from ..framework import ModuleContext, Finding, Rule


class TypedDefsRule(Rule):
    id = "typed-defs"
    summary = ("every def in engine/, the typed relational modules "
               "(session, evaluation, columnar) and the responsibility "
               "engines (flow, exact, hitting set) annotates all "
               "parameters and the return type")
    scope = ("engine/", "relational/session.py",
             "relational/evaluation.py", "relational/columnar.py",
             "core/flow_responsibility.py", "core/responsibility.py",
             "core/hitting_set.py")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            missing: List[str] = []
            arguments = node.args
            positional = arguments.posonlyargs + arguments.args
            for index, arg in enumerate(positional):
                if index == 0 and arg.arg in ("self", "cls"):
                    continue
                if arg.annotation is None:
                    missing.append(arg.arg)
            for arg in arguments.kwonlyargs:
                if arg.annotation is None:
                    missing.append(arg.arg)
            if arguments.vararg and arguments.vararg.annotation is None:
                missing.append("*" + arguments.vararg.arg)
            if arguments.kwarg and arguments.kwarg.annotation is None:
                missing.append("**" + arguments.kwarg.arg)
            if missing:
                yield ctx.finding(
                    node, self.id,
                    f"def {node.name} leaves parameter(s) "
                    f"{', '.join(repr(name) for name in missing)} "
                    f"unannotated in the strict-typing tier")
            if node.returns is None:
                yield ctx.finding(
                    node, self.id,
                    f"def {node.name} has no return annotation in the "
                    f"strict-typing tier")
