"""Rule ``backend-seam``: sqlite3 and concrete backends stay behind the seam.

The whole point of :class:`repro.relational.session.BackendSession` is that
``engine/`` code is backend-agnostic: it receives a session and never names
``sqlite3`` or a concrete backend class.  That is what lets a postgres
backend slot in without touching the explanation path.  Two checks:

* ``import sqlite3`` (or ``from sqlite3 import ...``) is allowed only in
  ``relational/sqlite_backend.py``;
* no module under ``engine/`` may import ``relational.sqlite_backend`` (by
  any spelling) or pull a concrete session/backend class
  (``SQLiteDatabase``, ``SQLiteEvaluator``, ``SQLiteSession``,
  ``MemorySession``) — only the abstract ``BackendSession`` and the
  ``open_session`` factory cross the seam;
* no module under ``server/`` may import repro internals beyond the public
  surface it serves: ``core``/``core.api``/``core.definitions``,
  ``exceptions`` and the relational seam (``relational`` and its
  ``database``/``delta``/``query``/``session``/``tuples`` modules).  In
  particular the service never imports ``engine`` — all engine work is
  reached through :class:`repro.core.api.ExplanationSession`, so the
  engine's internals (and any future engine swap) stay invisible to the
  wire layer.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import ModuleContext, Finding, Rule

#: The only modules allowed to talk to sqlite3 directly.
_SQLITE3_HOMES = ("relational/sqlite_backend.py",)

#: Concrete classes engine/ modules must not import — they are reachable
#: only through the ``BackendSession`` seam (``open_session`` dispatch).
_CONCRETE_BACKEND_NAMES = frozenset({
    "SQLiteDatabase", "SQLiteEvaluator", "SQLiteSession", "MemorySession",
})

#: The only repro-internal modules server/ may import (plus anything under
#: ``server`` itself).  Notably absent: every ``engine`` module.
_SERVER_ALLOWED = frozenset({
    "core", "core.api", "core.definitions",
    "exceptions",
    "relational", "relational.database", "relational.delta",
    "relational.query", "relational.session", "relational.tuples",
})


def _server_target(node: ast.AST) -> "list[str]":
    """Repro-root-relative dotted targets of an import in a server/ module.

    Returns an empty list for imports that are not repro-internal (stdlib,
    third-party).  A relative import is resolved against ``repro.server``:
    one leading dot stays inside ``server`` (always allowed), two reach the
    package root.
    """
    targets = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "repro":
                targets.append(".".join(parts[1:]) or "repro")
    elif isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level == 1:
            targets.append("server" if not module else f"server.{module}")
        elif node.level >= 2:
            targets.append(module or "repro")
        elif module.split(".")[0] == "repro":
            targets.append(".".join(module.split(".")[1:]) or "repro")
    return targets


class BackendSeamRule(Rule):
    id = "backend-seam"
    summary = ("sqlite3 only inside the backend modules; engine/ imports "
               "only the BackendSession seam, never a concrete backend")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        sqlite3_ok = ctx.relpath in _SQLITE3_HOMES
        in_engine = ctx.relpath.startswith("engine/")
        in_server = ctx.relpath.startswith("server/")
        for node in ast.walk(ctx.tree):
            if in_server and isinstance(node, (ast.Import, ast.ImportFrom)):
                for target in _server_target(node):
                    if target == "server" or target.startswith("server."):
                        continue
                    if target not in _SERVER_ALLOWED:
                        yield ctx.finding(
                            node, self.id,
                            f"server/ imports repro internals "
                            f"{target!r}; the service talks only to "
                            f"core.api, exceptions and the relational seam")
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top == "sqlite3" and not sqlite3_ok:
                        yield ctx.finding(
                            node, self.id,
                            "import sqlite3 outside the backend modules; "
                            "go through relational.sqlite_backend")
                    elif (in_engine
                            and alias.name.split(".")[-1]
                            == "sqlite_backend"):
                        yield ctx.finding(
                            node, self.id,
                            f"engine/ imports the concrete backend module "
                            f"{alias.name!r}; use the BackendSession seam")
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.split(".")[0] == "sqlite3" and not sqlite3_ok:
                    yield ctx.finding(
                        node, self.id,
                        "import from sqlite3 outside the backend modules; "
                        "go through relational.sqlite_backend")
                    continue
                if not in_engine:
                    continue
                if module.split(".")[-1] == "sqlite_backend":
                    yield ctx.finding(
                        node, self.id,
                        "engine/ imports from the concrete backend module "
                        "'sqlite_backend'; use the BackendSession seam")
                    continue
                for alias in node.names:
                    if alias.name in _CONCRETE_BACKEND_NAMES:
                        yield ctx.finding(
                            node, self.id,
                            f"engine/ imports concrete backend class "
                            f"{alias.name!r}; depend on BackendSession / "
                            f"open_session instead")
