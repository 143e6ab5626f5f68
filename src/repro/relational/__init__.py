"""Relational substrate: schemas, tuples, databases, conjunctive queries and
their evaluation.

This subpackage provides the data model the paper's definitions are stated
over: a database instance ``D`` partitioned into endogenous tuples ``Dn`` and
exogenous tuples ``Dx``, and (Boolean) conjunctive queries evaluated via
valuations ``θ : Var(q) → Adom(D)``.
"""

from .database import Database, database_from_dict
from .delta import DatabaseDelta, deltas_from_json_file
from .evaluation import (
    QueryEvaluator,
    Valuation,
    evaluate,
    evaluate_boolean,
    find_valuations,
    greedy_atom_order,
    is_answer,
)
from .query import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Term,
    Variable,
    match_atom,
    parse_atom,
    parse_query,
)
from .schema import RelationSchema, Schema
from .session import (
    BackendSession,
    MemorySession,
    SQLiteSession,
    open_session,
)
from .sqlite_backend import (
    SQLiteDatabase,
    SQLiteEvaluator,
    valuation_sql,
)
from .tuples import Tuple, make_tuple

__all__ = [
    "Atom",
    "BackendSession",
    "ConjunctiveQuery",
    "Constant",
    "Database",
    "DatabaseDelta",
    "MemorySession",
    "QueryEvaluator",
    "SQLiteSession",
    "RelationSchema",
    "SQLiteDatabase",
    "SQLiteEvaluator",
    "Schema",
    "Term",
    "Tuple",
    "Valuation",
    "Variable",
    "database_from_dict",
    "deltas_from_json_file",
    "evaluate",
    "evaluate_boolean",
    "find_valuations",
    "greedy_atom_order",
    "is_answer",
    "make_tuple",
    "match_atom",
    "open_session",
    "parse_atom",
    "parse_query",
    "valuation_sql",
]
