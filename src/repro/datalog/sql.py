"""Render non-recursive stratified Datalog¬ programs as SQL.

Theorem 3.4's practical reading is that the causes of a conjunctive query
"can be retrieved by simply running a certain SQL query".  The in-memory
Datalog evaluator of :mod:`repro.datalog.evaluation` is what this library uses
to execute cause programs, but users who want to push the computation into a
relational DBMS can render the very same program as portable SQL with this
module: each IDB predicate becomes a named subquery (``WITH`` clause) built
from ``SELECT``/``JOIN``/``NOT EXISTS`` blocks — one level of ``NOT EXISTS``
per stratum of negation, matching the paper's "only two strata" bound for
cause programs.

The translation assumes one table per EDB relation with positional column
names ``c0, c1, ...`` (see :func:`default_column`), and two views per relation
for the endogenous/exogenous split (``R__endo`` / ``R__exo``) when a rule body
uses the ``Rⁿ`` / ``Rˣ`` annotations.  The output is plain text; no database
connection is involved.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import DatalogError
from ..relational.query import Atom, Constant, Variable
from .program import Literal, Program, Rule


def default_column(position: int) -> str:
    """Column name used for attribute ``position`` of every relation."""
    return f"c{position}"


def table_name(atom: Atom) -> str:
    """SQL table (or view) name for an EDB atom, honouring ``Rⁿ``/``Rˣ``."""
    if atom.endogenous is True:
        return f"{atom.relation}__endo"
    if atom.endogenous is False:
        return f"{atom.relation}__exo"
    return atom.relation


def partition_view_sql(relation: str, arity: int) -> str:
    """SQL creating the ``__endo`` / ``__exo`` views of a relation.

    The base table is assumed to carry an extra boolean column
    ``is_endogenous`` recording the tuple-level partition.
    """
    columns = ", ".join(default_column(i) for i in range(arity))
    # Double-quoted so relation names that are SQL keywords ("Order",
    # "Group") stay usable; quoting is a no-op for plain identifiers.
    return (
        f'CREATE VIEW "{relation}__endo" AS\n'
        f'  SELECT {columns} FROM "{relation}" WHERE is_endogenous;\n'
        f'CREATE VIEW "{relation}__exo" AS\n'
        f'  SELECT {columns} FROM "{relation}" WHERE NOT is_endogenous;'
    )


def _quote(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        # SQLite (and SQL-92) has no boolean literal; 1/0 is the portable form.
        return "1" if value else "0"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)


def _equals(column: str, value: object) -> str:
    """Comparison of ``column`` against a constant; ``= NULL`` is never true,
    so equality against ``None`` must render as ``IS NULL``."""
    if value is None:
        return f"{column} IS NULL"
    return f"{column} = {_quote(value)}"


class _RuleRenderer:
    """Renders a single rule as a SELECT statement."""

    def __init__(self, rule: Rule, idb_columns: Dict[str, int]):
        self.rule = rule
        self.idb_columns = idb_columns
        self.aliases: List[Tuple[str, Atom]] = []
        self.variable_locations: Dict[str, Tuple[str, str]] = {}
        self.conditions: List[str] = []

    def _column_of(self, atom: Atom, position: int) -> str:
        return default_column(position)

    def _register_positive(self, index: int, atom: Atom) -> None:
        alias = f"t{index}"
        self.aliases.append((alias, atom))
        for position, term in enumerate(atom.terms):
            column = f"{alias}.{self._column_of(atom, position)}"
            if isinstance(term, Constant):
                self.conditions.append(_equals(column, term.value))
            else:
                assert isinstance(term, Variable)
                if term.name in self.variable_locations:
                    bound = self.variable_locations[term.name][1]
                    self.conditions.append(f"{column} IS {bound}")
                else:
                    self.variable_locations[term.name] = (alias, column)

    def _negated_exists(self, literal: Literal) -> str:
        atom = literal.atom
        alias = "n"
        clauses: List[str] = []
        for position, term in enumerate(atom.terms):
            column = f"{alias}.{self._column_of(atom, position)}"
            if isinstance(term, Constant):
                clauses.append(_equals(column, term.value))
            else:
                assert isinstance(term, Variable)
                bound = self.variable_locations.get(term.name)
                if bound is None:
                    raise DatalogError(
                        f"negated literal {literal!r} uses unbound variable {term.name!r}"
                    )
                clauses.append(f"{column} IS {bound[1]}")
        where = " AND ".join(clauses) if clauses else "1"
        return (f"NOT EXISTS (SELECT 1 FROM {table_name(atom)} AS {alias} "
                f"WHERE {where})")

    def render(self) -> str:
        for index, literal in enumerate(self.rule.positive_literals()):
            self._register_positive(index, literal.atom)
        for literal in self.rule.negative_literals():
            self.conditions.append(self._negated_exists(literal))

        select_items: List[str] = []
        for position, term in enumerate(self.rule.head.terms):
            target = default_column(position)
            if isinstance(term, Constant):
                select_items.append(f"{_quote(term.value)} AS {target}")
            else:
                assert isinstance(term, Variable)
                select_items.append(
                    f"{self.variable_locations[term.name][1]} AS {target}")
        select = ", ".join(select_items) if select_items else "1 AS c0"

        from_clause = ", ".join(
            f"{table_name(atom)} AS {alias}" for alias, atom in self.aliases)
        where_clause = " AND ".join(self.conditions) if self.conditions else "1"
        return (f"SELECT DISTINCT {select}\n"
                f"  FROM {from_clause}\n"
                f"  WHERE {where_clause}")


def rule_to_sql(rule: Rule, idb_columns: Optional[Dict[str, int]] = None) -> str:
    """Render one rule as a ``SELECT`` statement."""
    return _RuleRenderer(rule, idb_columns or {}).render()


def program_to_sql(program: Program, target: Optional[str] = None) -> str:
    """Render a whole program as one SQL statement with a ``WITH`` clause.

    Every IDB predicate becomes a common table expression (union of its rules,
    in stratum order); the final ``SELECT`` reads ``target`` (default: the last
    predicate in evaluation order).

    Examples
    --------
    >>> from repro.datalog import parse_program
    >>> program = parse_program('''
    ...     I(y) :- R^x(x, y), S^n(y)
    ...     CS(y) :- R^n(x, y), S^n(y), not I(y)
    ... ''')
    >>> sql = program_to_sql(program, target="CS")
    >>> "WITH" in sql and "NOT EXISTS" in sql
    True
    """
    order = program.evaluation_order()
    if not order:
        raise DatalogError("cannot render an empty program")
    if target is None:
        target = order[-1]
    if target not in program.idb_relations():
        raise DatalogError(f"unknown target predicate {target!r}")

    idb_columns = {
        relation: program.rules_for(relation)[0].head.arity for relation in order
    }
    ctes: List[str] = []
    for relation in order:
        selects = [rule_to_sql(rule, idb_columns) for rule in program.rules_for(relation)]
        body = "\n  UNION\n".join(selects)
        ctes.append(f"{relation} AS (\n{body}\n)")
    with_clause = "WITH " + ",\n".join(ctes)
    return f"{with_clause}\nSELECT * FROM {target};"


def cause_program_sql(program: Program) -> Dict[str, str]:
    """Render every ``Cause_*`` predicate of a cause program as its own query."""
    return {
        relation: program_to_sql(program, target=relation)
        for relation in sorted(program.idb_relations())
        if relation.startswith("Cause_")
    }
