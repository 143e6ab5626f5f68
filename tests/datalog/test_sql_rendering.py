"""Tests for the Datalog¬ → SQL renderer (the 'run it as SQL' reading of Thm 3.4)."""

import sqlite3

import pytest

from repro.core import actual_causes, generate_cause_program
from repro.datalog import (
    Literal,
    Program,
    Rule,
    cause_program_sql,
    parse_program,
    parse_rule,
    partition_view_sql,
    program_to_sql,
    rule_to_sql,
)
from repro.exceptions import DatalogError
from repro.relational import Atom, Constant, Database, Tuple, parse_query


class TestRuleRendering:
    def test_join_and_constant_conditions(self):
        sql = rule_to_sql(parse_rule("Out(x) :- R(x, y), S(y, 'a3')"))
        assert "SELECT DISTINCT" in sql
        assert "R AS t0" in sql and "S AS t1" in sql
        assert "= 'a3'" in sql
        # join condition between R.c1 and S.c0 (shared variable y)
        assert "t1.c0 IS t0.c1" in sql or "t0.c1 IS t1.c0" in sql

    def test_annotations_select_partition_views(self):
        sql = rule_to_sql(parse_rule("Out(y) :- R^x(x, y), S^n(y)"))
        assert "R__exo" in sql and "S__endo" in sql

    def test_negation_becomes_not_exists(self):
        sql = rule_to_sql(parse_rule("Out(y) :- S(y), not I(y)"))
        assert "NOT EXISTS" in sql and "FROM I AS n" in sql

    def test_constant_head_terms(self):
        sql = rule_to_sql(parse_rule("Out('tag', x) :- R(x)"))
        assert "'tag' AS c0" in sql

    def test_string_constants_are_quoted(self):
        sql = rule_to_sql(parse_rule("Out(x) :- R(x, 'a')"))
        assert "= 'a'" in sql


class TestProgramRendering:
    def test_with_clause_and_target(self):
        program = parse_program("""
            I(y) :- R^x(x, y), S^n(y)
            CS(y) :- R^n(x, y), S^n(y), not I(y)
        """)
        sql = program_to_sql(program, target="CS")
        assert sql.startswith("WITH")
        assert "I AS (" in sql and "CS AS (" in sql
        assert sql.strip().endswith("SELECT * FROM CS;")

    def test_union_of_multiple_rules(self):
        program = parse_program("""
            Out(x) :- R(x)
            Out(x) :- S(x)
        """)
        sql = program_to_sql(program)
        assert sql.count("SELECT DISTINCT") == 2 and "UNION" in sql

    def test_unknown_target_rejected(self):
        program = Program([parse_rule("Out(x) :- R(x)")])
        with pytest.raises(DatalogError):
            program_to_sql(program, target="Missing")

    def test_partition_views(self):
        sql = partition_view_sql("R", 2)
        assert 'CREATE VIEW "R__endo"' in sql
        assert 'CREATE VIEW "R__exo"' in sql

    def test_cause_program_sql_covers_every_relation(self):
        query = parse_query("q :- R(x, y), S(y)")
        statements = cause_program_sql(generate_cause_program(query))
        assert set(statements) == {"Cause_R", "Cause_S"}
        assert all(text.startswith("WITH") for text in statements.values())


class TestLiteralRendering:
    """Regression tests: rendered literals must be *valid* SQL, not Python.

    ``None`` used to render as the bare identifier ``None`` (and compare with
    ``=``, which is never true of NULL in SQL), booleans as ``True``/``False``
    and empty WHERE clauses as the non-portable keyword ``TRUE``.  Each test
    executes the rendered output on SQLite to prove it actually runs.
    """

    def test_none_renders_as_is_null(self):
        rule = Rule(Atom("Out", ["x"]),
                    [Literal(Atom("R", ["x", Constant(None)]))])
        sql = rule_to_sql(rule)
        assert "None" not in sql
        assert "t0.c1 IS NULL" in sql
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE R (c0, c1)")
        connection.executemany("INSERT INTO R VALUES (?, ?)",
                               [("a", None), ("b", "x")])
        assert connection.execute(sql).fetchall() == [("a",)]

    def test_none_in_negated_literal(self):
        rule = Rule(Atom("Out", ["x"]),
                    [Literal(Atom("R", ["x"])),
                     Literal(Atom("S", [Constant(None)]), positive=False)])
        sql = rule_to_sql(rule)
        assert "n.c0 IS NULL" in sql
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE R (c0)")
        connection.execute("CREATE TABLE S (c0)")
        connection.execute("INSERT INTO R VALUES ('a')")
        connection.execute("INSERT INTO S VALUES (NULL)")
        # S holds a NULL, so NOT EXISTS (... IS NULL) filters everything out.
        assert connection.execute(sql).fetchall() == []

    def test_null_joins_null(self):
        """Shared variables compare with IS: NULL joins NULL, as in memory."""
        rule = parse_rule("Out(x) :- R(x, y), S(y), not T(y)")
        sql = rule_to_sql(rule)
        assert "t1.c0 IS t0.c1" in sql and "n.c0 IS t0.c1" in sql
        connection = sqlite3.connect(":memory:")
        for name, columns in (("R", "c0, c1"), ("S", "c0"), ("T", "c0")):
            connection.execute(f"CREATE TABLE {name} ({columns})")
        connection.executemany("INSERT INTO R VALUES (?, ?)",
                               [("a", None), ("b", "c")])
        connection.execute("INSERT INTO S VALUES (NULL)")
        assert connection.execute(sql).fetchall() == [("a",)]
        connection.execute("INSERT INTO T VALUES (NULL)")
        assert connection.execute(sql).fetchall() == []

    def test_none_in_head_renders_as_null(self):
        rule = Rule(Atom("Out", [Constant(None), "x"]),
                    [Literal(Atom("R", ["x"]))])
        sql = rule_to_sql(rule)
        assert "NULL AS c0" in sql
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE R (c0)")
        connection.execute("INSERT INTO R VALUES (1)")
        assert connection.execute(sql).fetchall() == [(None, 1)]

    def test_booleans_render_as_integers(self):
        rule = Rule(Atom("Out", ["x"]),
                    [Literal(Atom("R", ["x", Constant(True)]))])
        sql = rule_to_sql(rule)
        assert "True" not in sql and "= 1" in sql
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE R (c0, c1)")
        connection.executemany("INSERT INTO R VALUES (?, ?)",
                               [("a", 1), ("b", 0)])
        assert connection.execute(sql).fetchall() == [("a",)]
        assert "= 0" in rule_to_sql(
            Rule(Atom("Out", ["x"]),
                 [Literal(Atom("R", ["x", Constant(False)]))]))

    def test_empty_where_renders_portable_1_not_true(self):
        rule = parse_rule("Out(x) :- R(x), not Flag()")
        sql = rule_to_sql(rule)
        assert "TRUE" not in sql
        assert "WHERE 1)" in sql  # the negated nullary atom's inner WHERE
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE R (c0)")
        connection.execute("CREATE TABLE Flag (c0)")
        connection.execute("INSERT INTO R VALUES ('a')")
        assert connection.execute(sql).fetchall() == [("a",)]
        connection.execute("INSERT INTO Flag VALUES (1)")
        assert connection.execute(sql).fetchall() == []


class TestExecutionOnSQLite:
    """The rendered SQL, run on a real RDBMS, matches the in-memory engines."""

    def _setup_sqlite(self, db: Database) -> sqlite3.Connection:
        connection = sqlite3.connect(":memory:")
        for relation in db.relations():
            arity = next(iter(db.tuples_of(relation))).arity
            columns = ", ".join(f"c{i}" for i in range(arity))
            connection.execute(
                f"CREATE TABLE {relation} ({columns}, is_endogenous INTEGER)")
            connection.executescript(partition_view_sql(relation, arity))
            for tup in db.tuples_of(relation):
                placeholders = ", ".join("?" for _ in range(arity + 1))
                connection.execute(
                    f"INSERT INTO {relation} VALUES ({placeholders})",
                    tuple(tup.values) + (1 if db.is_endogenous(tup) else 0,))
        return connection

    def test_example35_causes_via_sqlite(self):
        db = Database()
        db.add_fact("R", "a3", "a3")
        db.add_fact("R", "a4", "a3", endogenous=False)
        db.add_fact("S", "a3")
        query = parse_query("q :- R(x, y), S(y)")
        program = generate_cause_program(query)
        connection = self._setup_sqlite(db)

        sql_causes = set()
        for relation, statement in cause_program_sql(program).items():
            source = relation.replace("Cause_", "")
            for row in connection.execute(statement.rstrip(";")):
                sql_causes.add(Tuple(source, row))
        expected = actual_causes(query, db)
        assert sql_causes == expected == frozenset({Tuple("S", ("a3",))})
