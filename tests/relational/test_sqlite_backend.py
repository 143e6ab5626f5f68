"""Tests for the SQLite execution backend (load, valuation pass, Why-No load)."""

import sqlite3

import pytest

from repro.core import actual_causes, generate_cause_program
from repro.engine import WhyNoBatchExplainer
from repro.exceptions import BackendError, SchemaError
from repro.relational import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Database,
    QueryEvaluator,
    SQLiteDatabase,
    SQLiteEvaluator,
    Tuple,
    parse_query,
    valuation_sql,
)


def valuation_key(valuation):
    """Hashable, order-insensitive identity of a valuation."""
    return (
        tuple(sorted((var.name, repr(value))
                     for var, value in valuation.assignment.items())),
        valuation.atom_tuples,
    )


def assert_same_valuations(query, database):
    memory = sorted(
        valuation_key(v) for v in QueryEvaluator(database).valuations(query))
    sqlite_ = sorted(
        valuation_key(v) for v in SQLiteEvaluator(database).valuations(query))
    assert memory == sqlite_


@pytest.fixture
def example22(example22_db):
    db, _ = example22_db
    return db


class TestLoading:
    def test_tables_and_partition_views(self, example33_db):
        db, _ = example33_db
        backend = SQLiteDatabase(db)
        rows = set(backend.connection.execute("SELECT c0, c1 FROM R"))
        assert rows == {("a3", "a3"), ("a4", "a3")}
        assert set(backend.connection.execute("SELECT c0, c1 FROM R__endo")) \
            == {("a3", "a3")}
        assert set(backend.connection.execute("SELECT c0, c1 FROM R__exo")) \
            == {("a4", "a3")}

    def test_relations_and_arities(self, example22):
        backend = SQLiteDatabase(example22)
        assert backend.relations() == {"R", "S"}
        assert backend.arity_of("R") == 2 and backend.arity_of("S") == 1

    def test_on_disk_instance(self, tmp_path, example22):
        path = str(tmp_path / "instance.db")
        SQLiteDatabase(example22, path=path).close()
        # The file outlives the backend object and holds the loaded data.
        with sqlite3.connect(path) as raw:
            count = raw.execute("SELECT COUNT(*) FROM R").fetchone()[0]
        assert count == example22.size("R")
        # Loading is always a fresh snapshot: a populated file is rejected.
        with pytest.raises(BackendError):
            SQLiteDatabase(example22, path=path)

    def test_extra_and_ensure_relation(self, example22):
        backend = SQLiteDatabase(example22, extra_relations={"T": 3})
        assert "T" in backend.relations()
        backend.ensure_relation("T", 3)  # idempotent
        # An empty relation takes a new arity; one with rows keeps its own.
        backend.ensure_relation("T", 2)
        assert backend.arity_of("T") == 2
        backend.execute_sql("SELECT c0, c1 FROM T__endo")
        with pytest.raises(BackendError, match="arity 2"):
            backend.ensure_relation("R", 1)
        assert backend.arity_of("R") == 2

    def test_mixed_arity_rejected(self):
        # Rejected when added, on either backend (one arity per relation),
        # so every loaded relation has one column layout.
        db = Database()
        db.add_fact("R", 1)
        with pytest.raises(SchemaError):
            db.add_fact("R", 1, 2)
        assert SQLiteDatabase(db).arity_of("R") == 1

    def test_bool_values_rejected(self):
        # Rejected when added, on either backend (the one value domain).
        with pytest.raises(SchemaError):
            Database().add_fact("R", True)

    def test_unrepresentable_values_rejected(self):
        with pytest.raises(SchemaError):
            Database().add_fact("R", (1, 2))

    def test_nan_rejected_instead_of_becoming_null(self):
        # sqlite3 binds NaN as NULL, which would silently change answers.
        with pytest.raises(SchemaError):
            Database().add_fact("R", float("nan"))

    def test_infinity_round_trips(self):
        db = Database()
        db.add_fact("R", float("inf"))
        backend = SQLiteDatabase(db)
        assert set(backend.connection.execute("SELECT c0 FROM R")) \
            == {(float("inf"),)}

    def test_out_of_range_integers_rejected(self):
        with pytest.raises(SchemaError):
            Database().add_fact("R", 2 ** 70)

    def test_sql_keyword_relation_name_loads(self):
        # "Order" is a SQL keyword; every generated identifier is routed
        # through quote_identifier(), so keyword-named relations now load
        # (they used to surface a BackendError).
        db = Database()
        db.add_fact("Order", 1)
        backend = SQLiteDatabase(db)
        assert set(backend.connection.execute('SELECT c0 FROM "Order"')) \
            == {(1,)}

    def test_bad_relation_names_rejected(self):
        hostile = Database()
        hostile.add_fact("R; DROP TABLE x", 1)
        with pytest.raises(BackendError):
            SQLiteDatabase(hostile)
        shadowing = Database()
        shadowing.add_fact("R__endo", 1)
        with pytest.raises(BackendError):
            SQLiteDatabase(shadowing)

    def test_nullary_relation(self):
        db = Database()
        db.add_fact("Flag")
        db.add_fact("R", 1)
        backend = SQLiteDatabase(db)
        assert backend.arity_of("Flag") == 0
        query = ConjunctiveQuery([Atom("Flag", []), Atom("R", ["x"])])
        evaluator = SQLiteEvaluator(db, backend=backend)
        assert evaluator.holds(query)
        [valuation] = list(evaluator.valuations(query))
        assert Tuple("Flag", ()) in valuation.tuples()


class TestValuationPass:
    def test_sql_selects_all_alias_columns(self):
        sql = valuation_sql(parse_query("q(x) :- R(x, y), S(y)"))
        # Every per-atom column, not just the DISTINCT head projection.
        assert "t0.c0, t0.c1, t1.c0" in sql
        assert "DISTINCT" not in sql
        assert "t1.c0 IS t0.c1" in sql

    def test_matches_memory_on_example22(self, example22):
        assert_same_valuations(parse_query("q(x) :- R(x, y), S(y)"), example22)

    def test_matches_memory_with_constants(self, example22):
        assert_same_valuations(parse_query("q(x) :- R(x, 'a3'), S('a3')"),
                               example22)

    def test_matches_memory_on_self_join(self, example22):
        assert_same_valuations(parse_query("q(x) :- R(x, y), R(y, z)"),
                               example22)

    def test_matches_memory_on_repeated_variable(self, example22):
        assert_same_valuations(parse_query("q(x) :- R(x, x)"), example22)

    def test_matches_memory_with_annotations(self, example33_db):
        db, _ = example33_db
        query = parse_query("q :- R^n(x, y), S(y)")
        assert_same_valuations(query, db)
        assert_same_valuations(parse_query("q :- R^x(x, y), S(y)"), db)

    def test_unknown_relation_yields_nothing(self, example22):
        evaluator = SQLiteEvaluator(example22)
        query = parse_query("q(x) :- Missing(x)")
        assert list(evaluator.valuations(query)) == []
        assert not evaluator.holds(query)
        assert evaluator.answers(query) == frozenset()

    def test_null_values_round_trip(self):
        db = Database()
        db.add_fact("R", None, "a")
        db.add_fact("R", "b", "a")
        query = ConjunctiveQuery([Atom("R", [Constant(None), "y"])], head=["y"])
        evaluator = SQLiteEvaluator(db)
        assert evaluator.answers(query) == frozenset({("a",)})
        [valuation] = list(evaluator.valuations(query))
        assert valuation.atom_tuples == (Tuple("R", (None, "a")),)

    def test_null_joins_null_on_both_backends(self):
        """``None`` is an ordinary value: it joins with itself in SQL too."""
        db = Database()
        db.add_fact("R", "a", None)
        db.add_fact("R", "b", "c")
        db.add_fact("S", None)
        query = parse_query("q(x) :- R(x, y), S(y)")
        assert SQLiteEvaluator(db).answers(query) == frozenset({("a",)})
        assert QueryEvaluator(db).answers(query) == frozenset({("a",)})
        assert_same_valuations(query, db)
        assert SQLiteEvaluator(db).holds(parse_query("q :- R(x, y), S(y)"))

    def test_holds_and_answers_match_memory(self, example22):
        query = parse_query("q(x) :- R(x, y), S(y)")
        memory = QueryEvaluator(example22)
        sqlite_ = SQLiteEvaluator(example22)
        assert sqlite_.answers(query) == memory.answers(query)
        boolean = parse_query("q :- R(x, y), S(y)")
        assert sqlite_.holds(boolean) == memory.holds(boolean)
        assert not sqlite_.holds(parse_query("q :- R(x, 'zz')"))


class TestProgramExecution:
    def test_cause_program_matches_actual_causes(self, example33_db):
        db, _ = example33_db
        query = parse_query("q :- R(x, y), S(y)")
        program = generate_cause_program(query)
        backend = SQLiteDatabase(db)
        assert backend.cause_tuples(program) == actual_causes(query, db)

    def test_execute_program_rows(self, example33_db):
        db, _ = example33_db
        from repro.datalog import parse_program

        program = parse_program("Out(x) :- R(x, y), S(y)")
        rows = SQLiteDatabase(db).execute_program(program, target="Out")
        assert rows == {("a3",), ("a4",)}

    def test_invalid_sql_raises_backend_error(self, example22):
        backend = SQLiteDatabase(example22)
        with pytest.raises(BackendError):
            backend.execute_sql("SELECT * FROM Missing")


class TestWhyNoOnSQLite:
    def test_out_of_domain_value_raises_schema_error(self, example22):
        # Candidates are generated in Python on both backends; one outside
        # the value domain is rejected when the combined instance is built.
        with pytest.raises(SchemaError):
            WhyNoBatchExplainer(parse_query("q(x) :- R(x, y), S(y)"),
                                example22, non_answers=[("a9",)],
                                domains={"y": [True]}, backend="sqlite")
