"""Backend sessions and recorded deltas: the snapshot seam.

Pins the :class:`DatabaseDelta` semantics (deletes-first, upsert inserts,
flip detection), the in-place mutation of both backends through one
:class:`BackendSession` interface, and the SQL-side grouping satellites
(``GROUP BY`` head columns for answer sets, head-ordered streaming for
grouped valuations).
"""

import json

import pytest

from repro.exceptions import CausalityError
from repro.relational import (
    Database,
    DatabaseDelta,
    MemorySession,
    QueryEvaluator,
    SQLiteEvaluator,
    SQLiteSession,
    open_session,
    parse_query,
)
from repro.relational.tuples import Tuple

QUERY = parse_query("q(x) :- R(x, y), S(y)")


def small_db():
    db = Database()
    db.add_fact("R", "a2", "a1")
    db.add_fact("R", "a4", "a3")
    db.add_fact("S", "a1")
    db.add_fact("S", "a3", endogenous=False)
    return db


class TestDatabaseDelta:
    def test_deletes_apply_before_inserts(self):
        db = Database()
        r = db.add_fact("R", "a", "b")
        delta = DatabaseDelta(deletes=[r], inserts=[(r, False)])
        changed = delta.apply_to(db)
        assert db.contains(r) and db.is_exogenous(r)
        assert changed == {r}  # net effect: a partition flip

    def test_noop_changes_are_filtered(self):
        db = small_db()
        delta = DatabaseDelta(
            deletes=[Tuple("R", ("nope", "nope"))],
            inserts=[(Tuple("S", ("a1",)), True)])
        assert delta.changed_tuples(db) == frozenset()
        assert not delta.is_empty() and len(delta) == 2

    def test_flip_is_a_change(self):
        db = small_db()
        delta = DatabaseDelta(inserts=[(Tuple("S", ("a1",)), False)])
        assert delta.changed_tuples(db) == {Tuple("S", ("a1",))}
        delta.apply_to(db)
        assert db.is_exogenous(Tuple("S", ("a1",)))

    def test_json_round_trip(self, tmp_path):
        delta = DatabaseDelta(
            inserts=[Tuple("R", ("x", "y")), (Tuple("T", (1,)), True)],
            deletes=[Tuple("S", ("a1",))])
        payload = delta.to_dict()
        path = tmp_path / "delta.json"
        path.write_text(json.dumps(payload))
        loaded = DatabaseDelta.from_json_file(str(path))
        assert loaded.insert_items() == delta.insert_items()
        assert loaded.delete_tuples() == delta.delete_tuples()

    def test_unknown_keys_rejected(self):
        with pytest.raises(CausalityError):
            DatabaseDelta.from_dict({"upsert": {}})

    def test_malformed_insert_rejected(self):
        with pytest.raises(CausalityError):
            DatabaseDelta(inserts=[("not a tuple", True)])

    def test_schema_violation_leaves_database_untouched(self):
        from repro.exceptions import SchemaError
        from repro.relational import RelationSchema, Schema

        schema = Schema([RelationSchema("R", arity=2)])
        db = Database(schema=schema)
        db.add_fact("R", "a", "b")
        bad = DatabaseDelta(deletes=[Tuple("R", ("a", "b"))],
                            inserts=[Tuple("R", ("only-one-value",))])
        with pytest.raises(SchemaError):
            bad.apply_to(db)
        assert db.contains(Tuple("R", ("a", "b")))  # delete did not land


class TestSessions:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_apply_delta_keeps_evaluator_in_sync(self, backend):
        db = small_db()
        session = open_session(db, backend=backend)
        assert sorted(session.evaluator.answers(QUERY)) == [("a2",), ("a4",)]
        changed = session.apply_delta(DatabaseDelta(
            deletes=[Tuple("S", ("a3",))],
            inserts=[Tuple("R", ("a7", "a1"))]))
        assert changed == {Tuple("S", ("a3",)), Tuple("R", ("a7", "a1"))}
        assert sorted(session.evaluator.answers(QUERY)) == [("a2",), ("a7",)]

    def test_unknown_backend_rejected(self):
        with pytest.raises(CausalityError):
            open_session(small_db(), backend="duckdb")

    def test_session_validates_database_identity(self):
        from repro.engine import BatchExplainer

        db = small_db()
        session = MemorySession(db)
        with pytest.raises(CausalityError):
            BatchExplainer(QUERY, small_db(), session=session)

    def test_sqlite_session_mutates_in_place_not_reload(self):
        db = small_db()
        session = SQLiteSession(db)
        loaded = session.snapshot()
        session.apply_delta(DatabaseDelta(
            inserts=[(Tuple("S", ("a9",)), True),
                     (Tuple("NewRel", ("v",)), False)],
            deletes=[Tuple("R", ("a2", "a1"))]))
        assert session.snapshot() is loaded  # same connection, no re-load
        rows = loaded.execute_sql("SELECT c0, is_endogenous FROM S")
        assert ("a9", 1) in rows and ("a3", 0) in rows
        assert loaded.execute_sql("SELECT c0 FROM NewRel") == {("v",)}
        assert loaded.execute_sql("SELECT c0 FROM R") == {("a4",)}

    def test_sqlite_upsert_updates_endogenous_flag(self):
        db = small_db()
        session = SQLiteSession(db)
        session.apply_delta(DatabaseDelta(
            inserts=[(Tuple("S", ("a1",)), False)]))
        rows = session.snapshot().execute_sql(
            "SELECT c0, is_endogenous FROM S")
        assert ("a1", 0) in rows
        assert len([r for r in rows if r[0] == "a1"]) == 1  # no duplicate row

    def test_rejected_delta_leaves_session_consistent(self):
        """Backend validation runs before the Python database is touched."""
        from repro.exceptions import BackendError

        db = small_db()
        session = SQLiteSession(db)
        # The name collides with S's partition view in SQLite; memory
        # would take this.
        bad = DatabaseDelta(inserts=[Tuple("S__endo", ("a9",))],
                            deletes=[Tuple("S", ("a1",))])
        with pytest.raises(BackendError):
            session.apply_delta(bad)
        # Neither side applied anything: both still answer like before.
        assert db.contains(Tuple("S", ("a1",)))
        assert not db.contains(Tuple("S__endo", ("a9",)))
        assert sorted(session.evaluator.answers(QUERY)) == [("a2",), ("a4",)]

    def test_schema_rejected_delta_leaves_backend_consistent(self):
        """The Python-side schema check runs before any backend mutation."""
        from repro.exceptions import SchemaError
        from repro.relational import RelationSchema, Schema

        schema = Schema([RelationSchema("R", arity=2),
                         RelationSchema("S", arity=1)])
        db = Database(schema=schema)
        db.add_fact("R", "a2", "a1")
        db.add_fact("S", "a1")
        session = SQLiteSession(db)
        bad = DatabaseDelta(inserts=[Tuple("R", ("c", "a1")),
                                     Tuple("T", ("oops",))])
        with pytest.raises(SchemaError):
            session.apply_delta(bad)
        # The backend saw nothing: the rejected R insert is not an answer.
        assert sorted(session.evaluator.answers(QUERY)) == [("a2",)]
        assert "T" not in session.snapshot().relations()

    def test_render_cache_is_bounded(self):
        db = small_db()
        evaluator = SQLiteEvaluator(db)
        for i in range(evaluator._RENDER_CACHE_SIZE + 50):
            evaluator.holds(parse_query(f"q :- R(x, '{i}')"))
        assert len(evaluator._rendered) <= evaluator._RENDER_CACHE_SIZE

    def test_set_all_exogenous(self):
        db = small_db()
        session = SQLiteSession(db)
        session.snapshot().set_all_exogenous()
        rows = session.snapshot().execute_sql(
            "SELECT is_endogenous FROM R UNION SELECT is_endogenous FROM S")
        assert rows == {(0,)}


class TestSQLGrouping:
    def test_answers_uses_group_by_and_matches_memory(self):
        db = small_db()
        evaluator = SQLiteEvaluator(db)
        rendered = evaluator._render(QUERY)
        assert "GROUP BY" in rendered.answers_sql
        assert evaluator.answers(QUERY) == QueryEvaluator(db).answers(QUERY)

    def test_answers_with_constant_head_terms(self):
        from repro.relational import Atom, ConjunctiveQuery, Constant, Variable

        db = small_db()
        # Mixed head (variable + constant) and all-constant head.
        mixed = ConjunctiveQuery(
            [Atom("R", [Variable("x"), Variable("y")]),
             Atom("S", [Variable("y")])],
            head=[Variable("x"), Constant("hit")])
        assert SQLiteEvaluator(db).answers(mixed) \
            == QueryEvaluator(db).answers(mixed)
        constant_only = ConjunctiveQuery(
            [Atom("S", [Variable("y")])], head=[Constant("hit")])
        assert SQLiteEvaluator(db).answers(constant_only) \
            == frozenset({("hit",)})
        empty = ConjunctiveQuery(
            [Atom("Missing", [Variable("y")])], head=[Constant("hit")])
        assert SQLiteEvaluator(db).answers(empty) == frozenset()

    def test_grouped_valuations_match_ungrouped(self):
        db = small_db()
        db.add_fact("R", "a4", "a1")
        evaluator = SQLiteEvaluator(db)
        grouped = {head: sorted(v.tuples() for v in vals)
                   for head, vals in evaluator.grouped_valuations(QUERY)}
        flat = {}
        for valuation in evaluator.valuations(QUERY):
            head = (valuation.assignment[next(
                t for t in QUERY.head if hasattr(t, "name"))],)
            flat.setdefault(head, []).append(valuation.tuples())
        assert grouped == {h: sorted(v) for h, v in flat.items()}
