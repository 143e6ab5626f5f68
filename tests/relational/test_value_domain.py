"""One value domain at the input boundary, the same on both backends.

``Database.add`` and ``DatabaseDelta.validate_against`` check every value
(:func:`repro.relational.tuples.check_values`), so a value the SQLite
backend could not store exactly is rejected with the same
:class:`SchemaError` on the memory backend too, before either side
mutates.  Values inside the domain give identical explanations on both.
"""

import pytest

from repro.engine import BatchExplainer, WhyNoBatchExplainer
from repro.exceptions import SchemaError
from repro.relational import Database, DatabaseDelta, open_session, parse_query
from repro.relational.tuples import Tuple

BACKENDS = ["memory", "sqlite"]

QUERY = parse_query("q(x) :- R(x, y), S(y)")

OUTSIDE = [
    pytest.param(True, id="bool"),
    pytest.param(False, id="bool-false"),
    pytest.param(2 ** 63, id="int-above-int64"),
    pytest.param(-2 ** 63 - 1, id="int-below-int64"),
    pytest.param(2 ** 70, id="int-2**70"),
    pytest.param(float("nan"), id="nan"),
    pytest.param((1, 2), id="tuple"),
    pytest.param(frozenset(), id="frozenset"),
]

INSIDE = [None, "", "a", b"", b"\x00b", 0, -1, 2 ** 63 - 1, -2 ** 63,
          1.5, float("inf"), float("-inf")]


def small_db():
    db = Database()
    db.add_fact("R", "a", "b")
    db.add_fact("S", "b")
    return db


def ranking(explanation):
    return [(c.tuple, c.responsibility, c.contingency)
            for c in explanation.ranked()]


class TestDatabaseAdd:
    @pytest.mark.parametrize("value", OUTSIDE)
    def test_outside_value_is_rejected_and_not_added(self, value):
        db = small_db()
        with pytest.raises(SchemaError):
            db.add_fact("S", value)
        assert db.size() == 2

    @pytest.mark.parametrize("value", INSIDE)
    def test_inside_value_is_accepted(self, value):
        db = Database()
        db.add_fact("R", value)
        assert db.size() == 1


class TestDeltaRejectedOnBothBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("value", OUTSIDE)
    def test_rejected_before_either_side_mutates(self, backend, value):
        db = small_db()
        session = open_session(db, backend=backend)
        try:
            bad = DatabaseDelta(inserts=[Tuple("S", (value,))],
                                deletes=[Tuple("S", ("b",))])
            with pytest.raises(SchemaError):
                session.apply_delta(bad)
            assert db.contains(Tuple("S", ("b",)))
            assert session.evaluator.answers(QUERY) == frozenset({("a",)})
        finally:
            session.close()


class TestBothBackendsAgree:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_out_of_domain_whyno_value_is_rejected(self, backend):
        # A bool in a Why-No domain used to explain [R('c', True), S(True)]
        # on memory and raise BackendError on SQLite.
        db = small_db()
        with pytest.raises(SchemaError):
            WhyNoBatchExplainer(QUERY, db, non_answers=[("c",)],
                                domains={"y": [True]}, backend=backend)

    def test_inside_values_explain_alike(self):
        db = Database()
        for value in INSIDE:
            db.add_fact("R", "x", value)
            db.add_fact("S", value)
        db.add_fact("R", b"k", 2 ** 63 - 1)
        results = {
            backend: BatchExplainer(QUERY, db.copy(),
                                    backend=backend).explain_all()
            for backend in BACKENDS
        }
        memory, sqlite = results["memory"], results["sqlite"]
        assert list(memory) == list(sqlite) == [(b"k",), ("x",)]
        for answer in memory:
            assert ranking(memory[answer]) == ranking(sqlite[answer])

    def test_inside_domain_whyno_values_explain_alike(self):
        db = small_db()
        domains = {"y": [b"b", 2 ** 63 - 1, float("inf"), None]}
        results = {
            backend: WhyNoBatchExplainer(
                QUERY, db.copy(), non_answers=[("c",)], domains=domains,
                backend=backend).explain_all()
            for backend in BACKENDS
        }
        assert ranking(results["memory"][("c",)]) == \
            ranking(results["sqlite"][("c",)])
