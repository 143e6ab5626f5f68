"""One arity per relation, and arity-mismatched atoms match nothing.

``Database.add`` and ``DatabaseDelta.validate_against`` reject a tuple whose
arity differs from its relation's existing tuples, so both backends hold one
arity per relation.  An atom whose arity differs from its relation's then
matches no tuple, on the memory kernel and on SQLite alike.
"""

import pytest

from repro.engine import BatchExplainer, WhyNoBatchExplainer
from repro.exceptions import SchemaError
from repro.relational import Database, DatabaseDelta, Tuple, parse_query
from repro.relational.session import open_session

BACKENDS = ["memory", "sqlite"]


def r_ab_s_a():
    db = Database()
    db.add_fact("R", "a", "b")
    db.add_fact("S", "a")
    return db


class TestOneArityPerRelation:
    def test_add_rejects_a_second_arity(self):
        db = r_ab_s_a()
        with pytest.raises(SchemaError, match="arity 2, got 1"):
            db.add_fact("R", "c")
        assert db.tuples_of("R") == {Tuple("R", ("a", "b"))}

    def test_an_emptied_relation_takes_a_new_arity(self):
        db = r_ab_s_a()
        db.remove(Tuple("R", ("a", "b")))
        db.add_fact("R", "c")
        assert db.arity_of("R") == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_relation_emptied_by_a_delta_is_refilled_at_another_arity(
            self, backend):
        query = parse_query("q(x) :- R(x), S(x)")
        explainer = BatchExplainer(query, r_ab_s_a(), backend=backend)
        assert explainer.answers() == []
        explainer.refresh(DatabaseDelta(deletes=[Tuple("R", ("a", "b"))]))
        explainer.refresh(DatabaseDelta(inserts=[Tuple("R", ("a",))]))
        assert explainer.answers() == [("a",)]
        assert [c.tuple for c in explainer.explain(("a",)).ranked()] == [
            Tuple("R", ("a",)), Tuple("S", ("a",))]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_delta_against_existing_tuples_is_rejected(self, backend):
        db = r_ab_s_a()
        session = open_session(db, backend=backend)
        try:
            with pytest.raises(SchemaError):
                session.apply_delta(DatabaseDelta(
                    inserts=[Tuple("S", ("b", "c"))],
                    deletes=[Tuple("R", ("a", "b"))]))
            assert db.contains(Tuple("R", ("a", "b")))
            assert sorted(session.evaluator.answers(
                parse_query("q(x) :- R(x, y), S(x)"))) == [("a",)]
        finally:
            session.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_delta_inserting_two_arities_is_rejected(self, backend):
        db = r_ab_s_a()
        session = open_session(db, backend=backend)
        try:
            with pytest.raises(SchemaError, match="inserts of arity"):
                session.apply_delta(DatabaseDelta(
                    inserts=[Tuple("T", ("a",)), Tuple("T", ("a", "b"))]))
            assert db.arity_of("T") is None
        finally:
            session.close()


class TestMismatchedAtomsMatchNothing:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("text", [
        "q(x) :- R(x), S(x)",           # narrower than R
        "q(x) :- R(x, y, z), S(x)",     # wider than R
        "q() :- R('a'), S('a')",        # constants only
    ])
    def test_no_answers_no_valuations_no_causes(self, backend, text):
        query = parse_query(text)
        db = r_ab_s_a()
        session = open_session(db, backend=backend)
        try:
            evaluator = session.evaluator
            assert list(evaluator.valuations(query)) == []
            assert evaluator.answers(query) == frozenset()
            assert not evaluator.holds(query.as_boolean())
        finally:
            session.close()
        explainer = BatchExplainer(query, r_ab_s_a(), backend=backend)
        try:
            assert explainer.answers() == []
        finally:
            explainer.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matching_atoms_still_answer(self, backend):
        explainer = BatchExplainer(parse_query("q(x) :- R(x, y), S(x)"),
                                   r_ab_s_a(), backend=backend)
        try:
            assert explainer.answers() == [("a",)]
            assert {str(c.tuple) for c in explainer.explain(("a",))} \
                == {"R('a', 'b')", "S('a')"}
        finally:
            explainer.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_whyno_candidates_of_a_mismatched_atom_are_rejected(self, backend):
        # A Why-No candidate for R(x) would be a unary R tuple beside a
        # binary one: both backends refuse it with the same typed error.
        with pytest.raises(SchemaError, match="arity 2, got 1"):
            WhyNoBatchExplainer(parse_query("q(x) :- R(x), S(x)"),
                                r_ab_s_a(), non_answers=[("a",)],
                                backend=backend)
