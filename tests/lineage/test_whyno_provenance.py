"""Unit tests for the Why-No candidate generation and instance construction."""

import pytest

from repro.exceptions import CausalityError
from repro.lineage import (
    build_whyno_instance,
    candidate_missing_tuples,
    whyno_instance_for_answer,
)
from repro.relational import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Tuple,
    database_from_dict,
    evaluate_boolean,
    parse_query,
)


@pytest.fixture
def small_db():
    return database_from_dict({"R": [("a", "b")], "S": [("c",)]})


class TestCandidateGeneration:
    def test_candidates_complete_a_witness(self, small_db):
        q = parse_query("q :- R(x, y), S(y)")
        candidates = candidate_missing_tuples(q, small_db)
        combined = build_whyno_instance(small_db, candidates)
        assert evaluate_boolean(q, combined)

    def test_existing_tuples_are_not_candidates(self, small_db):
        q = parse_query("q :- R(x, y), S(y)")
        candidates = candidate_missing_tuples(q, small_db)
        assert Tuple("R", ("a", "b")) not in candidates
        assert Tuple("S", ("c",)) not in candidates

    def test_domains_restrict_candidates(self, small_db):
        q = parse_query("q :- R(x, y), S(y)")
        candidates = candidate_missing_tuples(q, small_db, domains={"x": ["a"], "y": ["b"]})
        assert candidates == frozenset({Tuple("S", ("b",))})

    def test_active_domain_product_around_a_constant(self, small_db):
        q = parse_query("q :- R('a', y), S(y)")
        assert candidate_missing_tuples(q, small_db) == frozenset({
            Tuple("R", ("a", "a")), Tuple("R", ("a", "c")),
            Tuple("S", ("a",)), Tuple("S", ("b",))})

    def test_custom_domains_beyond_the_active_domain(self, small_db):
        q = parse_query("q :- R(x, y), S(y)")
        candidates = candidate_missing_tuples(
            q, small_db, domains={"x": ["a"], "y": ["c", "d"]})
        assert candidates == frozenset({
            Tuple("R", ("a", "c")), Tuple("R", ("a", "d")),
            Tuple("S", ("d",))})

    def test_all_constant_atoms(self, small_db):
        q = ConjunctiveQuery([
            Atom("R", [Constant("zz"), Constant("zz")]),
            Atom("S", [Constant("c")]),
        ])
        # S('c') is already present, so only the R atom yields a candidate.
        assert candidate_missing_tuples(q, small_db) == frozenset(
            {Tuple("R", ("zz", "zz"))})

    def test_max_candidates_guard(self, small_db):
        q = parse_query("q :- R(x, y), S(y)")
        with pytest.raises(CausalityError):
            candidate_missing_tuples(q, small_db, max_candidates=1)

    def test_non_boolean_query_rejected(self, small_db):
        q = parse_query("q(x) :- R(x, y)")
        with pytest.raises(CausalityError):
            candidate_missing_tuples(q, small_db)


class TestWhyNoInstance:
    def test_partition_of_combined_instance(self, small_db):
        q = parse_query("q :- R(x, y), S(y)")
        candidates = candidate_missing_tuples(q, small_db)
        combined = build_whyno_instance(small_db, candidates)
        # real tuples exogenous, candidates endogenous
        assert combined.is_exogenous(Tuple("R", ("a", "b")))
        for candidate in candidates:
            assert combined.is_endogenous(candidate)

    def test_existing_candidate_not_duplicated(self, small_db):
        combined = build_whyno_instance(small_db, [Tuple("R", ("a", "b"))])
        assert combined.size("R") == 1
        # an already-present tuple stays exogenous
        assert combined.is_exogenous(Tuple("R", ("a", "b")))

    def test_wrapper_rejects_actual_answers(self):
        db = database_from_dict({"R": [("a", "b")], "S": [("b",)]})
        q = parse_query("q(x) :- R(x, y), S(y)")
        with pytest.raises(CausalityError):
            whyno_instance_for_answer(q, db, ("a",))

    def test_wrapper_builds_boolean_query_and_instance(self, small_db):
        q = parse_query("q(x) :- R(x, y), S(y)")
        boolean_query, combined = whyno_instance_for_answer(q, small_db, ("a",))
        assert boolean_query.is_boolean
        assert evaluate_boolean(boolean_query, combined)
