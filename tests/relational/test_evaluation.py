"""Unit tests for conjunctive query evaluation (valuations, answers, Boolean)."""

import pytest

from repro.relational import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Database,
    QueryEvaluator,
    Tuple,
    database_from_dict,
    evaluate,
    evaluate_boolean,
    find_valuations,
    greedy_atom_order,
    is_answer,
    parse_query,
)


@pytest.fixture
def rs_db():
    return database_from_dict({
        "R": [("a1", "a5"), ("a2", "a1"), ("a3", "a3"), ("a4", "a3"), ("a4", "a2")],
        "S": [("a1",), ("a2",), ("a3",), ("a4",), ("a6",)],
    })


class TestAnswers:
    def test_example22_answers(self, rs_db):
        q = parse_query("q(x) :- R(x, y), S(y)")
        assert evaluate(q, rs_db) == frozenset({("a2",), ("a3",), ("a4",)})

    def test_is_answer(self, rs_db):
        q = parse_query("q(x) :- R(x, y), S(y)")
        assert is_answer(q, rs_db, ("a2",))
        assert not is_answer(q, rs_db, ("a1",))

    def test_boolean_query_true_false(self, rs_db):
        assert evaluate_boolean(parse_query("q :- R(x, y), S(y)"), rs_db)
        # R(a3, a3) exists, so a self-loop joined with S is true; a constant
        # that never occurs in the first column makes the query false.
        assert evaluate_boolean(parse_query("q :- R(x, x), S(x)"), rs_db)
        assert not evaluate_boolean(parse_query("q :- R('a6', y), S(y)"), rs_db)

    def test_constants_filter(self, rs_db):
        q = ConjunctiveQuery([Atom("R", ["x", Constant("a3")])], head=["x"])
        assert evaluate(q, rs_db) == frozenset({("a3",), ("a4",)})

    def test_projection_of_head_constants(self, rs_db):
        q = ConjunctiveQuery([Atom("S", ["y"])], head=[Constant("fixed"), "y"])
        answers = evaluate(q, rs_db)
        assert ("fixed", "a1") in answers and len(answers) == 5

    def test_boolean_answer_set_encoding(self, rs_db):
        true_q = parse_query("q :- S(y)")
        false_q = parse_query("q :- S(y), R(y, 'a9')")
        assert evaluate(true_q, rs_db) == frozenset({()})
        assert evaluate(false_q, rs_db) == frozenset()


class TestValuations:
    def test_valuation_count_equals_join_size(self, rs_db):
        q = parse_query("q :- R(x, y), S(y)")
        valuations = find_valuations(q, rs_db)
        # R tuples with y in S: (a2,a1), (a3,a3), (a4,a3), (a4,a2) -> 4
        assert len(valuations) == 4

    def test_valuation_tuples_and_assignment_agree(self, rs_db):
        q = parse_query("q :- R(x, y), S(y)")
        for valuation in find_valuations(q, rs_db):
            r_tuple = valuation.atom_tuples[0]
            assert r_tuple.relation == "R"
            assert valuation.assignment[next(iter(q.atoms[0].variables() - q.atoms[1].variables()))] == r_tuple.values[0]

    def test_repeated_variable_in_atom(self):
        db = database_from_dict({"R": [(1, 1), (1, 2)]})
        q = parse_query("q :- R(x, x)")
        valuations = find_valuations(q, db)
        assert len(valuations) == 1
        assert valuations[0].atom_tuples[0].values == (1, 1)

    def test_self_join_valuations(self):
        db = database_from_dict({"R": [(1, 2), (2, 3)]})
        q = parse_query("q :- R(x, y), R(y, z)")
        valuations = find_valuations(q, db)
        assert len(valuations) == 1
        assert valuations[0].assignment[list(q.variables())[0]] is not None

    def test_empty_relation_means_no_valuations(self):
        db = database_from_dict({"R": [(1, 2)]})
        q = parse_query("q :- R(x, y), Missing(y)")
        assert find_valuations(q, db) == []


class TestAnnotations:
    def test_endogenous_annotation_restricts_matching(self):
        db = Database()
        db.add_fact("R", 1, endogenous=True)
        db.add_fact("R", 2, endogenous=False)
        endo_only = parse_query("q(x) :- R^n(x)")
        exo_only = parse_query("q(x) :- R^x(x)")
        both = parse_query("q(x) :- R(x)")
        assert evaluate(endo_only, db) == frozenset({(1,)})
        assert evaluate(exo_only, db) == frozenset({(2,)})
        assert evaluate(both, db) == frozenset({(1,), (2,)})


class TestGreedyOrderAndSemijoin:
    def test_order_starts_at_the_most_selective_atom(self, rs_db):
        # R(x, 'a3') has 2 candidates, S(y) has 5: the constrained atom seeds.
        q = parse_query("q :- S(y), R(x, 'a3')")
        assert greedy_atom_order(q, rs_db)[0] == 1

    def test_order_grows_along_shared_variables(self, rs_db):
        q = parse_query("q :- R(x, y), S(y), R2(z, w)")
        db = database_from_dict({
            "R": [("a", "b")], "S": [("b",), ("c",)], "R2": [(1, 2), (3, 4)],
        })
        order = greedy_atom_order(q, db)
        # After seeding with R (1 tuple), S shares y and is placed before the
        # disconnected R2.
        assert order.index(1) < order.index(2)

    def test_unsatisfiable_query_gets_identity_order(self, rs_db):
        q = parse_query("q :- R(x, 'zz'), S(x)")
        assert greedy_atom_order(q, rs_db) == [0, 1]

    def test_semijoin_prunes_dangling_tuples(self):
        db = database_from_dict({
            "R": [(i, i + 1) for i in range(10)],
            "S": [(5, 99)],
        })
        q = parse_query("q :- R(x, y), S(y, z)")
        evaluator = QueryEvaluator(db)
        plans = evaluator._build_plans(q)
        # Only R(4, 5) joins with S(5, 99); everything else is pruned away.
        assert [p.count for p in plans] == [1, 1]
        assert [row for p in plans
                for row in p.store.gather(p.rowids, {})[0]] == [
            Tuple("R", (4, 5)), Tuple("S", (5, 99))]


class TestEvaluatorReuse:
    def test_reusing_one_evaluator_for_many_queries(self, rs_db):
        evaluator = QueryEvaluator(rs_db)
        q1 = parse_query("q(x) :- R(x, y)")
        q2 = parse_query("q(y) :- S(y)")
        assert len(evaluator.answers(q1)) == 4
        assert len(evaluator.answers(q2)) == 5
