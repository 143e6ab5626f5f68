"""Unit tests for the exact responsibility engine and the dispatcher."""

from fractions import Fraction

import pytest

from repro.core import (
    CausalityMode,
    brute_force_responsibility,
    exact_responsibility,
    is_valid_contingency,
    responsibilities,
    responsibility,
)
from repro.core.responsibility import CodedLineage
from repro.exceptions import CausalityError
from repro.lineage import PositiveDNF, build_whyno_instance, candidate_missing_tuples, n_lineage
from repro.relational import Database, Tuple, database_from_dict, parse_query
from repro.workloads import star_instance, star_query


def minimum_contingency_from_lineage(phi, tuple_):
    """Simplify, code and solve one formula, as the exact engine does."""
    return CodedLineage(phi.remove_redundant()).minimum_contingency(tuple_)


class TestMinimumContingencyFromLineage:
    def test_counterfactual_has_empty_contingency(self):
        phi = PositiveDNF([{"t", "u"}])
        assert minimum_contingency_from_lineage(phi, "t") == frozenset()

    def test_disjoint_witness_must_be_hit(self):
        phi = PositiveDNF([{"t"}, {"u"}, {"v"}])
        gamma = minimum_contingency_from_lineage(phi, "t")
        assert gamma == frozenset({"u", "v"})

    def test_non_cause_returns_none(self):
        phi = PositiveDNF([{"u"}])
        assert minimum_contingency_from_lineage(phi, "t") is None

    def test_trivially_true_lineage_returns_none(self):
        phi = PositiveDNF([set(), {"t"}])
        assert minimum_contingency_from_lineage(phi, "t") is None

    def test_redundant_witnesses_make_t_a_non_cause(self):
        # Both conjuncts containing t are redundant (Theorem 3.2): not a cause.
        phi = PositiveDNF([{"t", "a"}, {"t", "b"}, {"a"}, {"b"}])
        assert minimum_contingency_from_lineage(phi, "t") is None

    def test_witness_protection_forces_the_right_hitting_set(self):
        # Keeping the witness {t, a} alive forbids using 'a'; the only way to
        # hit the other conjuncts is through 'c'.
        phi = PositiveDNF([{"t", "a"}, {"c", "a"}, {"c", "b"}])
        gamma = minimum_contingency_from_lineage(phi, "t")
        assert gamma == frozenset({"c"})


class TestExactEngine:
    def test_hard_query_h1_instance(self):
        """The exact engine handles the (NP-hard) star query on a small instance."""
        query = star_query(3).with_endogenous_relations(["A1", "A2", "A3", "W"])
        db = star_instance(rays=3, per_relation=4, domain_size=3, seed=1)
        for t in sorted(db.endogenous_tuples()):
            exact = exact_responsibility(query.as_boolean(), db, t).responsibility
            brute = brute_force_responsibility(query.as_boolean(), db, t)
            assert exact == brute, t

    def test_self_join_query(self):
        db = database_from_dict({"R": [(1,), (2,)], "S": [(1, 2), (2, 1), (1, 1)]})
        db.set_relation_exogenous("S")
        q = parse_query("q :- R(x), S(x, y), R(y)")
        for t in sorted(db.endogenous_tuples()):
            exact = exact_responsibility(q, db, t).responsibility
            brute = brute_force_responsibility(q, db, t)
            assert exact == brute, t

    def test_min_contingency_is_valid(self, example22_db, example22_query):
        db, tuples = example22_db
        bq = example22_query.bind(("a4",))
        result = exact_responsibility(bq, db, tuples[("S", "a3")])
        assert is_valid_contingency(bq, db, tuples[("S", "a3")], result.min_contingency)

    def test_requires_boolean_query(self, example22_db, example22_query):
        db, _ = example22_db
        with pytest.raises(CausalityError):
            exact_responsibility(example22_query, db, Tuple("S", ("a3",)))

    def test_exogenous_tuple_gets_zero(self, example22_db, example22_query):
        db, tuples = example22_db
        db.set_endogenous(tuples[("S", "a3")], False)
        bq = example22_query.bind(("a4",))
        assert exact_responsibility(bq, db, tuples[("S", "a3")]).responsibility == 0

    def test_simplifies_the_lineage_once_per_call(self, monkeypatch):
        db = database_from_dict({"R": [(1, 2), (2, 1)], "S": [(2, 3), (1, 3)],
                                 "T": [(3, 1), (3, 2)]})
        q = parse_query("q :- R(x, y), S(y, z), T(z, x)")
        calls = []
        original = PositiveDNF.remove_redundant

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(PositiveDNF, "remove_redundant", counting)
        result = exact_responsibility(q, db, Tuple("R", (1, 2)))
        assert result.responsibility == Fraction(1, 2)
        assert len(calls) == 1


class TestDispatcher:
    def test_auto_uses_flow_for_linear_queries(self, example22_db, example22_query):
        db, tuples = example22_db
        bq = example22_query.bind(("a4",))
        result = responsibility(bq, db, tuples[("S", "a3")])
        assert result.method == "flow"
        assert result.responsibility == Fraction(1, 2)

    def test_auto_falls_back_to_exact_for_hard_queries(self):
        query = star_query(3).with_endogenous_relations(["A1", "A2", "A3", "W"]).as_boolean()
        db = star_instance(rays=3, per_relation=3, domain_size=2, seed=0)
        t = sorted(db.endogenous_tuples("A1"))[0]
        result = responsibility(query, db, t)
        assert result.method == "exact"

    def test_forced_methods(self, example22_db, example22_query):
        db, tuples = example22_db
        bq = example22_query.bind(("a4",))
        t = tuples[("S", "a3")]
        flow = responsibility(bq, db, t, method="flow")
        exact = responsibility(bq, db, t, method="exact")
        assert flow.responsibility == exact.responsibility
        assert flow.method == "flow" and exact.method == "exact"

    def test_unknown_method_rejected(self, example22_db, example22_query):
        db, tuples = example22_db
        with pytest.raises(CausalityError):
            responsibility(example22_query.bind(("a4",)), db, tuples[("S", "a3")],
                           method="quantum")

    def test_whyno_mode_uses_ptime_procedure(self):
        db = database_from_dict({"R": [("a", "b")], "S": [("c",)]})
        q = parse_query("q :- R(x, y), S(y)")
        combined = build_whyno_instance(db, candidate_missing_tuples(q, db))
        result = responsibility(q, combined, Tuple("S", ("b",)),
                                mode=CausalityMode.WHY_NO)
        assert result.method == "why-no"
        assert result.responsibility == 1
        real = exact_responsibility(q, combined, Tuple("R", ("a", "b")),
                                    mode=CausalityMode.WHY_NO)
        assert (real.responsibility, real.min_contingency, real.method) == \
            (0, None, "why-no")


class TestRankedResponsibilities:
    def test_default_tuple_set_is_the_lineage(self, example22_db, example22_query):
        db, tuples = example22_db
        bq = example22_query.bind(("a4",))
        results = responsibilities(bq, db)
        assert {r.tuple for r in results} <= n_lineage(bq, db, simplify=False).variables()
        rhos = [r.responsibility for r in results]
        assert rhos == sorted(rhos, reverse=True)

    def test_explicit_tuple_list(self, example22_db, example22_query):
        db, tuples = example22_db
        bq = example22_query.bind(("a4",))
        subset = [tuples[("S", "a3")], tuples[("S", "a6")]]
        results = responsibilities(bq, db, tuples=subset)
        assert len(results) == 2
        assert results[0].responsibility >= results[1].responsibility
