"""Property-based tests (hypothesis) for the core invariants.

The central properties:

* Theorem 3.2 — the lineage-based cause set equals the definitional
  (brute-force) cause set on random instances;
* Theorem 3.4 — the generated Datalog program agrees with the lineage
  algorithm;
* Theorem 4.5 / Lemma 4.10 — the flow algorithm agrees with brute force on
  random instances of linear and weakly linear queries;
* the DNF simplification preserves semantics;
* responsibilities are always in [0, 1] and equal 1 exactly for
  counterfactual causes.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    actual_causes,
    brute_force_is_cause,
    brute_force_responsibility,
    causes_via_datalog,
    counterfactual_causes,
    exact_responsibility,
    flow_responsibility,
    flow_responsibility_value,
    is_counterfactual_cause,
    is_valid_contingency,
)
from repro.exceptions import NotLinearError
from repro.lineage import PositiveDNF
from repro.relational import Database, parse_query


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
values = st.integers(min_value=0, max_value=2)


@st.composite
def rs_databases(draw):
    """Small random instances for q :- R(x, y), S(y) with mixed partitions."""
    db = Database()
    r_rows = draw(st.lists(st.tuples(values, values), min_size=1, max_size=5))
    s_rows = draw(st.lists(values, min_size=1, max_size=4))
    r_flags = draw(st.lists(st.booleans(), min_size=len(r_rows), max_size=len(r_rows)))
    s_flags = draw(st.lists(st.booleans(), min_size=len(s_rows), max_size=len(s_rows)))
    for (x, y), endo in zip(r_rows, r_flags):
        db.add_fact("R", x, y, endogenous=endo)
    for y, endo in zip(s_rows, s_flags):
        db.add_fact("S", y, endogenous=endo)
    return db


@st.composite
def chain_databases(draw):
    """Small random instances for the linear query q :- R(x, y), S(y, z)."""
    db = Database()
    for x, y in draw(st.lists(st.tuples(values, values), min_size=1, max_size=4)):
        db.add_fact("R", x, y)
    for y, z in draw(st.lists(st.tuples(values, values), min_size=1, max_size=4)):
        db.add_fact("S", y, z)
    return db


@st.composite
def triangle_databases(draw, with_v):
    """Small instances for the dissociating triangles of Example 4.12.

    Without ``V`` (4.12-a) ``S`` is exogenous and ``R``, ``T`` endogenous, as
    the query's annotations say; with ``V`` (4.12-b) each relation's status
    is drawn.  Statuses are per relation, the setting of Theorem 4.5.
    """
    db = Database()
    pairs = st.lists(st.tuples(values, values), min_size=1, max_size=4)
    for relation in "RST":
        endogenous = draw(st.booleans()) if with_v else relation != "S"
        for x, y in draw(pairs):
            db.add_fact(relation, x, y, endogenous=endogenous)
    if with_v:
        endogenous = draw(st.booleans())
        for x in draw(st.lists(values, min_size=1, max_size=3)):
            db.add_fact("V", x, endogenous=endogenous)
    return db


@st.composite
def dnf_formulas(draw):
    variables = "abcdef"
    conjuncts = draw(st.lists(
        st.sets(st.sampled_from(variables), min_size=0, max_size=4),
        min_size=0, max_size=5))
    return PositiveDNF(conjuncts)


RS_QUERY = parse_query("q :- R(x, y), S(y)")
CHAIN_QUERY = parse_query("q :- R(x, y), S(y, z)")
TRIANGLE_A_QUERY = parse_query("q :- R^n(x, y), S^x(y, z), T^n(z, x)")
TRIANGLE_B_QUERY = parse_query("q :- R(x, y), S(y, z), T(z, x), V(x)")

relaxed = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------- #
# DNF properties
# --------------------------------------------------------------------------- #
class TestDNFProperties:
    @relaxed
    @given(dnf_formulas(), st.sets(st.sampled_from("abcdef")))
    def test_redundancy_removal_preserves_semantics(self, phi, assignment):
        assert phi.evaluate(assignment) == phi.remove_redundant().evaluate(assignment)

    @relaxed
    @given(dnf_formulas())
    def test_minimal_conjuncts_are_antichain(self, phi):
        minimal = phi.remove_redundant().conjuncts
        for a in minimal:
            for b in minimal:
                assert not (a < b)

    @relaxed
    @given(dnf_formulas(), st.sampled_from("abcdef"))
    def test_setting_variable_false_never_adds_witnesses(self, phi, variable):
        restricted = phi.set_false([variable])
        assert restricted.conjuncts <= phi.conjuncts


# --------------------------------------------------------------------------- #
# Theorem 3.2 / 3.4 properties
# --------------------------------------------------------------------------- #
class TestCausalityProperties:
    @relaxed
    @given(rs_databases())
    def test_lineage_causes_match_definition(self, db):
        fast = actual_causes(RS_QUERY, db)
        for t in db.endogenous_tuples():
            assert (t in fast) == brute_force_is_cause(RS_QUERY, db, t)

    @relaxed
    @given(rs_databases())
    def test_datalog_causes_match_lineage_causes(self, db):
        assert causes_via_datalog(RS_QUERY, db) == actual_causes(RS_QUERY, db)

    @relaxed
    @given(rs_databases())
    def test_counterfactual_causes_have_responsibility_one(self, db):
        for t in counterfactual_causes(RS_QUERY, db):
            assert is_counterfactual_cause(RS_QUERY, db, t)
            assert brute_force_responsibility(RS_QUERY, db, t) == 1


# --------------------------------------------------------------------------- #
# responsibility properties
# --------------------------------------------------------------------------- #
class TestResponsibilityProperties:
    @relaxed
    @given(chain_databases())
    def test_flow_matches_brute_force_on_linear_query(self, db):
        for t in sorted(db.endogenous_tuples()):
            assert flow_responsibility_value(CHAIN_QUERY, db, t) == \
                brute_force_responsibility(CHAIN_QUERY, db, t)

    @relaxed
    @given(st.booleans().flatmap(
        lambda with_v: st.tuples(st.just(with_v), triangle_databases(with_v))))
    def test_flow_on_dissociating_queries_matches_exact(self, case):
        """Lemma 4.10 on the lineage sub-instance: the dissociated variables'
        domains come from the valuations, and ρ and Γ stay right."""
        with_v, db = case
        query = TRIANGLE_B_QUERY if with_v else TRIANGLE_A_QUERY
        for t in sorted(db.endogenous_tuples()):
            try:
                result = flow_responsibility(query, db, t)
            except NotLinearError:
                continue
            assert any(result.weakening.added_variables().values())
            assert result.responsibility == \
                exact_responsibility(query, db, t).responsibility
            if result.responsibility:
                gamma = result.min_contingency
                assert result.responsibility == Fraction(1, 1 + len(gamma))
                assert is_valid_contingency(query, db, t, gamma)

    @relaxed
    @given(rs_databases())
    def test_exact_engine_matches_brute_force(self, db):
        for t in sorted(db.endogenous_tuples()):
            assert exact_responsibility(RS_QUERY, db, t).responsibility == \
                brute_force_responsibility(RS_QUERY, db, t)

    @relaxed
    @given(chain_databases())
    def test_responsibility_is_a_probability_like_score(self, db):
        for t in sorted(db.endogenous_tuples()):
            rho = flow_responsibility_value(CHAIN_QUERY, db, t)
            assert 0 <= rho <= 1
            # Definition 2.3: ρ is 0 or the reciprocal of a positive integer.
            assert rho == 0 or rho.numerator == 1

    @relaxed
    @given(chain_databases())
    def test_causes_are_exactly_the_positive_responsibility_tuples(self, db):
        causes = actual_causes(CHAIN_QUERY, db)
        for t in sorted(db.endogenous_tuples()):
            rho = flow_responsibility_value(CHAIN_QUERY, db, t)
            assert (rho > 0) == (t in causes)
