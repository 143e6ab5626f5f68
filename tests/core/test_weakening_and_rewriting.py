"""Unit tests for weakening (Def. 4.9), rewriting (Def. 4.6) and hardness
certificates (Theorem 4.13 machinery)."""

import pytest

from repro.core import (
    abstract_query,
    canonical_h1,
    canonical_h2,
    canonical_h3,
    find_weakening,
    hardness_certificate,
    is_final,
    is_linear,
    is_weakly_linear,
    matches_canonical_hard_query,
)
from repro.core.rewriting import (
    add_variable,
    all_rewrites,
    delete_atom,
    delete_variable,
)
from repro.core.weakening import (
    apply_dominations,
    dissociation_moves,
    domination_candidates,
)
from repro.relational import parse_query


def q(text):
    return abstract_query(parse_query(text))


class TestDomination:
    def test_unary_atom_dominates_superset(self):
        query = q("q :- V^n(x), R^n(x, y)")
        candidates = domination_candidates(query)
        assert candidates and query.atoms[candidates[0][0]].label == "R"
        dominated, steps = apply_dominations(query)
        assert not dominated.atoms[candidates[0][0]].endogenous
        assert len(steps) == 1

    def test_exogenous_atoms_cannot_dominate(self):
        query = q("q :- V^x(x), R^n(x, y)")
        assert domination_candidates(query) == []

    def test_protection_prevents_domination(self):
        query = q("q :- V^n(x), R^n(x, y)")
        assert domination_candidates(query, protect=frozenset({"R"})) == []

    def test_only_a_protected_atom_may_dominate(self):
        """R, S, T is a linear chain: protecting T must not let R dominate S."""
        query = q("q :- R^n(y), S^n(y, z), T^n(z, w)")
        assert domination_candidates(query)
        assert domination_candidates(query, protect=frozenset({"T"})) == []
        result = find_weakening(query, protect=["T"])
        assert result is not None and result.steps == ()
        dominated, _ = apply_dominations(query, frozenset({"R"}))
        assert not dominated.atoms[1].endogenous

    def test_example412b_dominations(self):
        """In R,S,T,V (Example 4.12) V(x) dominates R(x,y) and T(z,x)."""
        query = q("q :- R^n(x, y), S^n(y, z), T^n(z, x), V^n(x)")
        dominated, steps = apply_dominations(query)
        flags = {a.label: a.endogenous for a in dominated.atoms}
        assert flags == {"R": False, "S": True, "T": False, "V": True}


class TestDissociation:
    def test_only_exogenous_atoms_can_dissociate(self):
        query = q("q :- R^n(x, y), S^x(y, z), T^n(z, x)")
        moves = dissociation_moves(query)
        assert all(not query.atoms[i].endogenous for i, _ in moves)
        assert ({query.atoms[i].label for i, _ in moves}) == {"S"}

    def test_dissociation_variable_must_come_from_a_neighbour(self):
        query = q("q :- R^x(x), S^n(y)")
        assert dissociation_moves(query) == []


class TestWeakLinearity:
    def test_example412a(self):
        """Rⁿ(x,y), Sˣ(y,z), Tⁿ(z,x) is weakly linear via one dissociation."""
        query = q("q :- R^n(x, y), S^x(y, z), T^n(z, x)")
        assert not is_linear(query)
        result = find_weakening(query)
        assert result is not None
        assert any(step.kind == "dissociation" for step in result.steps)
        assert is_linear(result.weakened)

    def test_example412b(self):
        """Rⁿ,Sⁿ,Tⁿ,Vⁿ is weakly linear via domination then dissociation."""
        query = q("q :- R^n(x, y), S^n(y, z), T^n(z, x), V^n(x)")
        result = find_weakening(query)
        assert result is not None
        kinds = {step.kind for step in result.steps}
        assert "domination" in kinds and "dissociation" in kinds

    def test_canonical_hard_queries_are_not_weakly_linear(self):
        for hard in (canonical_h1(), canonical_h2(), canonical_h3()):
            assert not is_weakly_linear(hard)

    def test_linear_queries_are_weakly_linear_with_no_steps(self):
        query = q("q :- R^n(x, y), S^n(y, z)")
        result = find_weakening(query)
        assert result is not None and result.steps == ()

    def test_protected_weakening_may_fail(self):
        """Protecting the dominated relation of Example 4.12-b blocks the weakening."""
        query = q("q :- R^n(x, y), S^n(y, z), T^n(z, x), V^n(x)")
        assert find_weakening(query, protect=["R", "T"]) is None

    def test_weakening_result_reports_added_variables(self):
        query = q("q :- R^n(x, y), S^x(y, z), T^n(z, x)")
        result = find_weakening(query)
        added = result.added_variables()
        assert added["S"] == frozenset({"x"})
        assert added["R"] == frozenset() and added["T"] == frozenset()


class TestRewriteRules:
    def test_delete_variable(self):
        query = q("q :- R^n(x, y), S^n(y, z)")
        rewritten = delete_variable(query, "y")
        assert all("y" not in atom.variables for atom in rewritten.atoms)

    def test_add_variable_requires_shared_atom(self):
        query = q("q :- R^n(x, y), S^n(y, z)")
        assert add_variable(query, "x", "z") is None
        extended = add_variable(query, "y", "z")
        assert extended is not None
        assert extended.atoms[0].variables == frozenset({"x", "y", "z"})

    def test_delete_atom_requires_exogenous_or_dominated(self):
        query = q("q :- A^n(x), R^n(x, y), S^x(y, z)")
        # S is exogenous: deletable; R is dominated by A: deletable; A is not.
        assert delete_atom(query, 2) is not None
        assert delete_atom(query, 1) is not None
        assert delete_atom(query, 0) is None

    def test_delete_atom_never_empties_the_query(self):
        query = q("q :- R^x(x)")
        assert delete_atom(query, 0) is None

    def test_all_rewrites_are_distinct(self):
        query = q("q :- R^n(x, y), S^n(y, z), T^n(z, x)")
        rewritten = all_rewrites(query)
        keys = [candidate.state_key() for _, candidate in rewritten]
        assert len(keys) == len(set(keys))


class TestCanonicalHardQueries:
    def test_matching(self):
        assert matches_canonical_hard_query(canonical_h1()) == "h1"
        assert matches_canonical_hard_query(canonical_h2()) == "h2"
        assert matches_canonical_hard_query(canonical_h3()) == "h3"
        assert matches_canonical_hard_query(q("q :- R^n(x, y), S^n(y, z)")) is None

    def test_h1_with_endogenous_centre_still_matches(self):
        assert matches_canonical_hard_query(
            q("q :- A^n(x), B^n(y), C^n(z), W^n(x, y, z)")) == "h1"

    def test_h2_with_exogenous_atom_does_not_match(self):
        assert matches_canonical_hard_query(
            q("q :- R^n(x, y), S^x(y, z), T^n(z, x)")) is None

    def test_canonical_queries_are_final(self):
        assert is_final(canonical_h1())
        assert is_final(canonical_h2())

    def test_linear_query_is_not_final(self):
        assert not is_final(q("q :- R^n(x, y), S^n(y, z)"))


class TestHardnessCertificates:
    def test_weakly_linear_query_has_no_certificate(self):
        assert hardness_certificate(q("q :- R^n(x, y), S^n(y, z)")) is None

    def test_example48_rewrites_to_h2(self):
        query = q("q :- R^n(x, y), S^n(y, z), T^n(z, u), K^n(u, x)")
        certificate = hardness_certificate(query)
        assert certificate is not None
        final = certificate[-1][1]
        assert matches_canonical_hard_query(final) == "h2"

    def test_h3_like_query_certificate(self):
        query = q("q :- A^n(x), B^n(y), C^n(z), R^x(x, y), S^x(y, z), T^x(z, x), W^x(x, y, z)")
        certificate = hardness_certificate(query)
        assert certificate is not None
        assert matches_canonical_hard_query(certificate[-1][1]) in {"h1", "h2", "h3"}

    def test_certificate_steps_are_rewrites_of_the_previous_query(self):
        query = q("q :- R^n(x, y), S^n(y, z), T^n(z, u), K^n(u, x)")
        certificate = hardness_certificate(query)
        previous = query
        for step, after in certificate:
            assert any(candidate == after for _, candidate in all_rewrites(previous))
            previous = after
