"""Unit tests for Algorithm 1: flow-based responsibility for linear queries."""

import importlib
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import repro
from repro.core import (
    FlowEngine,
    brute_force_responsibility,
    example_flow_network,
    flow_responsibility,
    flow_responsibility_value,
    is_valid_contingency,
)
from repro.engine import BatchExplainer
from repro.exceptions import CausalityError, NotLinearError
from repro.flow import max_flow
from repro.relational import (
    Database,
    QueryEvaluator,
    Tuple,
    database_from_dict,
    parse_query,
)
from repro.workloads import random_two_table_instance, sharded_fanout_instance

# ``repro.core.flow_responsibility`` the attribute is the function; the
# module is where ``FlowEngine`` looks ``build_flow_network`` up.
flow_module = importlib.import_module("repro.core.flow_responsibility")


FIG4_QUERY = parse_query("q :- R(x, y), S(y, z)")


class TestExample42:
    def build(self):
        """A small R ⋈ S instance where contingencies are easy to see by hand."""
        return database_from_dict({
            "R": [("x1", "y1"), ("x1", "y2"), ("x2", "y2")],
            "S": [("y1", "z1"), ("y2", "z1"), ("y2", "z2")],
        })

    def test_responsibility_of_an_r_tuple(self):
        db = self.build()
        t = Tuple("R", ("x1", "y2"))
        result = flow_responsibility(FIG4_QUERY, db, t)
        assert result.responsibility == brute_force_responsibility(FIG4_QUERY, db, t)

    def test_contingency_returned_is_valid_and_minimum(self):
        db = self.build()
        for t in sorted(db.endogenous_tuples()):
            result = flow_responsibility(FIG4_QUERY, db, t)
            if result.responsibility == 0:
                assert result.min_contingency is None
                continue
            assert is_valid_contingency(FIG4_QUERY, db, t, result.min_contingency)
            assert Fraction(1, 1 + len(result.min_contingency)) == result.responsibility

    def test_counterfactual_tuple(self):
        db = database_from_dict({"R": [("x1", "y1")], "S": [("y1", "z1")]})
        assert flow_responsibility_value(FIG4_QUERY, db, Tuple("R", ("x1", "y1"))) == 1

    def test_non_cause_has_zero_responsibility(self):
        db = self.build()
        db.add_fact("R", "x9", "y9")  # joins with nothing
        assert flow_responsibility_value(FIG4_QUERY, db, Tuple("R", ("x9", "y9"))) == 0

    def test_exogenous_tuple_has_zero_responsibility(self):
        db = self.build()
        t = Tuple("R", ("x1", "y2"))
        db.set_endogenous(t, False)
        assert flow_responsibility_value(FIG4_QUERY, db, t) == 0

    def test_exogenous_other_relation_blocks_contingencies(self):
        """If S is exogenous and two S-tuples share y with t, t may not be a cause."""
        db = database_from_dict({
            "R": [("x1", "y1"), ("x2", "y1")],
            "S": [("y1", "z1")],
        })
        db.set_relation_exogenous("S")
        # Removing R(x2,y1) (the only possible contingency tuple) is enough.
        t = Tuple("R", ("x1", "y1"))
        assert flow_responsibility_value(FIG4_QUERY, db, t) == Fraction(1, 2)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_fig4_instances(self, seed):
        db = random_two_table_instance(n_r=5, n_s=5, domain_size=3, seed=seed)
        for t in sorted(db.endogenous_tuples()):
            flow = flow_responsibility_value(FIG4_QUERY, db, t)
            brute = brute_force_responsibility(FIG4_QUERY, db, t)
            assert flow == brute, (seed, t)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_three_atom_chain(self, seed):
        query = parse_query("q :- R(x, y), S(y, z), T(z, w)")
        db = random_two_table_instance(n_r=4, n_s=4, domain_size=2, seed=seed)
        import random as _random
        rng = _random.Random(seed + 100)
        for _ in range(4):
            db.add_fact("T", rng.randrange(2), rng.randrange(2))
        for t in sorted(db.endogenous_tuples()):
            flow = flow_responsibility_value(query, db, t)
            brute = brute_force_responsibility(query, db, t)
            assert flow == brute, (seed, t)

    @pytest.mark.parametrize("seed", range(4))
    def test_weakly_linear_triangle_with_exogenous_s(self, seed):
        """Example 4.12-a: the dissociation-based weakening preserves responsibility."""
        query = parse_query("q :- R(x, y), S(y, z), T(z, x)")
        import random as _random
        rng = _random.Random(seed)
        db = Database()
        for _ in range(5):
            db.add_fact("R", rng.randrange(3), rng.randrange(3))
            db.add_fact("S", rng.randrange(3), rng.randrange(3), endogenous=False)
            db.add_fact("T", rng.randrange(3), rng.randrange(3))
        for t in sorted(db.endogenous_tuples()):
            flow = flow_responsibility_value(query, db, t)
            brute = brute_force_responsibility(query, db, t)
            assert flow == brute, (seed, t)


class TestGuards:
    def test_non_boolean_query_rejected(self):
        db = database_from_dict({"R": [(1, 2)], "S": [(2, 3)]})
        with pytest.raises(CausalityError):
            flow_responsibility(parse_query("q(x) :- R(x, y), S(y, z)"), db,
                                Tuple("R", (1, 2)))

    def test_self_join_rejected(self):
        db = database_from_dict({"R": [(1, 2), (2, 3)]})
        with pytest.raises(NotLinearError):
            flow_responsibility(parse_query("q :- R(x, y), R(y, z)"), db,
                                Tuple("R", (1, 2)))

    def test_non_weakly_linear_query_rejected(self):
        db = database_from_dict({"A": [(1,)], "B": [(2,)], "C": [(3,)],
                                 "W": [(1, 2, 3)]})
        q = parse_query("h1 :- A(x), B(y), C(z), W(x, y, z)")
        with pytest.raises(NotLinearError):
            flow_responsibility(q, db, Tuple("A", (1,)))

    def test_tuple_relation_must_occur_in_query(self):
        db = database_from_dict({"R": [(1, 2)], "S": [(2, 3)], "Z": [(9,)]})
        with pytest.raises(CausalityError):
            flow_responsibility(FIG4_QUERY, db, Tuple("Z", (9,)))


class TestFigure4Network:
    def test_min_cut_equals_minimum_tuples_to_falsify(self):
        db = database_from_dict({
            "R": [("x1", "y1"), ("x2", "y2")],
            "S": [("y1", "z1"), ("y2", "z1")],
        })
        network = example_flow_network(FIG4_QUERY, db)
        result = max_flow(network, ("source",), ("target",))
        # two disjoint witnesses -> need to remove 2 tuples to make q false
        assert result.value == 2

    def test_network_edges_are_labelled_with_tuples(self):
        db = database_from_dict({"R": [("x1", "y1")], "S": [("y1", "z1")]})
        network = example_flow_network(FIG4_QUERY, db)
        labels = {e.label for e in network.edges if e.label is not None}
        assert labels == set(db.all_tuples())


class TestLineageLocality:
    """The engine's network is built from the answer's lineage alone."""

    def explain_x0(self, monkeypatch, n_answers):
        edge_counts = []
        build = flow_module.build_flow_network

        def counting_build(*args, **kwargs):
            network, edge_map = build(*args, **kwargs)
            edge_counts.append(len(network.edges))
            return network, edge_map

        db = sharded_fanout_instance(n_answers, 6)
        explainer = BatchExplainer(parse_query("q(x) :- R(x, y), S(y, z)"), db)
        with monkeypatch.context() as patch:
            patch.setattr(flow_module, "build_flow_network", counting_build)
            causes = [(c.tuple, c.responsibility, c.contingency)
                      for c in explainer.explain(("x0",)).ranked()]
        return edge_counts, causes

    def test_network_and_causes_do_not_grow_with_the_database(self, monkeypatch):
        small_edges, small_causes = self.explain_x0(monkeypatch, 10)
        wide_edges, wide_causes = self.explain_x0(monkeypatch, 400)
        assert small_edges and small_causes
        assert wide_edges == small_edges
        assert wide_causes == small_causes

    def test_layers_hold_only_lineage_tuples_of_a_dissociating_query(self):
        """Example 4.12-b: tuples outside every valuation stay out of the
        network, and the reported contingency is the whole-database one."""
        query = parse_query("q :- R(x, y), S(y, z), T(z, x), V(x)")
        db = database_from_dict({
            "R": [(1, 2), (1, 3), (2, 3), (4, 4)],
            "S": [(2, 5), (3, 5), (3, 6), (9, 9)],
            "T": [(5, 1), (6, 1), (6, 2), (7, 7)],
            "V": [(1,), (2,), (8,)],
        })
        engine = FlowEngine(query, QueryEvaluator(db))
        # V is the only dominator on 4.12-b: it dominates R and T, and the
        # dominated R is dissociated by z.
        result = engine.responsibility(Tuple("V", (1,)))
        # Killing the x = 2 valuation takes one tuple; R(2,3) and T(6,2) are
        # dominated (capacity ∞), and S(3,6) sorts before V(2).
        assert result.responsibility == Fraction(1, 2)
        assert result.min_contingency == frozenset({Tuple("S", (3, 6))})
        weakening, (_, network, _) = engine._plan_for("V")
        assert weakening.dominated_labels() == frozenset({"R", "T"})
        assert weakening.added_variables()["R"] == frozenset({"z"})
        edge_tuples = {edge.label for edge in network.edges}
        assert edge_tuples == {tup for valuation in engine._all_valuations()
                               for tup in valuation.atom_tuples}
        assert not edge_tuples & {Tuple("R", (4, 4)), Tuple("S", (9, 9)),
                                  Tuple("T", (7, 7)), Tuple("V", (8,))}


def mixed_database(relations, exogenous=()):
    """Every tuple endogenous except those listed as ``(relation, row)``."""
    db = Database()
    for relation, rows in relations.items():
        for row in rows:
            db.add_fact(relation, *row,
                        endogenous=(relation, row) not in exogenous)
    return db


def assert_matches_brute_force(query, db, answer, expected):
    """``auto`` on one answer: every ρ is brute force's, every Γ valid, and
    the ``expected`` tuple → ρ entries hold."""
    bound = query if query.is_boolean else query.bind(answer)
    causes = {c.tuple: c for c in BatchExplainer(query, db).explain(answer)}
    for t, cause in causes.items():
        assert cause.responsibility == brute_force_responsibility(bound, db, t)
        assert cause.responsibility == Fraction(1, 1 + len(cause.contingency))
        assert is_valid_contingency(bound, db, t, cause.contingency)
    for t in sorted(db.endogenous_tuples() - set(causes)):
        assert brute_force_responsibility(bound, db, t) == 0
    for t, rho in expected.items():
        assert causes[t].responsibility == rho


class TestSoundDomination:
    """Only the inspected tuple's atom may dominate, and only when its
    lineage is endogenous: trading a dominated tuple for a dominator on the
    witness, or for an exogenous one, under-reports ρ."""

    def test_linear_chain_is_not_dominated_away(self):
        query = parse_query("q(x) :- R(x, y), S(y, z), T(z, w)")
        db = mixed_database({
            "R": [(2, 0)],
            "S": [(0, 0), (0, 1), (1, 1)],
            "T": [(0, 1), (1, 0), (1, 2), (2, 0)],
        })
        assert_matches_brute_force(query, db, (2,),
                                   {Tuple("T", (0, 1)): Fraction(1, 2)})

    def test_mixed_status_dominator(self):
        query = parse_query("q :- R(x, y), S(y, z), T(z, x), V(x)")
        db = mixed_database({
            "R": [(0, 1), (0, 2), (1, 2)],
            "S": [(2, 0), (2, 1)],
            "T": [(0, 1), (1, 0), (1, 2), (2, 1)],
            "V": [(0,), (1,)],
        }, exogenous={("S", (2, 1)), ("T", (1, 0)), ("V", (0,))})
        assert_matches_brute_force(query, db, (), {
            Tuple("S", (2, 0)): Fraction(1, 2),
            Tuple("T", (0, 1)): Fraction(1, 2),
            Tuple("V", (1,)): Fraction(1, 2),
        })

    def test_mixed_status_chain(self):
        query = parse_query("q(x) :- R(x, y), S(y, z), T(z, w)")
        db = mixed_database({
            "R": [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)],
            "S": [(0, 0), (0, 2), (1, 0), (1, 1), (2, 0)],
            "T": [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)],
        }, exogenous={("R", (0, 0)), ("R", (0, 2)), ("S", (1, 1))})
        assert_matches_brute_force(query, db, (0,),
                                   {Tuple("T", (0, 0)): Fraction(1, 4)})

    def test_example_412b_all_endogenous(self):
        query = parse_query("q :- R(x, y), S(y, z), T(z, x), V(x)")
        db = mixed_database({
            "R": [(2, 1), (2, 2)],
            "S": [(1, 1), (1, 2), (2, 0), (2, 1), (2, 2)],
            "T": [(0, 0), (1, 2), (2, 0), (2, 2)],
            "V": [(0,), (1,), (2,)],
        })
        assert_matches_brute_force(query, db, (),
                                   {Tuple("S", (1, 1)): Fraction(1, 3)})
        # Only V dominates here, so the other relations go to the exact
        # engine.
        engine = FlowEngine(query, QueryEvaluator(db))
        assert engine.responsibility(Tuple("V", (2,))).weakening \
            .dominated_labels() == frozenset({"R", "T"})
        with pytest.raises(NotLinearError):
            engine.responsibility(Tuple("S", (1, 1)))

    def test_unary_ends_chain(self):
        query = parse_query("q :- A(x), R(x, y), S(y, z), C(z)")
        db = mixed_database({
            "A": [(1,), (2,)],
            "R": [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)],
            "S": [(0, 1), (1, 0), (1, 1), (2, 0)],
            "C": [(0,), (1,)],
        })
        assert_matches_brute_force(query, db, (),
                                   {Tuple("R", (2, 2)): Fraction(1, 3)})

    def test_exogenous_tuple_in_the_dominators_lineage_falls_back(self):
        query = parse_query("q :- R(y), S(y, z)")
        db = mixed_database({"R": [(0,), (1,)], "S": [(0, 0), (1, 0)]},
                            exogenous={("R", (1,))})
        # R dominates S, but S(1,0) cannot be traded for the exogenous R(1):
        # flow falls back to the (already linear) weakening without
        # domination, which keeps S(1,0) cuttable.
        result = FlowEngine(query, QueryEvaluator(db)).responsibility(Tuple("R", (0,)))
        assert result.responsibility == Fraction(1, 2)
        assert result.weakening.dominated_labels() == frozenset()
        assert result.min_contingency == frozenset({Tuple("S", (1, 0))})
        assert_matches_brute_force(query, db, (),
                                   {Tuple("R", (0,)): Fraction(1, 2)})


class TestAnnotatedAtoms:
    def test_flow_reads_the_refined_query(self):
        """An ``S^x`` atom joins exogenous S tuples only, as in Sect. 3."""
        query = parse_query("q(x) :- R^n(x, y), S^x(y, z), T(z, w)")
        db = mixed_database({
            "R": [(0, 0), (0, 2), (1, 0), (1, 2)],
            "S": [(0, 2), (1, 0), (2, 0), (2, 1), (2, 2)],
            "T": [(0, 2), (1, 2), (2, 0)],
        }, exogenous={("S", (1, 0)), ("S", (2, 2))})
        assert_matches_brute_force(query, db, (0,), {
            Tuple("R", (0, 2)): Fraction(1),
            Tuple("T", (2, 0)): Fraction(1),
        })


class TestDeterministicContingency:
    SCRIPT = """
from repro.engine import BatchExplainer
from repro.relational import Database, parse_query

db = Database()
exogenous = {("R", (0, 0)), ("T", (0, 0)), ("T", (2, 1))}
for relation, rows in {
        "R": [(0, 0), (0, 1), (0, 2)],
        "S": [(0, 1), (1, 1), (2, 1), (2, 2)],
        "T": [(0, 0), (1, 2), (2, 0), (2, 1)]}.items():
    for row in rows:
        db.add_fact(relation, *row, endogenous=(relation, row) not in exogenous)
query = parse_query("q :- R(x, y), S(y, z), T(z, u)")
for cause in BatchExplainer(query, db).explain(()).ranked():
    print(cause.tuple, cause.responsibility, sorted(cause.contingency))
"""

    def test_gamma_does_not_depend_on_the_hash_seed(self):
        """Tied minimum cuts resolve to the smallest sorted tuple keys."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = set()
        for seed in range(1, 6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            outputs.add(subprocess.run(
                [sys.executable, "-c", self.SCRIPT], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert len(outputs) == 1
        assert "T(1, 2) 1/2 [R(0, 2)]" in outputs.pop()
