"""Kernel ≡ SQLite: the valuation-pass equivalence contract.

The columnar kernel (`relational/columnar.py`) is the memory backend's only
evaluator: the full pass, bound queries, delta residuals, ``holds`` and
``answers`` all run on it.  SQLite's SQL-rendered pass is the remaining
independent implementation, so this suite pins the two against each other
across the randomized space:

* for random instances (``None`` values included — ``None`` is an ordinary
  value that joins with itself) and random conjunctive queries (self-joins,
  repeated variables, constants, ``^n``/``^x`` annotations), the blocks of
  ``valuations_blocks``, the materialised ``valuations()``, ``holds`` and
  ``answers`` equal the SQLite backend's — on plain queries and on queries
  whose atoms carry random ``^n``/``^x`` annotations;
* a *live* evaluator patched through ``apply_changes`` produces the same
  blocks as a fresh evaluator on the mutated instance (the
  incremental-refresh path must keep the dictionary encodings exact);
* explanations come out bit-identical (causes, responsibilities,
  contingencies) through the columnar memory engine, the SQLite engine and
  a parallel fan-out — serial vs parallel vs columnar, both backends.
"""

import random
import re

import pytest

from repro.engine import BatchExplainer
from repro.relational import Database, parse_query
from repro.relational.columnar import materialize_conjuncts
from repro.relational.evaluation import QueryEvaluator
from repro.relational.query import Variable
from repro.relational.session import open_session
from repro.relational.sqlite_backend import SQLiteEvaluator
from repro.relational.tuples import value_sort_key

from test_incremental import random_delta, ranking


def random_value(rng: random.Random):
    """A value from a small domain; about one draw in eight is ``None``."""
    return None if rng.random() < 0.125 else f"a{rng.randint(0, 4)}"


def random_instance(rng: random.Random) -> Database:
    db = Database()
    for _ in range(rng.randint(6, 18)):
        db.add_fact("R", random_value(rng), random_value(rng),
                    endogenous=rng.random() < 0.7)
    for _ in range(rng.randint(3, 9)):
        db.add_fact("S", random_value(rng), endogenous=rng.random() < 0.7)
    return db


QUERY_POOL = [
    "q(x) :- R(x, y), S(y)",
    "q(x, z) :- R(x, y), R(y, z)",          # self-join
    "q(x) :- R(x, x)",                      # repeated variable
    "q(y) :- R('a1', y), S(y)",             # constant
    "q() :- R(x, y), S(y)",                 # boolean head
    "q(x) :- R^n(x, y), S^x(y)",            # annotations
    "q(x, w) :- R(x, y), S(y), R(w, y)",    # three atoms, shared middle
    "q(x) :- R(x, y), S(z)",                # cartesian component
]


def random_query(rng: random.Random):
    return parse_query(rng.choice(QUERY_POOL))


def random_annotated_query(rng: random.Random, annotate: bool):
    """A pool query with every atom's annotation redrawn at random
    (``annotate``) or stripped, so both the plain and the
    endogenous/exogenous-restricted scans are compared."""
    text = re.sub(r"\^[nx]", "", rng.choice(QUERY_POOL))
    if annotate:
        text = re.sub(r"\b([RS])\(",
                      lambda m: m.group(1) + rng.choice(["", "^n", "^x"]) + "(",
                      text)
    return parse_query(text)


def canonical(conjuncts):
    """Order-free form of a conjunct list: sorted multiset of tuple keys."""
    return sorted(sorted(t.sort_key() for t in c) for c in conjuncts)


def grouped_valuations(evaluator, query):
    """``valuations()`` grouped by head tuple, in canonical form."""
    grouped = {}
    for valuation in evaluator.valuations(query):
        head = tuple(
            valuation.assignment[term] if isinstance(term, Variable)
            else term.value
            for term in query.head
        )
        grouped.setdefault(head, []).append(valuation.tuples())
    return {head: canonical(group) for head, group in grouped.items()}


def grouped_blocks(evaluator, query):
    blocks = evaluator.valuations_blocks(query)
    return {head: canonical(materialize_conjuncts(group))
            for head, group in blocks.items()}


class TestKernelEqualsSQLite:
    @pytest.mark.parametrize("annotate", [True, False])
    @pytest.mark.parametrize("seed", range(20))
    def test_same_valuation_set(self, seed, annotate):
        rng = random.Random(4100 + seed)
        db = random_instance(rng)
        kernel = QueryEvaluator(db)
        sql = SQLiteEvaluator(db)
        for _ in range(3):
            query = random_annotated_query(rng, annotate)
            expected = grouped_blocks(sql, query)
            assert grouped_blocks(kernel, query) == expected
            assert grouped_valuations(kernel, query) == expected
            assert grouped_valuations(sql, query) == expected
            assert kernel.answers(query) == sql.answers(query) \
                == frozenset(expected)
            boolean = query.as_boolean()
            assert kernel.holds(boolean) == sql.holds(boolean) \
                == bool(expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_adapter_matches_blocks(self, seed):
        """The block→Valuation adapter keeps the tuple-at-a-time API exact.

        Heads arrive sorted, assignments are full (every body variable
        bound) and the per-group conjuncts equal SQLite's.
        """
        rng = random.Random(4400 + seed)
        db = random_instance(rng)
        query = random_query(rng)
        evaluator = QueryEvaluator(db)
        baseline = grouped_valuations(SQLiteEvaluator(db), query)
        seen_heads = []
        for head, valuations in evaluator.grouped_valuations(query):
            seen_heads.append(head)
            assert canonical(v.tuples() for v in valuations) \
                == baseline[head]
            for valuation in valuations:
                for atom, tup in zip(query.atoms, valuation.atom_tuples):
                    for position, term in enumerate(atom.terms):
                        if isinstance(term, Variable):
                            assert valuation.assignment[term] \
                                == tup.values[position]
        assert seen_heads == sorted(seen_heads, key=value_sort_key)
        assert set(seen_heads) == set(baseline)
        assert evaluator.stats.adapter_valuations \
            == sum(len(g) for g in baseline.values())


class TestBlocksEqualSQLite:
    @pytest.mark.parametrize("seed", range(8))
    def test_same_grouping_as_sql(self, seed):
        rng = random.Random(4500 + seed)
        db = random_instance(rng)
        query = random_query(rng)
        columnar = grouped_blocks(QueryEvaluator(db), query)
        session = open_session(db.copy(), backend="sqlite")
        try:
            sql = {
                head: canonical(v.tuples() for v in group)
                for head, group in
                session.evaluator.grouped_valuations(query)
            }
        finally:
            session.close()
        assert columnar == sql


class TestRefreshKeepsEncodingsExact:
    @pytest.mark.parametrize("seed", range(8))
    def test_patched_evaluator_equals_fresh(self, seed):
        """``apply_changes`` must leave the column stores bit-exact.

        A live evaluator that already ran a columnar pass (stores built,
        dictionary populated) absorbs a random delta and must produce the
        same blocks as a fresh evaluator on the mutated instance — across
        several consecutive deltas, so swap-deletes compose.
        """
        rng = random.Random(4600 + seed)
        db = random_instance(rng)
        query = random_query(rng)
        live = QueryEvaluator(db)
        live.valuations_blocks(query)  # build stores + encodings
        for _ in range(3):
            delta = random_delta(rng, db)
            changed = delta.apply_to(db)
            live.apply_changes(changed)
            assert grouped_blocks(live, query) \
                == grouped_blocks(QueryEvaluator(db), query)
            # Residual queries on the patched evaluator (plans and kernel
            # both read the column stores) agree with
            # SQLite on the mutated instance — the two stay in sync.
            assert grouped_valuations(live, query) \
                == grouped_valuations(SQLiteEvaluator(db), query)


class TestExplanationsBitIdentical:
    @pytest.mark.parametrize("seed", range(6))
    def test_columnar_vs_sqlite_vs_parallel(self, seed):
        rng = random.Random(4700 + seed)
        db = random_instance(rng)
        query = parse_query("q(x) :- R(x, y), S(y)")

        columnar = BatchExplainer(query, db, backend="memory")
        serial = columnar.explain_all()

        sql = BatchExplainer(query, db.copy(), backend="sqlite")
        via_sql = sql.explain_all()

        parallel = BatchExplainer(query, db.copy(), backend="memory")
        fanned = parallel.explain_all(workers=2)

        assert set(serial) == set(via_sql) == set(fanned)
        for answer in serial:
            assert ranking(serial[answer]) == ranking(via_sql[answer])
            assert ranking(serial[answer]) == ranking(fanned[answer])
