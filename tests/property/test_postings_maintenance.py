"""Column-store postings survive a live delta stream.

A :class:`~repro.relational.evaluation.QueryEvaluator` kept alive across
recorded deltas patches its one stored form per ``(relation, status)``, the
:class:`~repro.relational.columnar.ColumnStore`, tuple by tuple: its code
columns and its per-position postings (code → ascending row ids), through
which constants resolve.  A delete swap-moves the store's last row into the
hole, so postings built *before* the stream see rows change ids under them.

For random instances and random streams of inserts, deletes and partition
flips, the live evaluator must answer ``valuations``, ``holds`` and
``answers`` exactly as a fresh evaluator on the mutated instance does, for
random queries with constants, repeated variables and ``^n``/``^x`` atoms.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.relational import Database, DatabaseDelta, Tuple, parse_query
from repro.relational.evaluation import QueryEvaluator

ARITIES = {"R": 2, "S": 1}
VARIABLES = ["x", "y", "z"]
# 4 never occurs in the initial instance: a constant may have no code yet.
values = st.integers(min_value=0, max_value=4)
initial_values = st.integers(min_value=0, max_value=3)
annotations = st.sampled_from(["", "^n", "^x"])


@st.composite
def queries(draw):
    """A query of one to three atoms over R and S."""
    atoms = []
    used = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        relation = draw(st.sampled_from(sorted(ARITIES)))
        terms = []
        for _ in range(ARITIES[relation]):
            if draw(st.integers(min_value=0, max_value=3)) == 0:
                terms.append(str(draw(values)))
            else:
                variable = draw(st.sampled_from(VARIABLES))
                terms.append(variable)
                if variable not in used:
                    used.append(variable)
        atoms.append(f"{relation}{draw(annotations)}({', '.join(terms)})")
    head = [v for v in used if draw(st.booleans())]
    return parse_query(f"q({', '.join(head)}) :- {', '.join(atoms)}")


def tuples_of(relation):
    return st.tuples(*[initial_values] * ARITIES[relation]).map(
        lambda row: Tuple(relation, row))


@st.composite
def instances(draw):
    db = Database()
    for relation in sorted(ARITIES):
        for tup in draw(st.lists(tuples_of(relation), max_size=8,
                                 unique=True)):
            db.add(tup, endogenous=draw(st.booleans()))
    return db


def draw_delta(data, db):
    """Deletes of present tuples, inserts of new ones and partition flips."""
    present = sorted(db.all_tuples())
    deletes = data.draw(st.lists(st.sampled_from(present), max_size=3,
                                 unique=True)) if present else []
    inserts = [(tup, data.draw(st.booleans())) for tup in data.draw(
        st.lists(st.one_of(tuples_of("R"), tuples_of("S")), max_size=3))]
    flips = [(tup, not db.is_endogenous(tup)) for tup in data.draw(
        st.lists(st.sampled_from(present), max_size=2, unique=True))] \
        if present else []
    return DatabaseDelta(inserts=inserts + flips, deletes=deletes)


def canonical(evaluator, query):
    """Valuations, ``holds`` and ``answers``, in an order-free form."""
    valuations = sorted(
        (tuple(sorted((v.name, value)
                      for v, value in valuation.assignment.items())),
         valuation.atom_tuples)
        for valuation in evaluator.valuations(query))
    return (valuations, evaluator.holds(query.as_boolean()),
            evaluator.answers(query))


#: Constants at every position of every store, so postings exist before
#: the first delta.
PROBES = [parse_query(f"q :- {atom}")
          for annotation in ("", "^n", "^x")
          for atom in (f"R{annotation}(0, x)", f"R{annotation}(x, 0)",
                       f"S{annotation}(0)")]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(db=instances(), pool=st.lists(queries(), min_size=1, max_size=3),
       data=st.data())
def test_live_evaluator_equals_fresh_across_a_delta_stream(db, pool, data):
    live = QueryEvaluator(db)
    for query in PROBES + pool:
        canonical(live, query)
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        live.apply_changes(draw_delta(data, db).apply_to(db))
        fresh = QueryEvaluator(db)
        for query in pool + PROBES:
            assert canonical(live, query) == canonical(fresh, query)


def test_emptied_relation_refills_at_another_arity():
    """An emptied store drops its columns and postings with its rows."""
    db = Database()
    db.add_fact("R", 1, 2)
    live = QueryEvaluator(db)
    assert live.answers(parse_query("q(y) :- R(1, y)")) == {(2,)}
    live.apply_changes(DatabaseDelta(deletes=[Tuple("R", (1, 2))]).apply_to(db))
    live.apply_changes(DatabaseDelta(inserts=[Tuple("R", (1,))]).apply_to(db))
    assert live.answers(parse_query("q(y) :- R(1, y)")) == frozenset()
    assert live.answers(parse_query("q() :- R(1)")) == {()}


def test_probes_build_postings_on_every_store():
    db = Database()
    for tup, endogenous in ((Tuple("R", (0, 1)), True),
                            (Tuple("R", (1, 0)), False),
                            (Tuple("S", (0,)), True),
                            (Tuple("S", (1,)), False)):
        db.add(tup, endogenous=endogenous)
    live = QueryEvaluator(db)
    for query in PROBES:
        live.holds(query)
    assert len(live._stores) == 6
    for (relation, _), store in live._stores.items():
        assert sorted(store._postings) == list(range(ARITIES[relation]))
