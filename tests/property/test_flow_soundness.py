"""Soundness of ``method="auto"`` against the exact engine (Theorem 4.5).

On every answer, the dispatching engine (Algorithm 1 where a protected
weakening exists, the exact hitting-set engine otherwise) must report the
exact engine's responsibilities, and every contingency it reports must be a
minimum one: ``|Γ| = 1/ρ − 1`` and ``Γ`` passes
:func:`~repro.core.is_valid_contingency` on the bound query.

The instances draw each tuple's status on its own (so a relation mixes
endogenous and exogenous tuples), and each atom may carry a ``^n`` / ``^x``
annotation that disagrees with the statuses of its relation's tuples.  The
shapes are the dissociating triangles of Example 4.12, chains of three and
four atoms with a head variable, and ``A(x), R(x, y), S(y, z), C(z)``, whose
weakenings use domination.

The default tier runs a small budget; the ``slow`` variant runs about 400
examples per shape.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import is_valid_contingency
from repro.engine import BatchExplainer
from repro.relational import Database, parse_query

# (relation, arity) per atom, and the query template over them.
SHAPES = {
    "4.12-a": ("q :- R{R}(x, y), S{S}(y, z), T{T}(z, x)",
               {"R": 2, "S": 2, "T": 2}),
    "4.12-b": ("q :- R{R}(x, y), S{S}(y, z), T{T}(z, x), V{V}(x)",
               {"R": 2, "S": 2, "T": 2, "V": 1}),
    "chain-3": ("q(x) :- R{R}(x, y), S{S}(y, z), T{T}(z, w)",
                {"R": 2, "S": 2, "T": 2}),
    "chain-4": ("q(x) :- R{R}(x, y), S{S}(y, z), T{T}(z, u), U{U}(u, w)",
                {"R": 2, "S": 2, "T": 2, "U": 2}),
    "A-R-S-C": ("q :- A{A}(x), R{R}(x, y), S{S}(y, z), C{C}(z)",
                {"A": 1, "R": 2, "S": 2, "C": 1}),
}

values = st.integers(min_value=0, max_value=2)
annotations = st.sampled_from(["", "", "^n", "^x"])


@st.composite
def annotated_instances(draw, shape):
    """A query of ``shape`` with drawn annotations, and a mixed instance."""
    template, arities = SHAPES[shape]
    query = parse_query(template.format(
        **{relation: draw(annotations) for relation in arities}))
    db = Database()
    for relation, arity in arities.items():
        rows = draw(st.lists(st.tuples(*[values] * arity),
                             min_size=1, max_size=5, unique=True))
        for row in rows:
            db.add_fact(relation, *row, endogenous=draw(st.booleans()))
    return query, db


def assert_auto_is_sound(query, db):
    auto = BatchExplainer(query, db)
    exact = BatchExplainer(query, db, method="exact")
    assert auto.answers() == exact.answers()
    for answer in auto.answers():
        bound = query if query.is_boolean else query.bind(answer)
        causes = {c.tuple: c for c in auto.explain(answer)}
        expected = {c.tuple: c.responsibility
                    for c in exact.explain(answer)}
        assert {t: c.responsibility for t, c in causes.items()} == expected
        for t, cause in causes.items():
            gamma = cause.contingency
            assert cause.responsibility == Fraction(1, 1 + len(gamma))
            assert is_valid_contingency(bound, db, t, gamma)


relaxed = settings(max_examples=25, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])
thorough = settings(max_examples=400, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_auto_matches_exact_with_valid_minimum_contingencies(shape):
    @relaxed
    @given(annotated_instances(shape))
    def check(case):
        assert_auto_is_sound(*case)

    check()


@pytest.mark.slow
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_auto_matches_exact_with_valid_minimum_contingencies_thorough(shape):
    @thorough
    @given(annotated_instances(shape))
    def check(case):
        assert_auto_is_sound(*case)

    check()
