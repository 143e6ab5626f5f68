"""The int-coded exact engine reports the ``repr``-tiebreak contingency.

:class:`~repro.core.responsibility.CodedLineage` ranks a lineage's tuples by
``repr`` once and the bitmask solver ties to the smallest rank.  These tests
check the whole ``Γ``, not only ``|Γ|``, against a local copy of the former
solver, which compared ``repr`` strings in every greedy round and search
node.  The tuples carry ints up to 14, so ``repr`` order (``R(10)`` before
``R(2)``) differs from value order.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import brute_force_minimum_contingency
from repro.core.hitting_set import minimum_hitting_set
from repro.core.responsibility import CodedLineage, \
    minimum_contingency_from_lineage
from repro.lineage import PositiveDNF, n_lineage
from repro.relational import Database, Tuple, parse_query


# --------------------------------------------------------------------------- #
# the former solver: every tie goes to the smallest repr
# --------------------------------------------------------------------------- #
def repr_greedy(sets):
    remaining = [frozenset(s) for s in sets]
    chosen = set()
    while remaining:
        counts = {}
        for s in remaining:
            for element in s:
                counts[element] = counts.get(element, 0) + 1
        best = max(sorted(counts, key=repr), key=lambda e: counts[e])
        chosen.add(best)
        remaining = [s for s in remaining if best not in s]
    return frozenset(chosen)


def repr_lower_bound(sets):
    used, bound = set(), 0
    for s in sorted(sets, key=len):
        if not (s & used):
            bound += 1
            used |= s
    return bound


def repr_hitting_set(sets, forbidden, upper_bound):
    family = []
    for s in sets:
        allowed = frozenset(s) - forbidden
        if not allowed:
            return None
        family.append(allowed)
    if not family:
        return frozenset()
    minimal = []
    for s in sorted(set(family), key=len):
        if not any(kept <= s for kept in minimal):
            minimal.append(s)
    best = repr_greedy(minimal)
    best_size = len(best)
    if upper_bound is not None and upper_bound < best_size:
        best, best_size = None, upper_bound + 1

    def search(remaining, chosen):
        nonlocal best, best_size
        if not remaining:
            if len(chosen) < best_size:
                best, best_size = frozenset(chosen), len(chosen)
            return
        if len(chosen) + repr_lower_bound(remaining) >= best_size:
            return
        target = min(remaining, key=lambda s: (len(s), sorted(map(repr, s))))
        for element in sorted(target, key=repr):
            chosen.add(element)
            search([s for s in remaining if element not in s], chosen)
            chosen.remove(element)

    search(minimal, set())
    return best


def repr_minimum_contingency(phi_n, tuple_):
    minimal = phi_n.remove_redundant()
    if minimal.is_trivially_true():
        return None
    witnesses = [c for c in minimal.conjuncts if tuple_ in c]
    to_hit = [c for c in minimal.conjuncts if tuple_ not in c]
    best = None
    for witness in sorted(witnesses,
                          key=lambda c: (len(c), sorted(map(repr, c)))):
        upper = None if best is None else len(best)
        hitting = repr_hitting_set(to_hit, witness, upper)
        if hitting is None:
            continue
        if best is None or len(hitting) < len(best):
            best = hitting
            if not best:
                break
    return best


# --------------------------------------------------------------------------- #
# drawn lineages
# --------------------------------------------------------------------------- #
#: Each exogenous ``C`` row ``(k, a, b, c)`` contributes the conjunct
#: ``{R(a), R(b), R(c)}`` (a repeated value gives a smaller one), so the
#: n-lineage is whatever family of small sets the rows spell out.
QUERY = parse_query("q :- C(k, a, b, c), R(a), R(b), R(c)")


@st.composite
def lineages(draw):
    """A drawn instance of :data:`QUERY` over ints 0..14, and its lineage.

    Some ``R`` tuples are drawn exogenous, so they are substituted true
    before the lineage is simplified.
    """
    domain = draw(st.lists(st.integers(min_value=0, max_value=14),
                           min_size=2, max_size=7, unique=True))
    conjuncts = draw(st.lists(
        st.lists(st.sampled_from(domain), min_size=1, max_size=3),
        min_size=1, max_size=9))
    db = Database()
    for k, conjunct in enumerate(conjuncts):
        a, b, c = (conjunct * 3)[:3]
        db.add_fact("C", k, a, b, c, endogenous=False)
    for value in domain:
        db.add_fact("R", value, endogenous=draw(st.booleans() | st.just(True)))
    return db, n_lineage(QUERY, db, simplify=True)


class TestAgainstTheReprSolver:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lineages())
    def test_gamma_matches_the_repr_solver_and_brute_force(self, drawn):
        db, phi_n = drawn
        lineage = CodedLineage(phi_n)
        for tuple_ in sorted(phi_n.variables()):
            gamma = minimum_contingency_from_lineage(phi_n, tuple_)
            assert gamma == repr_minimum_contingency(phi_n, tuple_)
            assert lineage.minimum_contingency(tuple_) == gamma
            brute = brute_force_minimum_contingency(QUERY, db, tuple_)
            assert (gamma is None) == (brute is None)
            if gamma is not None:
                assert len(gamma) == len(brute)


def test_solver_matches_the_repr_solver_where_the_orders_agree():
    # On 0..9 ``repr`` order is value order, so the bitmask solver must
    # return the very set the former solver did.  Families of 8-20 pairs
    # and triples often have several minimum hitting sets that greedy
    # misses, so the search order decides which one is reported.
    for seed in range(600):
        rng = random.Random(seed)
        sets = [set(rng.sample(range(10), rng.randint(2, 3)))
                for _ in range(rng.randint(8, 20))]
        forbidden = frozenset(rng.sample(range(10), rng.randint(0, 1)))
        upper_bound = rng.choice([None, None, 3, 4, 5])
        assert minimum_hitting_set(sets, forbidden, upper_bound) == \
            repr_hitting_set(sets, forbidden, upper_bound), seed


def test_repr_order_is_not_value_order():
    # R(10) < R(2) by repr: a tie between them goes to R(10).
    phi_n = PositiveDNF([{Tuple("R", (0,))},
                         {Tuple("R", (2,)), Tuple("R", (10,))}])
    assert CodedLineage(phi_n).minimum_contingency(Tuple("R", (0,))) == \
        frozenset({Tuple("R", (10,))})
