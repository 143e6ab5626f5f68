"""Why-No responsibility (Theorem 4.17): always PTIME.

For a non-answer, a contingency is a set of *insertions* from the candidate
missing tuples ``Dn``.  A witnessing valuation of the query uses at most ``m``
tuples (``m`` = number of atoms), so a minimum contingency has at most
``m − 1`` tuples — a constant for a fixed query, which is why the problem is
polynomial in the size of the database.

Concretely, working on the combined instance ``D = Dx ∪ Dn`` (real tuples
exogenous, candidates endogenous): the minimal conjuncts of the n-lineage are
the minimal sets of candidate insertions that complete a witness.  For a
candidate ``t``, inserting ``C \\ {t}`` for a *minimal* conjunct ``C ∋ t``
does not yet make the query true (no minimal conjunct is a subset of
``C \\ {t}``) while additionally inserting ``t`` does — so ``C \\ {t}`` is a
valid contingency, and the minimum over the minimal conjuncts containing ``t``
is the minimum contingency.

Everything here reads the simplified n-lineage through one per-tuple
helper, :func:`whyno_contingency_from_n_lineage`, and the batched engine
(:class:`repro.engine.whyno_batch.WhyNoBatchExplainer`) reads its
per-non-answer causes from one shared valuation pass through the same
:func:`whyno_causes_from_n_lineage` — batched and per-call results are
identical by construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import FrozenSet, List, Optional

from ..exceptions import CausalityError
from ..lineage.boolean_expr import PositiveDNF
from ..lineage.provenance import n_lineage
from ..relational.database import Database
from ..relational.query import ConjunctiveQuery
from ..relational.tuples import Tuple
from .definitions import CausalityMode, Cause, responsibility_value


def whyno_contingency_from_n_lineage(phi_n: PositiveDNF, tuple_: Tuple
                                     ) -> Optional[FrozenSet[Tuple]]:
    """Minimum Why-No contingency of ``tuple_`` in a simplified n-lineage.

    The smallest conjunct holding ``tuple_``, minus ``tuple_``; ties go to
    the smallest sorted ``repr``s.  ``None`` when no conjunct holds
    ``tuple_``, as in a trivially true ``phi_n`` (simplified, the empty
    conjunct alone).
    """
    witnesses = [c for c in phi_n.conjuncts if tuple_ in c]
    if not witnesses:
        return None
    best = min(witnesses, key=lambda c: (len(c), sorted(map(repr, c))))
    return best - {tuple_}


def whyno_minimum_contingency(query: ConjunctiveQuery, database: Database,
                              tuple_: Tuple) -> Optional[FrozenSet[Tuple]]:
    """Minimum Why-No contingency for ``t`` on the combined instance ``Dx ∪ Dn``.

    Returns ``None`` when ``t`` is not a Why-No cause of the non-answer.

    Examples
    --------
    >>> from repro.relational import Database, Tuple, parse_query
    >>> db = Database(default_endogenous=False)
    >>> _ = db.add_fact("R", "a", "b")                       # real, exogenous
    >>> _ = db.add_fact("S", "b", endogenous=True)           # candidate
    >>> whyno_minimum_contingency(parse_query("q :- R(x, y), S(y)"), db,
    ...                           Tuple("S", ("b",)))
    frozenset()
    """
    if not query.is_boolean:
        raise CausalityError(
            "whyno_minimum_contingency expects a Boolean query; bind the non-answer first"
        )
    return whyno_contingency_from_n_lineage(
        n_lineage(query, database, simplify=True), tuple_)


def whyno_responsibility(query: ConjunctiveQuery, database: Database,
                         tuple_: Tuple) -> Fraction:
    """``ρ_t`` for a Why-No cause (0 when ``t`` is not a cause).  PTIME.

    Examples
    --------
    >>> from repro.relational import Database, Tuple, parse_query
    >>> db = Database(default_endogenous=False)
    >>> _ = db.add_fact("R", "a", "b")
    >>> _ = db.add_fact("S", "b", endogenous=True)
    >>> whyno_responsibility(parse_query("q :- R(x, y), S(y)"), db,
    ...                      Tuple("S", ("b",)))
    Fraction(1, 1)
    """
    gamma = whyno_minimum_contingency(query, database, tuple_)
    return responsibility_value(None if gamma is None else len(gamma))


def whyno_causes_from_n_lineage(phi_n: PositiveDNF) -> List[Cause]:
    """All Why-No causes read off a *simplified* n-lineage, best-ranked first.

    ``phi_n`` must be the redundancy-free n-lineage of the (bound) non-answer
    query on the combined instance ``Dx ∪ Dn`` — exactly what
    :func:`repro.lineage.provenance.n_lineage` with ``simplify=True``
    produces, or what one group of the batched engine's shared valuation pass
    yields.  Both the per-instance :func:`whyno_causes_with_responsibility`
    and :class:`repro.engine.whyno_batch.WhyNoBatchExplainer` call this
    helper, which is what keeps their explanations bit-identical.

    Returns ``[]`` when ``phi_n`` is trivially true (the "non-answer" holds on
    the exogenous tuples alone, i.e. it is actually an answer).

    Examples
    --------
    >>> from repro.lineage import PositiveDNF
    >>> from repro.relational import Tuple
    >>> s_b = Tuple("S", ("b",))
    >>> t_b = Tuple("T", ("b",))
    >>> causes = whyno_causes_from_n_lineage(PositiveDNF([{s_b, t_b}]))
    >>> [(c.tuple, str(c.responsibility)) for c in causes]
    [(S('b'), '1/2'), (T('b'), '1/2')]
    """
    causes: List[Cause] = []
    for tup in sorted(phi_n.variables()):
        gamma = whyno_contingency_from_n_lineage(phi_n, tup)
        if gamma is not None:
            causes.append(Cause(tup, CausalityMode.WHY_NO,
                                responsibility=responsibility_value(len(gamma)),
                                contingency=gamma))
    causes.sort(key=lambda c: (-(c.responsibility or 0), c.tuple))
    return causes


def whyno_causes_with_responsibility(query: ConjunctiveQuery,
                                     database: Database) -> List[Cause]:
    """All Why-No causes with their responsibilities, best-ranked first.

    Examples
    --------
    >>> from repro.lineage import build_whyno_instance
    >>> from repro.relational import Database, Tuple, parse_query
    >>> db = Database()
    >>> _ = db.add_fact("R", "a", "b")
    >>> combined = build_whyno_instance(db, [Tuple("S", ("b",))])
    >>> causes = whyno_causes_with_responsibility(
    ...     parse_query("q :- R(x, y), S(y)"), combined)
    >>> [(c.tuple, str(c.responsibility)) for c in causes]
    [(S('b'), '1')]
    """
    return whyno_causes_from_n_lineage(n_lineage(query, database, simplify=True))
