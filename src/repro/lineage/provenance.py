"""Lineage (how-provenance) of Boolean conjunctive queries.

For a Boolean query ``q = g1, ..., gm`` over a database ``D`` the lineage is

    Φ = ⋁_θ  X_{θ(g1)} ∧ ... ∧ X_{θ(gm)}

with one conjunct per valuation ``θ`` (Sect. 3).  The *n-lineage* (Def. 3.1)
is obtained by setting the variables of all exogenous tuples to true, leaving
a formula over endogenous tuples only; after removing redundant conjuncts it
is exactly the object Theorem 3.2 reads causes from.

The functions here also expose the classic *why-provenance* (minimal witness
basis) for comparison with the causality notions, as discussed in Sect. 5 of
the paper.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Sequence

from ..exceptions import CausalityError
from ..relational.database import Database
from ..relational.evaluation import QueryEvaluator
from ..relational.query import ConjunctiveQuery
from ..relational.tuples import Tuple
from .boolean_expr import PositiveDNF


def lineage(query: ConjunctiveQuery, database: Database) -> PositiveDNF:
    """The full lineage ``Φ`` of a Boolean query over ``database``.

    Each conjunct is the *set* of tuples used by one valuation (as in the
    paper, a tuple matched by several atoms of the same valuation contributes
    one variable).

    Raises
    ------
    CausalityError
        If the query is not Boolean.  Bind the answer first with
        :meth:`~repro.relational.query.ConjunctiveQuery.bind`.
    """
    if not query.is_boolean:
        raise CausalityError(
            "lineage is defined for Boolean queries; call query.bind(answer) first"
        )
    evaluator = QueryEvaluator(database)
    conjuncts = [valuation.tuples() for valuation in evaluator.valuations(query)]
    return PositiveDNF(conjuncts)


def n_lineage(query: ConjunctiveQuery, database: Database,
              simplify: bool = True) -> PositiveDNF:
    """The n-lineage ``Φⁿ = Φ[X_t := true, ∀t ∈ Dx]`` (Def. 3.1).

    Parameters
    ----------
    simplify:
        When ``True`` (default) redundant conjuncts are removed, which is the
        form Theorem 3.2 uses.  Pass ``False`` to obtain the raw substitution.
    """
    phi = lineage(query, database)
    exogenous = database.exogenous_tuples()
    phi_n = phi.set_true(exogenous)
    return phi_n.remove_redundant() if simplify else phi_n


def lineage_of_answer(query: ConjunctiveQuery, database: Database,
                      answer: Sequence) -> PositiveDNF:
    """Lineage of a specific answer ``ā`` of a non-Boolean query."""
    return lineage(query.bind(answer), database)


def n_lineage_of_answer(query: ConjunctiveQuery, database: Database,
                        answer: Sequence, simplify: bool = True) -> PositiveDNF:
    """n-lineage of a specific answer ``ā`` of a non-Boolean query."""
    return n_lineage(query.bind(answer), database, simplify=simplify)


def why_provenance(query: ConjunctiveQuery, database: Database) -> FrozenSet[FrozenSet[Tuple]]:
    """The minimal witness basis (why-provenance) of a Boolean query.

    This is the set of minimal conjuncts of the *full* lineage — no
    endogenous/exogenous distinction.  Section 5 of the paper points out that
    Why-So causes coincide with the union of these witnesses when every tuple
    is endogenous.
    """
    return lineage(query, database).minimal_conjuncts()


def lineage_support(query: ConjunctiveQuery, database: Database) -> FrozenSet[Tuple]:
    """All tuples appearing somewhere in the lineage of a Boolean query.

    This is the set Example 1.1 calls "the combined lineage" — the 137 base
    tuples that overwhelm the user before causes are ranked.
    """
    return lineage(query, database).variables()
