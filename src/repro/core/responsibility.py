"""Responsibility computation: exact algorithm and complexity-aware dispatcher.

Two engines are provided.

* :func:`exact_responsibility` works for *every* conjunctive query (self-joins,
  mixed partitions, hard queries).  It reduces the minimum-contingency problem
  to a constrained minimum hitting set over the non-redundant n-lineage and
  solves it exactly with branch and bound.  This matches the paper's
  observation that the general problem is NP-hard — the procedure is
  exponential in the worst case, but it is exact and much faster than the
  purely definitional brute force.
* :func:`responsibility` dispatches: Why-No problems always use the PTIME
  procedure of Theorem 4.17; Why-So problems use Algorithm 1 (max-flow) when
  the query is weakly linear, and fall back to the exact engine otherwise.

**Reduction used by the exact engine.**  Let ``M`` be the set of minimal
conjuncts of the n-lineage ``Φⁿ``.  A set ``Γ ⊆ Dn \\ {t}`` is a contingency
for ``t`` iff (a) some conjunct containing ``t`` is disjoint from ``Γ`` and
(b) every conjunct *not* containing ``t`` intersects ``Γ``.  Because every
conjunct not containing ``t`` has a minimal sub-conjunct that also avoids
``t``, it suffices to hit the minimal conjuncts avoiding ``t``.  Enumerating
the witness conjunct ``C ∋ t`` of condition (a) and forbidding its elements
from ``Γ`` yields one hitting-set instance per witness; the minimum over all
witnesses is ``min |Γ|``.

**Coding.**  The engine ranks the simplified lineage's variables by ``repr``
once (:class:`CodedLineage`) and hands the solver rank sets.  Witnesses are
tried by (size, sorted ranks) and the solver ties to the smallest rank, so
``Γ`` is the one the ``repr`` tiebreak picks, decoded back to tuples at the
end; the batch engine codes each answer's lineage once for all of its
inspected tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, FrozenSet, Iterable, List, Optional

from ..exceptions import CausalityError, NotLinearError
from ..lineage.boolean_expr import PositiveDNF
from ..lineage.provenance import n_lineage
from ..relational.database import Database
from ..relational.query import ConjunctiveQuery
from ..relational.tuples import Tuple
from .definitions import CausalityMode, Cause, responsibility_value
from .flow_responsibility import flow_responsibility
from .hitting_set import minimum_hitting_set
from .whyno import whyno_minimum_contingency


class ResponsibilityResult:
    """Responsibility of one tuple plus the algorithm that produced it."""

    __slots__ = ("tuple", "responsibility", "min_contingency", "method")

    def __init__(self, tuple_: Tuple, responsibility: Fraction,
                 min_contingency: Optional[FrozenSet[Tuple]], method: str
                 ) -> None:
        self.tuple = tuple_
        self.responsibility = responsibility
        self.min_contingency = min_contingency
        self.method = method

    def __repr__(self) -> str:
        return (f"ResponsibilityResult({self.tuple!r}, ρ={self.responsibility}, "
                f"method={self.method})")


# --------------------------------------------------------------------------- #
# exact engine (any conjunctive query)
# --------------------------------------------------------------------------- #
class CodedLineage:
    """A simplified n-lineage coded once for the exact engine.

    The lineage's variables are ranked by ``repr`` and every conjunct
    becomes the frozenset of its variables' ranks, kept in witness order:
    by size, then by sorted ranks.  The hitting-set solver breaks ties to
    the smallest element, so ranks keep the ``repr`` tiebreak while it runs
    on ints; the ``repr`` sort is paid once per lineage, not once per
    greedy round or search node.  ``formula`` must be redundancy-free
    (:meth:`~repro.lineage.boolean_expr.PositiveDNF.remove_redundant`).

    Examples
    --------
    >>> lineage = CodedLineage(PositiveDNF([{"t"}, {"u", "v"}]))
    >>> sorted(lineage.minimum_contingency("t"))
    ['u']
    >>> lineage.minimum_contingency("w") is None
    True
    """

    __slots__ = ("formula", "_variables", "_rank", "_conjuncts")

    def __init__(self, formula: PositiveDNF) -> None:
        self.formula = formula
        self._variables: List[Any] = sorted(formula.variables(), key=repr)
        self._rank: Dict[Any, int] = {
            variable: i for i, variable in enumerate(self._variables)}
        coded = [sorted(self._rank[v] for v in c) for c in formula.conjuncts]
        coded.sort(key=lambda ranks: (len(ranks), ranks))
        self._conjuncts = [frozenset(ranks) for ranks in coded]

    def minimum_contingency(self, tuple_: Any) -> Optional[FrozenSet[Any]]:
        """Minimum Why-So contingency of ``tuple_``; ``None`` if no cause."""
        rank = self._rank.get(tuple_)
        if rank is None:
            return None
        witnesses: List[FrozenSet[int]] = []
        to_hit: List[FrozenSet[int]] = []
        for conjunct in self._conjuncts:
            (witnesses if rank in conjunct else to_hit).append(conjunct)
        best: Optional[FrozenSet[int]] = None
        for witness in witnesses:
            # Only a strictly smaller contingency replaces the best one.
            upper = None if best is None else len(best) - 1
            hitting = minimum_hitting_set(to_hit, forbidden=witness,
                                          upper_bound=upper)
            if hitting is not None:
                best = hitting
                if not best:
                    break
        if best is None:
            return None
        # Through a set: a frozenset copied from a set is sized to fit, one
        # grown from a generator keeps its slack, and every cause keeps its Γ.
        return frozenset({self._variables[i] for i in best})


def minimum_contingency_from_lineage(phi_n: PositiveDNF, tuple_: Any
                                     ) -> Optional[FrozenSet[Any]]:
    """Minimum Why-So contingency of ``t`` given the n-lineage.

    Returns ``None`` when ``t`` is not an actual cause.  Simplifies and codes
    ``phi_n`` on every call; the batch engine codes each answer's lineage
    once (:class:`CodedLineage`) and asks it per inspected tuple.
    """
    return CodedLineage(phi_n.remove_redundant()).minimum_contingency(tuple_)


def exact_responsibility(query: ConjunctiveQuery, database: Database,
                         tuple_: Tuple,
                         mode: CausalityMode = CausalityMode.WHY_SO
                         ) -> ResponsibilityResult:
    """Exact responsibility for any conjunctive query (exponential worst case)."""
    mode = CausalityMode.coerce(mode)
    if not query.is_boolean:
        raise CausalityError(
            "exact_responsibility expects a Boolean query; bind the answer first"
        )
    if not database.is_endogenous(tuple_):
        return ResponsibilityResult(tuple_, responsibility_value(None), None, "exact")
    if mode is CausalityMode.WHY_NO:
        gamma = whyno_minimum_contingency(query, database, tuple_)
        rho = responsibility_value(None if gamma is None else len(gamma))
        return ResponsibilityResult(tuple_, rho, gamma, "why-no")
    phi_n = n_lineage(query, database, simplify=True)
    gamma = minimum_contingency_from_lineage(phi_n, tuple_)
    rho = responsibility_value(None if gamma is None else len(gamma))
    return ResponsibilityResult(tuple_, rho, gamma, "exact")


# --------------------------------------------------------------------------- #
# dispatcher
# --------------------------------------------------------------------------- #
def responsibility(query: ConjunctiveQuery, database: Database, tuple_: Tuple,
                   mode: CausalityMode = CausalityMode.WHY_SO,
                   method: str = "auto") -> ResponsibilityResult:
    """Compute ``ρ_t``, picking the right algorithm for the query.

    Parameters
    ----------
    method:
        ``"auto"`` (default): Why-No → PTIME bounded-contingency procedure;
        Why-So → Algorithm 1 when the query is weakly linear and self-join
        free, exact hitting-set otherwise.
        ``"flow"``: force Algorithm 1 (raises :class:`NotLinearError` when not
        applicable).
        ``"exact"``: force the exact engine.
    """
    mode = CausalityMode.coerce(mode)
    if method not in ("auto", "flow", "exact"):
        raise CausalityError(f"unknown method {method!r}")

    if mode is CausalityMode.WHY_NO:
        return exact_responsibility(query, database, tuple_, mode)

    if method == "exact":
        return exact_responsibility(query, database, tuple_, mode)
    if method == "flow":
        result = flow_responsibility(query, database, tuple_)
        return ResponsibilityResult(tuple_, result.responsibility,
                                    result.min_contingency, "flow")
    # auto
    if not query.has_self_joins():
        try:
            result = flow_responsibility(query, database, tuple_)
            return ResponsibilityResult(tuple_, result.responsibility,
                                        result.min_contingency, "flow")
        except NotLinearError:
            pass
    return exact_responsibility(query, database, tuple_, mode)


def responsibilities(query: ConjunctiveQuery, database: Database,
                     tuples: Optional[Iterable[Tuple]] = None,
                     mode: CausalityMode = CausalityMode.WHY_SO,
                     method: str = "auto") -> List[ResponsibilityResult]:
    """Responsibility of many tuples, sorted by decreasing ``ρ``.

    ``tuples`` defaults to every endogenous tuple appearing in the lineage of
    the query (the only tuples that can possibly have ``ρ > 0``).
    """
    mode = CausalityMode.coerce(mode)
    if tuples is None:
        relevant = n_lineage(query, database, simplify=False).variables()
        tuples = sorted(t for t in relevant if database.is_endogenous(t))
    results = [
        responsibility(query, database, t, mode=mode, method=method)
        for t in tuples
    ]
    results.sort(key=lambda r: (-r.responsibility, r.tuple))
    return results
