"""Provenance of non-answers (the Why-No setting).

For a non-answer ``ā`` the paper's Why-No causality takes as input a set of
*potentially missing* tuples ``Dn`` whose absence explains why ``ā`` is not
returned; the real database becomes exogenous (``Dx``) and the candidates are
the endogenous tuples.  The paper defers the computation of ``Dn`` to prior
work (Huang et al. [15]); this module provides a faithful, self-contained
substitute: candidate tuples are generated by instantiating the query atoms
over (a superset of) the active domain so that at least one new valuation for
``ā`` would be created.  This is the only candidate generator: it reads the
Python-side :class:`~repro.relational.database.Database`, which both
execution backends keep, so the batched Why-No engine calls it whichever
backend runs the valuation pass.

The output of :func:`build_whyno_instance` is a regular
:class:`~repro.relational.database.Database`, so every downstream algorithm
(lineage, causality, responsibility) works on Why-No problems unchanged —
exactly the uniformity the paper emphasises.
"""

from __future__ import annotations

import itertools
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple as TypingTuple,
)

from ..exceptions import CausalityError
from ..relational.database import Database
from ..relational.evaluation import evaluate_boolean
from ..relational.query import ConjunctiveQuery, Variable
from ..relational.tuples import Tuple


def candidate_missing_tuples(
    query: ConjunctiveQuery,
    database: Database,
    domains: Optional[Mapping[str, Iterable[Any]]] = None,
    max_candidates: Optional[int] = None,
) -> FrozenSet[Tuple]:
    """Candidate missing tuples for a Boolean non-answer query.

    The candidates are the instantiations of the query atoms under all
    variable assignments drawn from the candidate domain of each variable,
    excluding tuples already present in the database.  By construction,
    adding *all* candidates makes the query true (provided the domains are
    non-empty), which is the pre-condition ``(Dx ∪ Dn) ⊨ q`` of Sect. 3.

    Parameters
    ----------
    query:
        A Boolean query (bind the non-answer first).
    database:
        The real database ``Dx``.
    domains:
        Optional mapping from variable name to an iterable of values to try
        for that variable.  Defaults to the active domain of the database for
        every variable.
    max_candidates:
        Optional safety limit; a :class:`CausalityError` is raised when the
        candidate set would exceed it.

    Examples
    --------
    >>> from repro.relational import Database, parse_query
    >>> db = Database()
    >>> _ = db.add_fact("R", "a", "b")
    >>> q = parse_query("q :- R(x, y), S(y)")
    >>> sorted(map(repr, candidate_missing_tuples(q, db)))
    ["R('a', 'a')", "R('b', 'a')", "R('b', 'b')", "S('a')", "S('b')"]
    """
    if not query.is_boolean:
        raise CausalityError(
            "candidate generation expects a Boolean query; bind the non-answer first"
        )
    # The single-answer view of the batched generator: a Boolean query is a
    # batch with the one (empty) non-answer, so there is exactly one
    # enumeration strategy to maintain.
    return batch_candidate_missing_tuples(
        query, database, [()], domains=domains,
        max_candidates=max_candidates)[()]


def batch_candidate_missing_tuples(
    query: ConjunctiveQuery,
    database: Database,
    non_answers: Iterable[Sequence[Any]],
    domains: Optional[Mapping[str, Iterable[Any]]] = None,
    max_candidates: Optional[int] = None,
) -> Dict[TypingTuple[Any, ...], FrozenSet[Tuple]]:
    """Candidate missing tuples for a whole *set* of non-answers, in one pass.

    Per-answer equivalent: ``candidate_missing_tuples(query.bind(ā), ...)``
    for each non-answer ``ā``.  Running the set together shares the work that
    does not depend on the answer: atoms without head variables (the ``S(y)``
    of ``q(x) :- R(x, y), S(y)``) instantiate to the *same* candidates for
    every non-answer and are enumerated once, and non-answers agreeing on an
    atom's head-variable projection share that atom's product.  The returned
    per-answer sets are identical to the per-answer generator's output — the
    batched Why-No engine relies on exactly this to stay bit-compatible with
    ``explain(mode="why-no")``.

    Parameters
    ----------
    query:
        The open (or Boolean) query; each non-answer is bound into its head.
    database:
        The real database ``Dx``.
    non_answers:
        The non-answer tuples (``[()]`` for a Boolean query).  Duplicates are
        collapsed.
    domains:
        As in :func:`candidate_missing_tuples`; entries for head variables are
        ignored (each non-answer fixes those values), matching the per-answer
        path where head variables are substituted away before generation.
    max_candidates:
        Optional per-non-answer safety limit, as in
        :func:`candidate_missing_tuples`.

    Returns
    -------
    dict
        ``{non_answer: frozenset(candidates)}`` keyed in first-seen order.

    Examples
    --------
    >>> from repro.relational import Database, parse_query
    >>> db = Database()
    >>> _ = db.add_fact("R", "a", "b")
    >>> q = parse_query("q(x) :- R(x, y), S(y)")
    >>> per_answer = batch_candidate_missing_tuples(q, db, [("a",), ("c",)])
    >>> sorted(map(repr, per_answer[("c",)]))
    ["R('c', 'a')", "R('c', 'b')", "S('a')", "S('b')"]
    >>> per_answer[("a",)] == candidate_missing_tuples(q.bind(("a",)), db)
    True
    """
    targets = [tuple(a) for a in non_answers]
    result: Dict[TypingTuple[Any, ...], FrozenSet[Tuple]] = {}
    if not targets:
        return result
    head_variables = frozenset(
        t for t in query.head if isinstance(t, Variable))
    open_variables = sorted(query.variables() - head_variables,
                            key=lambda v: v.name)
    adom = sorted(database.active_domain(), key=repr)
    variable_domains: Dict[Variable, List[Any]] = {}
    for variable in open_variables:
        if domains is not None and variable.name in domains:
            variable_domains[variable] = list(domains[variable.name])
        else:
            variable_domains[variable] = list(adom)
    empty_product = any(not values for values in variable_domains.values())

    # Bound atoms coincide exactly when their head-variable projections do,
    # so memoizing per bound atom is what shares work across the batch.
    atom_candidates: Dict[Any, FrozenSet[Tuple]] = {}

    def instantiations(atom) -> FrozenSet[Tuple]:
        variables = sorted(atom.variables(), key=lambda v: v.name)
        found: Set[Tuple] = set()
        for values in itertools.product(
                *(variable_domains[v] for v in variables)):
            assignment = dict(zip(variables, values))
            row = [assignment[term] if isinstance(term, Variable)
                   else term.value for term in atom.terms]
            tup = Tuple(atom.relation, row)
            if not database.contains(tup):
                found.add(tup)
                # One atom's candidates are a subset of every per-answer set
                # that includes this bound atom, so the limit may (and must,
                # to keep the limit a bound on *work*) abort mid-product.
                if max_candidates is not None and len(found) > max_candidates:
                    raise CausalityError(
                        f"candidate set exceeds max_candidates="
                        f"{max_candidates}; restrict the variable domains"
                    )
        return frozenset(found)

    for key in targets:
        if key in result:
            continue
        bound = query.bind(key)
        if empty_product:
            # The full variable product of the bound query is empty: the
            # per-answer generator would produce no candidates at all.
            result[key] = frozenset()
            continue
        candidates: Set[Tuple] = set()
        for atom in bound.atoms:
            shared = atom_candidates.get(atom)
            if shared is None:
                shared = instantiations(atom)
                atom_candidates[atom] = shared
            candidates |= shared
            if max_candidates is not None and len(candidates) > max_candidates:
                raise CausalityError(
                    f"candidate set exceeds max_candidates={max_candidates}; "
                    "restrict the variable domains"
                )
        result[key] = frozenset(candidates)
    return result


def build_whyno_instance(
    database: Database,
    candidates: Iterable[Tuple],
) -> Database:
    """Build the Why-No instance ``D = Dx ∪ Dn``.

    Every tuple of the real ``database`` becomes exogenous, and every
    candidate missing tuple is added as an endogenous tuple.  The resulting
    database can be fed to the standard causality / responsibility machinery.
    """
    instance = Database(schema=database.schema, default_endogenous=False)
    for tup in database.all_tuples():
        instance.add(tup, endogenous=False)
    for tup in candidates:
        if not instance.contains(tup):
            instance.add(tup, endogenous=True)
    return instance


def whyno_instance_for_answer(
    query: ConjunctiveQuery,
    database: Database,
    answer: Sequence[Any] = (),
    domains: Optional[Mapping[str, Iterable[Any]]] = None,
    max_candidates: Optional[int] = None,
) -> TypingTuple[ConjunctiveQuery, Database]:
    """Convenience wrapper: bind the non-answer, generate candidates, build D.

    Returns the Boolean query and the combined Why-No instance.  Raises if the
    "non-answer" is actually an answer of the query on the real database.
    """
    boolean_query = query.bind(answer) if not query.is_boolean else query
    if evaluate_boolean(boolean_query, database):
        raise CausalityError(
            f"{tuple(answer)!r} is an answer of the query on the given database; "
            "Why-No causality is only defined for non-answers"
        )
    candidates = candidate_missing_tuples(
        boolean_query, database, domains=domains,
        max_candidates=max_candidates
    )
    return boolean_query, build_whyno_instance(database, candidates)
