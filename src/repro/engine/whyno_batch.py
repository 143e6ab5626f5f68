"""Batched Why-No: explain many missing answers over one combined instance.

The per-non-answer :func:`repro.core.api.explain` pipeline with
``mode="why-no"`` rebuilds everything from scratch for every missing answer:
generate the candidate missing tuples of the bound query, build the combined
instance ``Dx ∪ Dn``, evaluate the bound query over it, and read the causes
off the n-lineage (Theorem 4.17).  For the "explain *all* missing answers"
workload almost all of that work is shared, mirroring the Why-So
:class:`~repro.engine.batch.BatchExplainer`:

* candidate generation runs **once** for the whole non-answer set
  (:func:`repro.lineage.whyno.batch_candidate_missing_tuples`): atoms without
  head variables instantiate to the same candidates for every non-answer, and
  non-answers agreeing on an atom's head projection share its domain product
  — the same Python generator on both backends, since each keeps the
  Python-side real database;
* the combined instance ``D = Dx ∪ ⋃ᵢ Dn(āᵢ)`` is built **once**;
* **one** open-query valuation pass over ``D`` — through the same pluggable
  evaluator as the Why-So engine — groups witnessing conjuncts by head
  tuple.  A group may additionally use candidates another non-answer
  contributed to the union (a self-joined relation's head-free atom matches
  *every* candidate of that relation), so each group is intersected with its
  own candidate set ``Dn(āᵢ)``: a conjunct survives iff its endogenous
  tuples all lie in ``Dn(āᵢ)``, which makes the filtered group *exactly* the
  lineage of ``q[āᵢ]`` on its own combined instance ``Dx ∪ Dn(āᵢ)`` (every
  per-answer valuation also exists over the union, and every union valuation
  confined to ``Dx ∪ Dn(āᵢ)`` is a per-answer valuation);
* causes fall out of each group's simplified n-lineage through the shared
  :func:`repro.core.whyno.whyno_causes_from_n_lineage`, so batched and
  per-non-answer explanations are bit-identical by construction (the
  single-non-answer :func:`repro.core.api.explain` is a thin wrapper over
  this class).

Independent non-answers can be fanned out over worker processes
(``workers=N``) through the :mod:`repro.engine._pool` seam: the parent
finishes the combined-instance valuation pass, and the workers inherit the
pre-grouped conjuncts, the per-non-answer candidate sets and the exogenous
set (fork inheritance or one pickled shared-memory segment) — where the
historical pool had every worker regenerate candidates, rebuild the combined
instance and re-run the pass for its chunk.  Each worker only restricts its
groups to its targets' own candidates and reads the causes off the
n-lineage, so the results are bit-identical to the serial ones.

On the ``sqlite`` backend the whole construction runs over **one** backend
session: the real database is loaded once, serves the actual-answer check,
and is then mutated in place (all real tuples flipped exogenous, candidates
inserted) into the combined instance for the shared valuation pass — the
historical second load is gone.  The same seam powers
:meth:`WhyNoBatchExplainer.refresh`: a recorded change to the real database
is translated into a combined-instance delta and only the touched valuation
groups are re-evaluated.
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

from ..core.api import Explanation
from ..core.definitions import CausalityMode
from ..core.whyno import whyno_causes_from_n_lineage
from ..exceptions import CausalityError
from ..lineage.boolean_expr import PositiveDNF
from ..lineage.whyno import batch_candidate_missing_tuples, build_whyno_instance
from ..relational.columnar import ConjunctGroup, materialize_conjuncts
from ..relational.database import Database
from ..relational.delta import DatabaseDelta
from ..relational.evaluation import evaluate, evaluate_boolean
from ..relational.query import ConjunctiveQuery, Variable, match_atom
from ..relational.session import open_session
from ..relational.tuples import Tuple, value_sort_key
from ._pool import FanOutResult, FanOutSpec, OnChunk
from .batch import BatchExplainer, RefreshReport, explain_batch

Answer = TypingTuple[Any, ...]


def _restricted_n_lineage(conjuncts: Iterable[FrozenSet[Tuple]],
                          allowed: FrozenSet[Tuple],
                          exogenous: FrozenSet[Tuple],
                          simplify: bool = True) -> PositiveDNF:
    """One non-answer's n-lineage, restricted to its own candidate set.

    The shared pass runs over the *union* combined instance, where a
    self-joined relation's head-free atoms can match candidates another
    non-answer contributed.  Keeping only the conjuncts whose endogenous
    tuples all lie in ``allowed`` (= ``Dn(ā)``) yields exactly the lineage
    of the bound query on ``Dx ∪ Dn(ā)``: per-answer valuations all exist
    over the union, and a union valuation confined to ``Dx ∪ Dn(ā)`` is a
    per-answer valuation.  (For self-join-free queries the filter is a
    no-op: every candidate a bound atom can match fixes that atom's head
    projection, hence is already in ``Dn(ā)``.)

    This pure function is the single source of truth for the serial path
    (:meth:`WhyNoBatchExplainer.n_lineage_of`) and the fan-out workers, so
    the two stay bit-identical by construction.
    """
    kept = [
        conjunct for conjunct in conjuncts
        if all(t in allowed or t in exogenous for t in conjunct)
    ]
    phi_n = PositiveDNF(kept).set_true(exogenous)
    return phi_n.remove_redundant() if simplify else phi_n


def _missing_heads(query: ConjunctiveQuery, database: Database,
                   domains: Optional[Mapping[str, Iterable[Any]]]
                   ) -> TypingTuple[List[Answer], FrozenSet[Answer]]:
    """The head tuples the domains allow that ``query`` does not return.

    Enumerates the product of the head variables' domains (entries of
    ``domains``, defaulting to the active domain) and drops the actual
    answers.  Returns the non-answers in canonical answer order, plus the
    answer set.
    """
    adom = sorted(database.active_domain(), key=repr)
    head_variables = sorted(
        {t for t in query.head if isinstance(t, Variable)},
        key=lambda v: v.name)
    value_lists = [list(domains[v.name]) if domains is not None
                   and v.name in domains else adom for v in head_variables]
    actual = evaluate(query, database)
    missing = set()
    for values in itertools.product(*value_lists):
        assignment = dict(zip(head_variables, values))
        head = tuple(assignment[t] if isinstance(t, Variable) else t.value
                     for t in query.head)
        if head not in actual:
            missing.add(head)
    return sorted(missing, key=value_sort_key), actual


class WhyNoBatchExplainer:
    """Explain every non-answer of one query with shared Why-No state.

    Parameters
    ----------
    query:
        The (possibly non-Boolean) conjunctive query.
    database:
        The real database ``Dx``.  Its own endogenous/exogenous partition is
        irrelevant here: in the Why-No setting every real tuple is exogenous
        context and only the candidate insertions are endogenous.
    non_answers:
        The missing answers to explain (duplicates are collapsed).  Omit for
        a Boolean query, where the single non-answer is ``()``.  Every entry
        must actually be missing — a tuple the query *does* return raises
        :class:`~repro.exceptions.CausalityError`, like the per-non-answer
        path.
    domains:
        Per-variable candidate domains, as in
        :func:`repro.lineage.whyno.candidate_missing_tuples`; entries for
        head variables are ignored (each non-answer fixes them).
    candidates:
        Explicit candidate missing tuples, bypassing generation (the batch
        twin of ``explain(..., whyno_candidates=...)``).  Mutually exclusive
        with ``domains``.
    max_candidates:
        Optional per-non-answer safety limit for generated candidates.
    backend:
        ``"memory"`` (default) or ``"sqlite"`` — where the actual-answer
        check and the combined-instance valuation pass run, exactly like
        the Why-So engine's backend seam.  Candidates are generated by
        :func:`repro.lineage.whyno.batch_candidate_missing_tuples` over
        ``database`` on either backend.

    Examples
    --------
    >>> from repro.relational import Database, parse_query
    >>> db = Database()
    >>> _ = db.add_fact("R", "a", "b")
    >>> _ = db.add_fact("R", "c", "d")
    >>> _ = db.add_fact("S", "b")
    >>> query = parse_query("q(x) :- R(x, y), S(y)")
    >>> explainer = WhyNoBatchExplainer(query, db, non_answers=[("c",)],
    ...                                 domains={"y": ["d", "e"]})
    >>> for cause in explainer.explain(("c",)).ranked():
    ...     print(f"{float(cause.responsibility):.2f}  {cause.tuple!r}")
    1.00  S('d')
    0.50  R('c', 'e')
    0.50  S('e')
    """

    def __init__(self, query: ConjunctiveQuery, database: Database,
                 non_answers: Optional[Iterable[Sequence[Any]]] = None,
                 domains: Optional[Mapping[str, Iterable[Any]]] = None,
                 candidates: Optional[Iterable[Tuple]] = None,
                 max_candidates: Optional[int] = None,
                 backend: str = "memory",
                 _actual_answers: Optional[FrozenSet[Answer]] = None,
                 _discover_on_refresh: bool = False) -> None:
        if candidates is not None and domains is not None:
            raise CausalityError(
                "pass either explicit candidates or generation domains, not both"
            )
        self.query = query
        self.database = database
        self.backend = backend
        self.domains = domains
        self.max_candidates = max_candidates
        # Set by :meth:`for_missing_answers`: this batch means "every
        # missing answer", so a refresh must re-run discovery — a delta can
        # *create* non-answers (deletes killing an answer, inserts growing
        # the active domain) that the original enumeration never saw.
        self._discover_on_refresh = _discover_on_refresh
        self._explicit_candidates = None if candidates is None \
            else frozenset(candidates)

        # One session — hence one backend load — for the whole construction:
        # the loaded snapshot of the real database serves the actual-answer
        # check, then is turned in place into the combined-instance session
        # for the shared valuation pass (``into_whyno_combined``).  Which
        # backend does the work stays behind the seam; ``open_session`` also
        # rejects unknown backend names.
        real_session = open_session(database, backend=backend)
        try:
            real_evaluator = real_session.evaluator

            if query.is_boolean:
                targets = [()] if non_answers is None \
                    else [tuple(a) for a in non_answers]
                for target in targets:
                    if target != ():
                        raise CausalityError("a Boolean query takes no answer tuple")
                targets = targets[:1]
            else:
                if non_answers is None:
                    raise CausalityError(
                        "a non-Boolean query needs the non-answer tuples to explain"
                    )
                targets = list(dict.fromkeys(tuple(a) for a in non_answers))
            # Reject actual answers up front, like the per-non-answer path — but
            # through one shared evaluator, so the real database is indexed once
            # for the whole batch instead of once per membership check.  A single
            # target keeps the cheaper short-circuiting bound check; many targets
            # amortise one open-query answer set — already computed when
            # :meth:`for_missing_answers` constructed the batch (bind() still
            # validates arity and head-constant consistency per target).
            actual = _actual_answers
            checker = None if actual is not None else real_evaluator
            if checker is not None and not query.is_boolean and len(targets) > 1:
                actual = checker.answers(query)
            for target in targets:
                bound = query.bind(target)  # validates arity and head constants
                is_answer = (target in actual) if actual is not None \
                    else checker.holds(bound)
                if is_answer:
                    raise CausalityError(
                        f"{target!r} is an answer on this database; use mode='why-so'"
                    )
            self.non_answers: List[Answer] = targets

            if self._explicit_candidates is not None:
                per_answer = {t: self._explicit_candidates for t in targets}
            else:
                per_answer = batch_candidate_missing_tuples(
                    query, database, targets, domains=domains,
                    max_candidates=max_candidates)
            self._per_answer_candidates: Dict[Answer, FrozenSet[Tuple]] = per_answer
            union: FrozenSet[Tuple] = frozenset().union(*per_answer.values()) \
                if per_answer else frozenset()
            self.combined = build_whyno_instance(database, union)
            session = real_session.into_whyno_combined(self.combined, union)
            # The sibling Why-So engine supplies the shared machinery: pluggable
            # evaluator over the combined instance, one open-query pass grouped
            # by head tuple, and the lazy bound-query path for single targets.
            self._inner = BatchExplainer(query, self.combined, method="exact",
                                         session=session)
        except BaseException:
            # A rejected target, a blown max_candidates or a candidate the
            # backend cannot store must not leak the real-database load.
            real_session.close()
            raise
        # non-answer -> Explanation, kept across refreshes when untouched.
        self._explanations: Dict[Answer, Explanation] = {}
        # Served-from-memo vs computed counts, as on BatchExplainer.
        self.memo_hits = 0
        self.memo_misses = 0
        # Set when a refresh failed after the delta already landed on the
        # real database: the engine then refuses to serve (stale) answers.
        self._poisoned: Optional[str] = None
        # Variables whose candidate domain defaulted to the active domain —
        # if a delta changes the active domain, their products change
        # wholesale and refresh() falls back to full candidate regeneration.
        head_set = frozenset(t for t in query.head if isinstance(t, Variable))
        open_variables = sorted(query.variables() - head_set,
                                key=lambda v: v.name)
        self._resolved_domains: Dict[Variable, FrozenSet[Any]] = {}
        self._defaulted_variables: List[Variable] = []
        adom = frozenset(database.active_domain())
        for variable in open_variables:
            if domains is not None and variable.name in domains:
                self._resolved_domains[variable] = frozenset(
                    domains[variable.name])
            else:
                self._resolved_domains[variable] = adom
                self._defaulted_variables.append(variable)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def for_missing_answers(cls, query: ConjunctiveQuery, database: Database,
                            domains: Optional[Mapping[str, Iterable[Any]]] = None,
                            max_candidates: Optional[int] = None,
                            backend: str = "memory") -> "WhyNoBatchExplainer":
        """Batch over *every* missing answer the candidate domains allow.

        Enumerates the head tuples from the head variables' domains (entries
        of ``domains``, defaulting to the active domain), drops the tuples
        the query actually returns, and builds the batch over the rest — the
        "explain all missing answers" workload in one call.

        Examples
        --------
        >>> from repro.relational import Database, parse_query
        >>> db = Database()
        >>> _ = db.add_fact("R", "a", "b")
        >>> _ = db.add_fact("S", "b")
        >>> explainer = WhyNoBatchExplainer.for_missing_answers(
        ...     parse_query("q(x) :- R(x, y), S(y)"), db)
        >>> explainer.non_answers
        [('b',)]
        """
        if query.is_boolean:
            satisfied = evaluate_boolean(query, database)
            return cls(query, database,
                       non_answers=[] if satisfied else [()],
                       domains=domains, max_candidates=max_candidates,
                       backend=backend,
                       _actual_answers=frozenset([()]) if satisfied
                       else frozenset(),
                       _discover_on_refresh=True)
        targets, actual = _missing_heads(query, database, domains)
        # The answer set is handed down so the constructor's actual-answer
        # rejection does not repeat the open-query pass just run.
        return cls(query, database, non_answers=targets, domains=domains,
                   max_candidates=max_candidates, backend=backend,
                   _actual_answers=actual, _discover_on_refresh=True)

    # ------------------------------------------------------------------ #
    # shared state introspection
    # ------------------------------------------------------------------ #
    def candidates_for(self, non_answer: Optional[Sequence[Any]] = None
                       ) -> FrozenSet[Tuple]:
        """The candidate missing tuples ``Dn(ā)`` of one non-answer.

        Examples
        --------
        >>> from repro.relational import Database, parse_query
        >>> db = Database()
        >>> _ = db.add_fact("R", "a", "b")
        >>> explainer = WhyNoBatchExplainer(
        ...     parse_query("q(x) :- R(x, y), S(y)"), db,
        ...     non_answers=[("c",)], domains={"y": ["b"]})
        >>> sorted(map(repr, explainer.candidates_for(("c",))))
        ["R('c', 'b')", "S('b')"]
        """
        return self._per_answer_candidates[self._key(non_answer)]

    def candidate_union(self) -> FrozenSet[Tuple]:
        """All candidates in the shared combined instance (its ``Dn`` part)."""
        return self.combined.endogenous_tuples()

    def covers(self, non_answers: Iterable[Sequence[Any]],
               domains: Optional[Mapping[str, Iterable[Any]]] = None,
               candidates: Optional[Iterable[Tuple]] = None) -> bool:
        """Can this batch already serve these targets under this config?

        True iff the generation config matches (same ``domains``, same
        explicit ``candidates``) and every target is in the batch —
        :class:`repro.core.api.ExplanationSession` uses this to reuse the
        live engine instead of rebuilding one per call.
        """
        if self._poisoned is not None:
            return False
        explicit = None if candidates is None else frozenset(candidates)
        return (self.domains == domains
                and self._explicit_candidates == explicit
                and all(tuple(a) in self._per_answer_candidates
                        for a in non_answers))

    def n_lineage_of(self, non_answer: Optional[Sequence[Any]] = None,
                     simplify: bool = True) -> PositiveDNF:
        """The n-lineage of one non-answer over *its own* combined instance.

        Identical to ``n_lineage(query.bind(ā), Dx ∪ Dn(ā))`` even though
        the shared pass ran over the union instance — see
        :meth:`_n_lineage`.
        """
        return self._n_lineage(self._key(non_answer), simplify=simplify)

    # ------------------------------------------------------------------ #
    # explanation
    # ------------------------------------------------------------------ #
    def _n_lineage(self, key: Answer, simplify: bool = True) -> PositiveDNF:
        """n-lineage of one non-answer over *its own* combined instance.

        The sibling engine shares its precomputed state — grouped conjuncts
        (lazy bound-query pass for single targets) and the exogenous set —
        and :func:`_restricted_n_lineage` confines the shared pass to this
        non-answer's own candidates (see there for the soundness argument).
        """
        return _restricted_n_lineage(self._inner._conjuncts_for(key),
                                     self._per_answer_candidates[key],
                                     self._inner._exogenous,
                                     simplify=simplify)

    def _key(self, non_answer: Optional[Sequence[Any]]) -> Answer:
        if self._poisoned is not None:
            raise CausalityError(self._poisoned)
        if self.query.is_boolean:
            if non_answer not in (None, (), []):
                raise CausalityError("a Boolean query takes no answer tuple")
            key: Answer = ()
        else:
            if non_answer is None:
                raise CausalityError(
                    "a non-Boolean query needs the non-answer tuple to explain"
                )
            key = tuple(non_answer)
        if key not in self._per_answer_candidates:
            raise CausalityError(
                f"{key!r} is not in this batch's non-answer set; candidates "
                "were never generated for it"
            )
        return key

    def explain(self, non_answer: Optional[Sequence[Any]] = None
                ) -> Explanation:
        """The Why-No :class:`Explanation` of one non-answer of the batch.

        Results are memoized per non-answer; :meth:`refresh` drops exactly
        the memos a recorded change invalidates.
        """
        key = self._key(non_answer)
        memo = self._explanations.get(key)
        if memo is not None:
            self.memo_hits += 1
            return memo
        self.memo_misses += 1
        phi_n = self._n_lineage(key, simplify=True)
        causes = whyno_causes_from_n_lineage(phi_n)
        explanation = Explanation(self.query,
                                  None if self.query.is_boolean else key,
                                  CausalityMode.WHY_NO, causes)
        self._explanations[key] = explanation
        return explanation

    # ------------------------------------------------------------------ #
    # incremental re-explanation
    # ------------------------------------------------------------------ #
    def _is_instantiation(self, tup: Tuple, key: Answer) -> bool:
        """Would ``tup`` be generated as a candidate for non-answer ``key``?

        True iff some bound atom of ``q[key]`` matches ``tup``
        (:func:`~repro.relational.query.match_atom`, the same unifier the
        Why-So delta semi-join and the flow engine use) with every open
        variable drawn from its resolved candidate domain — the membership
        test of the generators, answered without re-running any product.
        """
        head_mapping = {term: value
                        for term, value in zip(self.query.head, key)
                        if isinstance(term, Variable)}
        for atom in self.query.atoms:
            mapping = match_atom(atom.substitute(head_mapping), tup)
            if mapping is not None and all(
                    value in self._resolved_domains.get(variable, ())
                    for variable, value in mapping.items()):
                return True
        return False

    def _refreshed_candidates(
        self, changed: FrozenSet[Tuple]
    ) -> TypingTuple[Dict[Answer, FrozenSet[Tuple]], FrozenSet[Answer]]:
        """Per-target candidate sets after a real-database change.

        Returns ``(new_sets, targets_whose_set_changed)``.  Explicit
        candidate sets are fixed by the caller and never change; generated
        sets are patched per changed tuple (a tuple now present stops being
        a candidate, a tuple now absent becomes one where it instantiates a
        bound atom within the domains) — unless a defaulted domain's active
        domain shifted, in which case the products change wholesale and the
        sets are regenerated via the in-memory generator.
        """
        targets = list(self.non_answers)
        if self._explicit_candidates is not None:
            return dict(self._per_answer_candidates), frozenset()
        adom = frozenset(self.database.active_domain())
        if self._defaulted_variables and any(
                self._resolved_domains[v] != adom
                for v in self._defaulted_variables):
            for variable in self._defaulted_variables:
                self._resolved_domains[variable] = adom
            new_sets = batch_candidate_missing_tuples(
                self.query, self.database, targets, domains=self.domains,
                max_candidates=self.max_candidates)
            dirty = frozenset(
                key for key in targets
                if new_sets[key] != self._per_answer_candidates[key])
            return new_sets, dirty
        if any(not values for values in self._resolved_domains.values()):
            # The generators produce empty candidate sets when *any* open
            # variable's domain is empty (the bound-query product is empty);
            # the sets were empty at construction and must stay empty.
            return dict(self._per_answer_candidates), frozenset()
        new_sets = {}
        dirty = set()
        for key in targets:
            candidates = self._per_answer_candidates[key]
            added = set()
            removed = set()
            for tup in changed:
                if self.database.contains(tup):
                    if tup in candidates:
                        removed.add(tup)
                elif tup not in candidates and self._is_instantiation(tup, key):
                    added.add(tup)
            if added or removed:
                candidates = (candidates - removed) | added
                if self.max_candidates is not None \
                        and len(candidates) > self.max_candidates:
                    raise CausalityError(
                        f"candidate set exceeds max_candidates="
                        f"{self.max_candidates}; restrict the variable domains"
                    )
                dirty.add(key)
            new_sets[key] = candidates
        return new_sets, frozenset(dirty)

    def _discover_new_non_answers(self) -> List[Answer]:
        """Head tuples that became non-answers since the batch was built.

        Re-runs the :meth:`for_missing_answers` enumeration against the
        *post-delta* database — the head-variable domain products (fixed
        ``domains`` entries, current active domain otherwise) minus the
        current answer set — and keeps the heads this batch does not
        already explain.  Sorted by the canonical answer order, so refresh
        results stay deterministic.
        """
        if self.query.is_boolean:
            if () in self._per_answer_candidates:
                return []
            return [] if evaluate_boolean(self.query, self.database) else [()]
        missing, _ = _missing_heads(self.query, self.database, self.domains)
        return [head for head in missing
                if head not in self._per_answer_candidates]

    def refresh(self, delta: DatabaseDelta,
                _changed: Optional[FrozenSet[Tuple]] = None) -> RefreshReport:
        """Apply one change to the real database; see :meth:`refresh_all`.

        Examples
        --------
        >>> from repro.relational import Database, DatabaseDelta, parse_query
        >>> from repro.relational.tuples import Tuple
        >>> db = Database()
        >>> _ = db.add_fact("R", "a", "b")
        >>> explainer = WhyNoBatchExplainer(
        ...     parse_query("q(x) :- R(x, y), S(y)"), db,
        ...     non_answers=[("a",)], domains={"y": ["b"]})
        >>> [c.tuple for c in explainer.explain(("a",)).ranked()]
        [S('b')]
        >>> report = explainer.refresh(DatabaseDelta(
        ...     inserts=[(Tuple("S", ("b",)), False)]))
        >>> sorted(report.removed_answers)  # q("a") now holds on Dx
        [('a',)]
        >>> explainer.non_answers
        []
        """
        return self.refresh_all((delta,), _changed=_changed)

    def refresh_all(self, deltas: Iterable[DatabaseDelta],
                    _changed: Optional[FrozenSet[Tuple]] = None
                    ) -> RefreshReport:
        """Apply a delta *stream* to the **real** database; one re-evaluation.

        The recorded deltas land on ``Dx`` in order; this method translates
        their net effect into one delta on the combined instance ``Dx ∪ Dn``
        — real inserts arrive as exogenous context, candidate sets are
        patched (an inserted tuple stops being a candidate, a deleted one
        may become one), and the whole thing is handed to the inner Why-So
        engine's :meth:`~repro.engine.batch.BatchExplainer.refresh_all`,
        which probes the shared lineage index instead of re-running the
        combined pass.  The invalidation set is the union of the per-delta
        changed sets — conservative for tuples a later delta puts back, and
        always resolved against the final state.

        Targets whose lineage the stream touches lose their memoized
        explanations; targets that *became answers* of the query on the
        mutated database are dropped from the batch and reported in
        ``removed_answers`` (a from-scratch construction would reject them).

        A batch built by :meth:`for_missing_answers` means "every missing
        answer", so the refresh also re-runs discovery against the
        post-delta active domain: head tuples that *became* non-answers
        (an answer's last witness deleted, or an insert growing the domain
        products) are admitted to the batch — candidates generated, the
        combined instance extended — and reported in the refresh result's
        ``new_answers`` (here: newly discovered non-answer targets).
        Batches built over a caller-fixed non-answer list keep explaining
        exactly the targets they were built for.

        ``_changed`` is internal (:class:`repro.core.api.ExplanationSession`
        shares one database between both engines and pre-applies the
        stream).
        """
        deltas = list(deltas)
        if not deltas:
            return RefreshReport(frozenset())
        if _changed is not None:
            changed = _changed
        else:
            changed_set: Set[Tuple] = set()
            for delta in deltas:
                changed_set |= delta.apply_to(self.database)
            changed = frozenset(changed_set)
        if not changed:
            return RefreshReport(changed)

        try:
            old_dn = self.combined.endogenous_tuples()
            new_sets, candidate_dirty = self._refreshed_candidates(changed)
            # Discovery (for_missing_answers batches only): tuples that
            # became non-answers enter the batch here, *before* the union
            # is taken, so their candidates ride the same combined delta.
            discovered: List[Answer] = []
            if self._discover_on_refresh:
                discovered = self._discover_new_non_answers()
                if discovered:
                    new_sets.update(batch_candidate_missing_tuples(
                        self.query, self.database, discovered,
                        domains=self.domains,
                        max_candidates=self.max_candidates))
            raw_union: FrozenSet[Tuple] = \
                frozenset().union(*new_sets.values()) if new_sets \
                else frozenset()
            new_dn = frozenset(t for t in raw_union
                               if not self.database.contains(t))

            # Translate into a combined-instance delta.  Deletes apply
            # first, so a tuple switching sides (real delete that becomes a
            # candidate, or candidate that became real) is listed on both
            # and the insert wins.
            # Both lists are built in sorted order: ``changed`` and the
            # endogenous sets are salted-hash sets, and the delta they feed
            # must not vary per process.
            combined_inserts: List[TypingTuple[Tuple, bool]] = [
                (tup, True) for tup in sorted(new_dn - old_dn)]
            combined_deletes: List[Tuple] = sorted(old_dn - new_dn)
            for tup in sorted(changed):
                if self.database.contains(tup):
                    if self.combined.is_endogenous(tup) or \
                            not self.combined.contains(tup):
                        combined_inserts.append((tup, False))
                    # else: pure partition flip on Dx — invisible in the
                    # combined instance, where every real tuple is exogenous.
                elif tup not in new_dn:
                    combined_deletes.append(tup)
            inner_report = self._inner.refresh(DatabaseDelta(
                inserts=combined_inserts, deletes=combined_deletes))
        except Exception:
            # The delta already landed on the real database but the batch
            # state could not follow (e.g. the patched candidate set blew
            # the max_candidates limit).  Serving memoized pre-delta
            # explanations now would be silent staleness — refuse instead.
            self._poisoned = (
                "a refresh failed after its delta was applied; the batch "
                "state no longer matches the database — rebuild the explainer"
            )
            self._explanations = {}
            raise

        self._per_answer_candidates = new_sets
        if inner_report.full_reset:
            dirty = set(self.non_answers)
            self._explanations = {}
        else:
            dirty = set(candidate_dirty)
            dirty.update(key for key in self.non_answers
                         if key in inner_report.stale
                         or key in inner_report.new_answers
                         or key in inner_report.removed_answers)
            for key in dirty:
                self._explanations.pop(key, None)

        # A dirty target whose group gained an all-real conjunct is now an
        # actual answer of the query on Dx: drop it, as construction would.
        exogenous = self._inner._exogenous
        now_answers = set()
        for key in sorted(dirty, key=value_sort_key):
            conjuncts = self._inner._conjuncts_for(key)
            if any(all(t in exogenous for t in conjunct)
                   for conjunct in conjuncts):
                now_answers.add(key)
                del self._per_answer_candidates[key]
                self._explanations.pop(key, None)
                self.non_answers = [t for t in self.non_answers if t != key]
        dirty -= now_answers
        if discovered:
            # Admit the discovered targets; re-sorting keeps the batch in
            # the same canonical order a fresh for_missing_answers build
            # would produce (discovery only runs for those batches).
            self.non_answers = sorted(
                set(self.non_answers) | set(discovered), key=value_sort_key)
        return RefreshReport(changed, frozenset(dirty),
                             new_answers=frozenset(discovered),
                             removed_answers=frozenset(now_answers))

    def explain_all(self, non_answers: Optional[Iterable[Sequence[Any]]] = None,
                    workers: Optional[int] = None,
                    transport: str = "auto",
                    on_chunk: Optional[OnChunk] = None,
                    chunking: str = "contiguous") -> FanOutResult:
        """Explanations for every non-answer (or the given subset).

        Runs :func:`~repro.engine.batch.explain_batch`, the driver shared
        with :meth:`repro.engine.BatchExplainer.explain_all`, which
        documents ``workers``, ``transport``, ``on_chunk`` and
        ``chunking``.  The parent finishes the one shared valuation pass
        over the combined instance first; fan-out workers inherit the
        pre-grouped conjuncts, the per-non-answer candidate sets and the
        exogenous set and only restrict + rank — no worker regenerates
        candidates, rebuilds the combined instance or re-runs a pass.

        Examples
        --------
        >>> from repro.relational import Database, parse_query
        >>> db = Database()
        >>> _ = db.add_fact("R", "a", "b")
        >>> explainer = WhyNoBatchExplainer(
        ...     parse_query("q(x) :- R(x, y), S(y)"), db,
        ...     non_answers=[("a",), ("c",)], domains={"y": ["b"]})
        >>> for na, explanation in explainer.explain_all().items():
        ...     print(na, [c.tuple for c in explanation.ranked()])
        ('a',) [S('b')]
        ('c',) [R('c', 'b'), S('b')]
        """
        if self._poisoned is not None:
            raise CausalityError(self._poisoned)
        # Out-of-batch targets are rejected here, before the shared pass.
        targets = list(self.non_answers) if non_answers is None \
            else list(dict.fromkeys(self._key(a) for a in non_answers))
        if len(targets) > 1:
            # One shared valuation pass serves the batch (and is what the
            # workers inherit); a single target keeps the cheaper lazy
            # bound-query evaluation.
            self._inner.answers()
        return explain_batch(self, targets, self._stage_fanout, workers,
                             transport, on_chunk, chunking)

    def _require_target(self, target: Answer) -> None:
        """The driver's per-target check: membership in this batch."""
        self._key(target)

    def _stage_fanout(self, targets: List[Answer]
                      ) -> TypingTuple["_WhyNoFanOutState", FanOutSpec]:
        state = _WhyNoFanOutState(self.query, self._inner._conjuncts,
                                  self._inner._exogenous,
                                  self._per_answer_candidates)
        return state, _WHYNO_SPEC

    def close(self) -> None:
        """Release the backend session's resources (e.g. the SQLite load)."""
        self._inner.close()

    def __repr__(self) -> str:
        return (f"WhyNoBatchExplainer({self.query!r}, {len(self.non_answers)} "
                f"non-answer(s), |Dn|={len(self.candidate_union())}, "
                f"backend={self.backend!r})")


class _WhyNoFanOutState:
    """What a Why-No fan-out worker inherits from the parent.

    Only completed shared work travels: the grouped conjuncts of the one
    combined-instance pass, the exogenous set (= all real tuples) and the
    per-non-answer candidate sets.  Notably *no* database and no backend —
    restriction and witness-size ranking are pure formula work.
    """

    __slots__ = ("query", "conjuncts", "exogenous", "per_answer_candidates")

    def __init__(self, query: ConjunctiveQuery,
                 conjuncts: Dict[Answer, ConjunctGroup],
                 exogenous: FrozenSet[Tuple],
                 per_answer_candidates: Dict[Answer, FrozenSet[Tuple]]
                 ) -> None:
        self.query = query
        self.conjuncts = conjuncts
        self.exogenous = exogenous
        self.per_answer_candidates = per_answer_candidates


def _whyno_worker_explain(state: _WhyNoFanOutState, key: Answer) -> Explanation:
    """Fan-out worker: restrict the inherited group, read the causes off it."""
    # The inherited group may still be a columnar ValuationBlock (blocks are
    # what fan-out chunks ship — cheaper to pickle than conjunct frozensets);
    # restriction needs per-valuation conjuncts, so materialise here.
    phi_n = _restricted_n_lineage(
        materialize_conjuncts(state.conjuncts.get(key, [])),
        state.per_answer_candidates[key],
        state.exogenous)
    causes = whyno_causes_from_n_lineage(phi_n)
    return Explanation(state.query, None if state.query.is_boolean else key,
                       CausalityMode.WHY_NO, causes)


_WHYNO_SPEC = FanOutSpec(compute=_whyno_worker_explain)


def batch_explain_whyno(query: ConjunctiveQuery, database: Database,
                        non_answers: Optional[Iterable[Sequence[Any]]] = None,
                        domains: Optional[Mapping[str, Iterable[Any]]] = None,
                        candidates: Optional[Iterable[Tuple]] = None,
                        max_candidates: Optional[int] = None,
                        workers: Optional[int] = None,
                        backend: str = "memory",
                        transport: str = "auto") -> Dict[Answer, Explanation]:
    """One-shot convenience: Why-No explanations for every given non-answer.

    Examples
    --------
    >>> from repro.relational import Database, parse_query
    >>> db = Database()
    >>> _ = db.add_fact("R", "a", "b")
    >>> results = batch_explain_whyno(parse_query("q(x) :- R(x, y), S(y)"),
    ...                               db, non_answers=[("a",)])
    >>> [c.tuple for c in results[("a",)].ranked()]
    [S('b'), R('a', 'a'), S('a')]
    """
    explainer = WhyNoBatchExplainer(
        query, database, non_answers=non_answers, domains=domains,
        candidates=candidates, max_candidates=max_candidates, backend=backend)
    return explainer.explain_all(workers=workers, transport=transport)
