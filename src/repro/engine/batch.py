"""Batch explanation: evaluate once, explain every answer.

The per-answer :func:`repro.core.api.explain` pipeline re-enumerates
valuations, rebuilds the lineage DNF and re-runs the hitting-set machinery
from scratch for every (query, answer) pair.  For the Fig. 2-style workloads
("rank *all* answers of q on IMDB by responsibility") almost all of that work
is shared:

* one pass over the valuations of the **open** query yields the lineage
  conjuncts of *every* answer at once — a valuation whose head values equal
  ``ā`` is exactly a valuation of the bound query ``q[ā/x̄]``, so grouping
  valuations by head tuple reproduces each answer's lineage bit-exactly;
* the column stores of the session's :class:`QueryEvaluator` are built
  once, and every answer's flow engine enumerates its bound query through
  that same evaluator;
* the exact engine's minimum contingencies are memoized per (simplified
  n-lineage, inspected tuple) in a :class:`~repro.engine.cache.LineageCache`,
  which a refresh invalidates per changed tuple.

Independent answers can optionally be fanned out over worker processes
(``workers=N``) through the :mod:`repro.engine._pool` seam: the parent
finishes the open-query pass first and the workers *inherit* it — the
pre-grouped per-answer valuations, the exogenous set and a read-only
:meth:`~repro.relational.session.BackendSession.fanout_snapshot` of the
database travel by fork inheritance or one pickled shared-memory segment,
never per chunk — so no worker re-runs any valuation pass.  Workers send
back ranked :class:`Explanation`\\ s only, which the parent memoizes;
results are bit-identical to the serial path.

The valuation pass itself is pluggable (``backend="memory"`` /
``"sqlite"``): the SQLite backend of
:mod:`repro.relational.sqlite_backend` runs it as one SQL query over the
loaded instance, producing the same valuations — and therefore bit-identical
explanations — without materialising the join in Python.

Per-tuple responsibilities keep the complexity-aware dispatch of
:func:`repro.core.responsibility.responsibility`: ``method="auto"`` runs
Algorithm 1 (PTIME for weakly linear, self-join-free queries) through a
shared :class:`~repro.core.flow_responsibility.FlowEngine` — one valuation
pass and one layer construction per bound query instead of one per tuple —
and falls back to the exact hitting-set solver over the shared n-lineage
otherwise.  ``method="flow"`` / ``"exact"`` force one engine, like the
single-answer dispatcher; Theorem 4.5 (pinned by the cross-engine property
tests) guarantees the engines agree wherever both apply.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple as TypingTuple,
    cast,
)

from ..core.api import Explanation
from ..core.definitions import CausalityMode, Cause, responsibility_value
from ..core.flow_responsibility import FlowEngine, FlowResponsibilityResult
from ..core.responsibility import CodedLineage
from ..exceptions import CausalityError, FanOutWorkerError, NotLinearError
from ..lineage.boolean_expr import PositiveDNF
from ..relational.columnar import ConjunctGroup, ValuationBlock, \
    materialize_conjuncts
from ..relational.database import Database
from ..relational.delta import DatabaseDelta
from ..relational.query import ConjunctiveQuery, Constant, Variable, match_atom
from ..relational.session import BackendSession, open_session
from ..relational.tuples import Tuple, value_sort_key
from ._pool import FanOutResult, FanOutSpec, OnChunk, fan_out, \
    resolve_transport
from .cache import LineageCache
from .lineage_index import LineageIndex

Answer = TypingTuple[Any, ...]

class RefreshReport:
    """What a delta-aware ``refresh`` actually re-evaluated.

    Attributes
    ----------
    changed_tuples:
        The tuples whose presence or partition the delta changed.
    stale:
        Answers whose cached explanations were dropped (their lineage
        touches a changed tuple, or a conservative invalidation fired).
    new_answers:
        Heads that became derivable through the delta's inserts.
    removed_answers:
        Heads whose last witnessing valuation died with a delete.
    full_reset:
        ``True`` when the engine fell back to lazy from-scratch state
        (nothing had been evaluated yet, or a relation-level partition
        change made per-answer diffing unsound); the per-answer fields are
        then empty.
    """

    __slots__ = ("changed_tuples", "stale", "new_answers", "removed_answers",
                 "full_reset")

    def __init__(self, changed_tuples: FrozenSet[Tuple],
                 stale: FrozenSet[Answer] = frozenset(),
                 new_answers: FrozenSet[Answer] = frozenset(),
                 removed_answers: FrozenSet[Answer] = frozenset(),
                 full_reset: bool = False) -> None:
        self.changed_tuples = changed_tuples
        self.stale = stale
        self.new_answers = new_answers
        self.removed_answers = removed_answers
        self.full_reset = full_reset

    def __repr__(self) -> str:
        if self.full_reset:
            return (f"RefreshReport({len(self.changed_tuples)} changed "
                    "tuple(s), full reset)")
        return (f"RefreshReport({len(self.changed_tuples)} changed tuple(s), "
                f"{len(self.stale)} stale, +{len(self.new_answers)}/"
                f"-{len(self.removed_answers)} answer(s))")


class BatchExplainer:
    """Explain many answers of one query with shared evaluation state.

    Parameters
    ----------
    query:
        The (possibly non-Boolean) conjunctive query.
    database:
        The instance with its endogenous/exogenous partition.
    method:
        ``"auto"`` (default) dispatches like the single-answer API: Algorithm 1
        (shared :class:`FlowEngine`) for weakly linear self-join-free queries,
        exact hitting-set over the shared n-lineage otherwise.  ``"exact"``
        forces the hitting-set engine; ``"flow"`` forces Algorithm 1 (raising
        :class:`~repro.exceptions.NotLinearError` when not applicable).
    backend:
        ``"memory"`` (default) runs the valuation pass through the in-memory
        :class:`QueryEvaluator`; ``"sqlite"`` loads the instance into SQLite
        and runs the pass as one SQL query per (open or bound) query via
        :class:`~repro.relational.sqlite_backend.SQLiteEvaluator` — same
        valuations, same explanations, but the join no longer lives in
        Python (see README "Backends").

    Examples
    --------
    >>> from repro.relational import Database, parse_query
    >>> db = Database()
    >>> for x, y in [("a1", "a5"), ("a2", "a1"), ("a4", "a3")]:
    ...     _ = db.add_fact("R", x, y)
    >>> for y in ["a1", "a3"]:
    ...     _ = db.add_fact("S", y)
    >>> explainer = BatchExplainer(parse_query("q(x) :- R(x, y), S(y)"), db)
    >>> sorted(explainer.answers())
    [('a2',), ('a4',)]
    >>> len(explainer.explain(("a2",)))
    2
    """

    def __init__(self, query: ConjunctiveQuery, database: Database,
                 method: str = "auto", backend: str = "memory",
                 session: Optional[BackendSession] = None) -> None:
        if method not in ("auto", "exact", "flow"):
            raise CausalityError(f"unknown method {method!r}")
        if session is not None:
            if session.database is not database:
                raise CausalityError(
                    "the given session wraps a different database instance"
                )
            backend = session.backend_name
        elif backend not in ("memory", "sqlite"):
            raise CausalityError(f"unknown backend {backend!r}")
        self.query = query
        self.database = database
        self.method = method
        self.backend = backend
        self.cache = LineageCache()
        self.session = session if session is not None \
            else open_session(database, backend=backend)
        # Mutable on purpose: refresh patches membership per changed tuple
        # instead of re-scanning the instance.
        self._exogenous = set(database.exogenous_tuples())
        # answer -> lineage conjuncts (or a still-columnar ValuationBlock,
        # materialised lazily); populated wholesale by the single open-query
        # pass, or per answer by bound-query evaluation.
        self._conjuncts: Dict[Answer, ConjunctGroup] = {}
        # tuple -> answers whose group mentions it; built with the full pass
        # and kept in lockstep with ``_conjuncts`` by the delta path.
        self._index: Optional[LineageIndex] = None
        self._full_pass_done = False
        # bound query -> (FlowEngine, or the NotLinearError for self-joins;
        # relation -> the NotLinearError the engine raised for it), sharing
        # valuations, layers and refusals across that answer's tuples.
        self._flow_engines: Dict[ConjunctiveQuery, TypingTuple[
            Any, Dict[str, NotLinearError]]] = {}
        # answer -> Explanation, so a refresh() can keep the untouched ones.
        self._explanations: Dict[Answer, Explanation] = {}
        # Served-from-memo vs computed counts (the serving layer's cache
        # hit rate; the LineageCache keeps its own per-lineage stats).
        self.memo_hits = 0
        self.memo_misses = 0

    @property
    def _evaluator(self) -> Any:
        """The session's evaluator (refreshed by ``apply_delta``)."""
        return self.session.evaluator

    # ------------------------------------------------------------------ #
    # shared evaluation
    # ------------------------------------------------------------------ #
    def _run_full_pass(self) -> None:
        """One evaluation of the open query; group conjuncts by answer.

        Memory groups stay columnar blocks until an explanation or a
        refresh first touches the answer (:meth:`_conjuncts_for`); SQLite
        groups in the backend and returns conjunct lists.  Either way the
        per-answer conjunct sets are identical.
        """
        if self._full_pass_done:
            return
        grouped = self._evaluator.valuations_blocks(self.query)
        self._conjuncts = grouped
        self._full_pass_done = True
        index = LineageIndex()
        index.rebuild(grouped)
        self._index = index

    @property
    def lineage_index(self) -> Optional[LineageIndex]:
        """The lineage inverted index (``None`` until the full pass ran)."""
        return self._index

    def _conjuncts_for(self, answer: Answer) -> List[FrozenSet[Tuple]]:
        if self._full_pass_done:
            group = self._conjuncts.get(answer, [])
            if isinstance(group, ValuationBlock):
                # Materialise the columnar block into lineage conjuncts on
                # first touch, in place — answers never explained stay in
                # (much cheaper) block form.
                group = group.conjuncts()
                self._conjuncts[answer] = group
            return group
        if answer not in self._conjuncts:
            bound = self.query.bind(answer) if not self.query.is_boolean \
                else self.query
            self._conjuncts[answer] = [
                v.tuples() for v in self._evaluator.valuations(bound)
            ]
        return cast(List[FrozenSet[Tuple]], self._conjuncts[answer])

    def answers(self) -> List[Answer]:
        """Every answer of the query, in deterministic order (one evaluation)."""
        self._run_full_pass()
        return sorted(self._conjuncts, key=value_sort_key)

    # ------------------------------------------------------------------ #
    # per-answer explanation over the shared state
    # ------------------------------------------------------------------ #
    def _flow_responsibility(self, bound: ConjunctiveQuery, tuple_: Tuple
                             ) -> FlowResponsibilityResult:
        """Algorithm 1 through the bound query's shared :class:`FlowEngine`.

        A refusal (:class:`NotLinearError`) depends only on the inspected
        tuple's relation and the database state, so it is remembered per
        relation for as long as the engine lives; a refresh that drops the
        engine drops its refusals with it.
        """
        # Refusals are kept as bare copies and raised as fresh ones: a raised
        # error's traceback holds the call stack's frames, and with them the
        # answer's lineage, for as long as the error lives.
        entry = self._flow_engines.get(bound)
        if entry is None:
            try:
                engine: Any = FlowEngine(bound, self._evaluator)
            except NotLinearError as error:
                engine = NotLinearError(*error.args)
            entry = self._flow_engines[bound] = (engine, {})
        engine, refusals = entry
        refusal = engine if isinstance(engine, NotLinearError) \
            else refusals.get(tuple_.relation)
        if refusal is not None:
            raise NotLinearError(*refusal.args)
        try:
            return engine.responsibility(tuple_)
        except NotLinearError as error:
            refusals[tuple_.relation] = NotLinearError(*error.args)
            raise

    def _responsibility(
            self, bound: ConjunctiveQuery,
            get_lineage: Callable[[], CodedLineage], tuple_: Tuple,
    ) -> TypingTuple[Any, Optional[FrozenSet[Tuple]]]:
        if self.method in ("auto", "flow"):
            try:
                result = self._flow_responsibility(bound, tuple_)
                return result.responsibility, result.min_contingency
            except NotLinearError:
                if self.method == "flow":
                    raise
                # auto: fall back to the exact engine, like the dispatcher.
        gamma = self.cache.minimum_contingency(get_lineage(), tuple_)
        rho = responsibility_value(None if gamma is None else len(gamma))
        return rho, gamma

    def explain(self, answer: Optional[Sequence[Any]] = None) -> Explanation:
        """The Why-So :class:`Explanation` of one answer.

        Raises :class:`~repro.exceptions.CausalityError` when ``answer`` is
        not actually returned by the query on this database.  Results are
        memoized per answer; :meth:`refresh` drops exactly the memos a
        recorded change invalidates.
        """
        key = self._key(answer)
        memo = self._explanations.get(key)
        if memo is not None:
            self.memo_hits += 1
            return memo
        self.memo_misses += 1
        explanation = self._explain_uncached(key, answer)
        self._explanations[key] = explanation
        return explanation

    def _key(self, answer: Optional[Sequence[Any]]) -> Answer:
        if self.query.is_boolean:
            if answer not in (None, (), []):
                raise CausalityError("a Boolean query takes no answer tuple")
            return ()
        if answer is None:
            raise CausalityError(
                "a non-Boolean query needs the answer tuple to explain"
            )
        return tuple(answer)

    def _require_target(self, target: Answer) -> None:
        """Raise unless ``target`` is an answer; run before anything streams.

        After the full pass this is a lookup in its groups (no block is
        materialised); before it, the target's lineage is evaluated lazily,
        exactly as :meth:`explain` would, so the full pass is never forced.
        """
        known = target in self._conjuncts if self._full_pass_done \
            else bool(self._conjuncts_for(target))
        if not known:
            raise CausalityError(
                f"{target!r} is not an answer on this database; "
                "use mode='why-no'"
            )

    def _explain_uncached(self, key: Answer,
                          answer: Optional[Sequence[Any]]) -> Explanation:
        conjuncts = self._conjuncts_for(key)
        if not conjuncts:
            raise CausalityError(
                f"{answer!r} is not an answer on this database; use mode='why-no'"
            )
        phi = PositiveDNF(conjuncts)
        phi_n_raw = phi.set_true(self._exogenous)
        candidates = sorted(
            t for t in phi_n_raw.variables() if self.database.is_endogenous(t)
        )

        # The simplified, coded lineage is only needed by the exact engine;
        # when the flow engine serves every tuple, skip the quadratic
        # simplification.  Otherwise it is built once for all the tuples.
        coded: List[CodedLineage] = []

        def get_lineage() -> CodedLineage:
            if not coded:
                coded.append(CodedLineage(phi_n_raw.remove_redundant()))
            return coded[0]

        bound = self.query if self.query.is_boolean else self.query.bind(key)
        scored = []
        for tuple_ in candidates:
            rho, gamma = self._responsibility(bound, get_lineage, tuple_)
            if rho > 0:
                scored.append((rho, tuple_, gamma))
        scored.sort(key=lambda item: (-item[0], item[1]))
        causes = [
            Cause(tuple_, CausalityMode.WHY_SO, responsibility=rho,
                  contingency=gamma)
            for rho, tuple_, gamma in scored
        ]
        return Explanation(self.query, None if self.query.is_boolean else key,
                           CausalityMode.WHY_SO, causes)

    def explain_all(self, answers: Optional[Iterable[Sequence[Any]]] = None,
                    workers: Optional[int] = None,
                    transport: str = "auto",
                    on_chunk: Optional[OnChunk] = None,
                    chunking: str = "contiguous") -> FanOutResult:
        """Explanations for every answer (or the given subset), keyed by answer.

        Runs :func:`explain_batch`, which documents ``workers``,
        ``transport``, ``on_chunk`` and ``chunking``.  With ``workers`` > 1
        the parent completes the open-query valuation pass first; every
        worker *inherits* the resulting per-answer groups, the exogenous
        set and a read-only snapshot of the database, so no worker re-runs
        a valuation pass.  Workers return explanations only: each fills a
        :class:`~repro.engine.cache.LineageCache` of its own, and this
        explainer's cache entries and counters keep counting the parent's
        own work.  Every explicit target is checked to be an answer before
        anything is explained or streamed.

        Examples
        --------
        >>> from repro.relational import Database, parse_query
        >>> db = Database()
        >>> for x, y in [("a2", "a1"), ("a4", "a3")]:
        ...     _ = db.add_fact("R", x, y)
        >>> for y in ["a1", "a3"]:
        ...     _ = db.add_fact("S", y)
        >>> explainer = BatchExplainer(parse_query("q(x) :- R(x, y), S(y)"), db)
        >>> for answer, explanation in explainer.explain_all().items():
        ...     print(answer, [c.tuple for c in explanation.ranked()])
        ('a2',) [R('a2', 'a1'), S('a1')]
        ('a4',) [R('a4', 'a3'), S('a3')]
        >>> explainer.explain_all().transport
        'serial'
        """
        targets = self.answers() if answers is None \
            else list(dict.fromkeys(self._key(a) for a in answers))
        return explain_batch(self, targets, self._stage_fanout, workers,
                             transport, on_chunk, chunking)

    def _stage_fanout(self, targets: List[Answer]
                      ) -> TypingTuple["_WhySoFanOutState", FanOutSpec]:
        # Finish the shared pass here, so the workers inherit it.
        self._run_full_pass()
        state = _WhySoFanOutState(self.query, self.session.fanout_snapshot(),
                                  self.method, self._conjuncts,
                                  self._exogenous)
        return state, _WHYSO_SPEC

    # ------------------------------------------------------------------ #
    # incremental re-explanation
    # ------------------------------------------------------------------ #
    def _delta_valuations(
            self, through: Iterable[Tuple],
    ) -> Iterator[TypingTuple[Answer, FrozenSet[Tuple]]]:
        """Every valuation of the open query using a tuple of ``through``.

        This is the semi-join of the delta against the query: for each
        changed-and-present tuple and each atom it can match, the atom's
        variables are substituted with the tuple's values and the residual
        query (one atom ground, the rest intact) is evaluated through the
        session — so the join explores only the neighbourhood of the change.
        Valuations reachable through several changed tuples are deduplicated
        by their per-atom matched tuples (which determine the assignment).
        """
        seen: set = set()
        # Sort by the type-tolerant key (relation, value_sort_key) — the one
        # the why-no refresh uses — so mixed-type values in one relation
        # cannot break the deterministic iteration order mid-refresh.
        for tup in sorted(through, key=Tuple.sort_key):
            for atom in self.query.atoms:
                mapping = match_atom(atom, tup)
                if mapping is None:
                    continue
                residual = self.query.substitute(mapping)
                for valuation in self._evaluator.valuations(residual):
                    identity = valuation.atom_tuples
                    if identity in seen:
                        continue
                    seen.add(identity)
                    assignment = dict(valuation.assignment)
                    assignment.update(mapping)
                    head = []
                    for term in self.query.head:
                        if isinstance(term, Variable):
                            head.append(assignment[term])
                        else:
                            assert isinstance(term, Constant)
                            head.append(term.value)
                    yield tuple(head), valuation.tuples()

    def _reset_lazy(self) -> None:
        """Drop all evaluated state; everything recomputes lazily on demand."""
        self._conjuncts = {}
        self._full_pass_done = False
        self._index = None
        self._flow_engines = {}
        self._explanations = {}

    def refresh(self, delta: DatabaseDelta) -> RefreshReport:
        """Apply one recorded change; equivalent to ``refresh_all([delta])``.

        Examples
        --------
        >>> from repro.relational import Database, DatabaseDelta, parse_query
        >>> from repro.relational.tuples import Tuple
        >>> db = Database()
        >>> for x, y in [("a2", "a1"), ("a4", "a3")]:
        ...     _ = db.add_fact("R", x, y)
        >>> for y in ["a1", "a3"]:
        ...     _ = db.add_fact("S", y)
        >>> explainer = BatchExplainer(parse_query("q(x) :- R(x, y), S(y)"), db)
        >>> sorted(explainer.answers())
        [('a2',), ('a4',)]
        >>> report = explainer.refresh(DatabaseDelta(
        ...     deletes=[Tuple("S", ("a3",))]))
        >>> sorted(report.removed_answers), sorted(explainer.answers())
        ([('a4',)], [('a2',)])
        """
        return self.refresh_all((delta,))

    def refresh_all(self, deltas: Iterable[DatabaseDelta]) -> RefreshReport:
        """Apply a delta *stream* and re-evaluate **only** what it touches.

        The deltas are applied in order through the session (each mutates
        the loaded instance in place — no re-load), then the valuation
        groups are patched once, against the final state:

        1. one batched probe of the lineage inverted index finds the dirty
           answers — O(k · fanout) for k changed tuples, instead of a sweep
           over every answer's group — and their conjuncts containing a
           changed tuple are dropped;
        2. the valuations running through the changed tuples that still
           exist are re-derived via :meth:`_delta_valuations` and their
           conjuncts appended — one re-derivation pass for the whole stream
           (intermediate states need no groups: a valuation surviving to
           the final state is re-derived, one that does not is dropped);
           the index is then re-pointed for exactly the dirty answers;
        3. cached explanations, flow engines and
           :class:`~repro.engine.cache.LineageCache` entries are invalidated
           per answer / per tuple, so a following ``explain_all`` re-solves
           only the stale answers.  A flow engine reads the same
           annotation-respecting valuations as its answer's group.

        One conservative escape hatch: when the stream changes whether some
        query relation has endogenous tuples *at all*, the relation-level
        abstraction behind Algorithm 1 may shift for every answer, so all
        cached explanations are dropped (the groups are still maintained
        incrementally).

        Returns one :class:`RefreshReport` for the whole stream, with
        ``changed_tuples`` the union over the deltas; see
        ``bench_lineage_index`` for the cost model this buys (refresh time
        proportional to the delta, flat across instance sizes).
        """
        deltas = list(deltas)
        if not deltas:
            return RefreshReport(frozenset())
        # Relation-level endogenous emptiness, before the stream lands
        # (O(1) per relation via the database's partition counters).
        touched_relations: set = set()
        for delta in deltas:
            touched_relations |= delta.relations()
        query_relations = set(self.query.relation_names())
        had_endogenous = {
            relation: self.database.has_endogenous(relation)
            for relation in touched_relations & query_relations
        }

        changed_set: set = set()
        for delta in deltas:
            changed_set |= self.session.apply_delta(delta)
        changed = frozenset(changed_set)
        if not changed:
            # Satellite fix: a no-op stream pays nothing — no cache scan,
            # no exogenous-set maintenance.
            return RefreshReport(changed)

        # Patch the exogenous set per changed tuple (never a full rebuild).
        self._exogenous.difference_update(changed)
        for tup in changed:
            if self.database.contains(tup) \
                    and not self.database.is_endogenous(tup):
                self._exogenous.add(tup)
        # Invalidate only now that ``changed`` is known non-empty; the
        # cache probes its per-tuple key index, not every entry.
        self.cache.invalidate_tuples(changed)

        if not self._full_pass_done or self._index is None:
            # Nothing evaluated wholesale yet (at most a few lazily bound
            # answers): cheapest correct refresh is to start over lazily.
            self._reset_lazy()
            return RefreshReport(changed, full_reset=True)

        # 1. one batched index probe; drop the dirty answers' conjuncts
        #    that run through a changed tuple.
        dirty = self._index.answers_with(changed)
        stale: set = set()
        for answer in dirty:
            # A dirty answer's group must be filtered conjunct-by-conjunct,
            # so a still-columnar block materialises here (and stays a list
            # from now on — exactly the answers the delta touched).
            group = materialize_conjuncts(self._conjuncts.get(answer, []))
            kept = [conjunct for conjunct in group
                    if not (conjunct & changed)]
            if len(kept) != len(group):
                stale.add(answer)
                if kept:
                    self._conjuncts[answer] = kept
                else:
                    del self._conjuncts[answer]

        # 2. re-derive the valuations through the changed tuples that exist
        #    in the mutated database (inserts and flips; deletes are gone).
        #    An answer is "new" only if it was in nobody's books before the
        #    stream — neither grouped nor dirty: a dirty answer whose group
        #    was emptied above and re-derived here existed throughout (e.g.
        #    a pure partition flip) and is stale, not new.
        present = {t for t in changed if self.database.contains(t)}
        fresh_heads: set = set()
        new_answers: set = set()
        for head, conjunct in self._delta_valuations(present):
            if head not in self._conjuncts and head not in dirty:
                new_answers.add(head)
            group = self._conjuncts.get(head)
            if group is None or isinstance(group, ValuationBlock):
                group = materialize_conjuncts(group) if group is not None \
                    else []
                self._conjuncts[head] = group
            group.append(conjunct)
            fresh_heads.add(head)
            stale.add(head)
        removed = frozenset(a for a in dirty if a not in self._conjuncts)
        stale = {a for a in stale if a in self._conjuncts}

        # Re-point the index for exactly the answers whose groups moved.
        for answer in dirty | fresh_heads:
            group = self._conjuncts.get(answer)
            if group:
                self._index.index_answer(answer, group)
            else:
                self._index.drop_answer(answer)

        # 3. invalidate per-answer caches.
        partition_shift = any(
            had_endogenous[relation] != self.database.has_endogenous(relation)
            for relation in had_endogenous
        )
        if partition_shift:
            # The relation-level endogenous classification feeding
            # abstract_query/FlowEngine changed: drop every memoized
            # explanation (the groups stay incrementally exact).
            previously_cached = self._explanations
            self._flow_engines = {}
            self._explanations = {}
            stale |= {a for a in previously_cached if a in self._conjuncts}
        else:
            for answer in stale | removed:
                self._explanations.pop(answer, None)
                bound = self.query if self.query.is_boolean \
                    else self.query.bind(answer)
                self._flow_engines.pop(bound, None)
        return RefreshReport(changed, frozenset(stale),
                             frozenset(new_answers), frozenset(removed))

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def n_lineage_of(self, answer: Optional[Sequence[Any]] = None,
                     simplify: bool = True) -> PositiveDNF:
        """The (shared) n-lineage of one answer, as the engine sees it.

        Raises :class:`~repro.exceptions.CausalityError`, like
        :meth:`explain`, when ``answer`` is not an answer on this database.
        """
        key = self._key(answer)
        self._require_target(key)
        phi = PositiveDNF(self._conjuncts_for(key))
        phi_n = phi.set_true(self._exogenous)
        return phi_n.remove_redundant() if simplify else phi_n

    def close(self) -> None:
        """Release the backend session's resources (e.g. the SQLite load)."""
        self.session.close()

    def __repr__(self) -> str:
        state = "evaluated" if self._full_pass_done else "lazy"
        return (f"BatchExplainer({self.query!r}, {self.database!r}, "
                f"method={self.method!r}, backend={self.backend!r}, {state})")


class _WhySoFanOutState:
    """What a Why-So fan-out worker inherits from the parent.

    Everything here is the *completed* shared work: the per-answer groups of
    the open-query pass (columnar :class:`ValuationBlock` values where the
    pass ran columnar — blocks pickle as shared row lists plus row-id
    vectors, far cheaper than per-valuation frozensets — lists of conjuncts
    otherwise), the exogenous set, and the read-only database snapshot
    (needed for partition lookups and the per-answer flow engines) — no
    backend handles, no bound queries.
    """

    __slots__ = ("query", "database", "method", "conjuncts", "exogenous")

    def __init__(self, query: ConjunctiveQuery, database: Database,
                 method: str, conjuncts: Dict[Answer, ConjunctGroup],
                 exogenous: FrozenSet[Tuple]) -> None:
        self.query = query
        self.database = database
        self.method = method
        self.conjuncts = conjuncts
        self.exogenous = exogenous


def _whyso_worker_setup(state: _WhySoFanOutState) -> BatchExplainer:
    """Build the worker-side explainer *around* the inherited pass.

    The explainer is constructed on the memory backend (workers never touch
    an execution backend) and then handed the parent's grouped valuations,
    so its ``explain`` runs exactly the serial per-answer step — lineage to
    n-lineage to ranked causes — without any evaluation.
    """
    explainer = BatchExplainer(state.query, state.database,
                               method=state.method)
    explainer._conjuncts = state.conjuncts
    explainer._full_pass_done = True
    explainer._exogenous = state.exogenous
    return explainer


def _whyso_worker_explain(explainer: BatchExplainer,
                          answer: Answer) -> Explanation:
    return explainer.explain(answer)


_WHYSO_SPEC = FanOutSpec(compute=_whyso_worker_explain,
                         setup=_whyso_worker_setup)


def explain_batch(engine: Any, targets: List[Answer],
                  stage: Callable[[List[Answer]],
                                  TypingTuple[Any, FanOutSpec]],
                  workers: Optional[int] = None, transport: str = "auto",
                  on_chunk: Optional[OnChunk] = None,
                  chunking: str = "contiguous") -> FanOutResult:
    """The one ``explain_all`` driver of both batch engines.

    ``engine`` is a :class:`BatchExplainer` or a
    :class:`~repro.engine.whyno_batch.WhyNoBatchExplainer`: it explains one
    target with ``explain``, memoizes in ``_explanations``, counts
    ``memo_hits`` / ``memo_misses`` and rejects a target it cannot explain
    with ``_require_target``.  ``stage(pending)`` finishes the engine's
    shared work and returns the ``(state, spec)`` pair the workers inherit.

    ``workers`` > 1 fans the not-yet-memoized targets out over worker
    processes through the chosen ``transport`` (see
    :mod:`repro.engine._pool`: ``"auto"``, ``"serial"``, ``"fork"``,
    ``"shared-memory"``), claimed in chunks set by ``chunking``
    (``"contiguous"``, the default, or ``"stealing"``).  Memoized targets
    (e.g. kept across a refresh) are served from the parent.  Workers
    return explanations only; afterwards the parent memoizes them, so its
    explanation memo ends exactly as a serial run would leave it —
    bit-identical results, keyed in the serial target order regardless of
    the worker count.  A target listed twice is explained, streamed and
    counted once.

    Every target not already memoized is validated before anything is
    explained or streamed, on every path.  ``on_chunk`` then streams ranked
    explanations back incrementally instead of one dict at the end: the
    serial path reports each target as it is explained, the parallel paths
    report the memoized targets first, as one chunk, then each worker's
    chunks as the worker completes.  On a worker failure the delivered
    chunks stand, the typed :class:`~repro.exceptions.FanOutWorkerError`
    still raises — with ``requested`` naming the whole batch, so a
    streaming consumer can mark exactly which targets were never delivered
    — and nothing is memoized.

    The returned :class:`~repro.engine._pool.FanOutResult` is a plain dict
    that additionally reports the transport and the requested vs.
    effective worker count that actually ran.
    """
    requested = 1 if workers is None else workers
    pending = [t for t in targets if t not in engine._explanations]
    concrete = resolve_transport(transport, workers, len(pending))
    staged = None if concrete == "serial" else stage(pending)
    for target in pending:
        engine._require_target(target)
    if staged is None:
        results = {}
        for target in targets:
            results[target] = engine.explain(target)
            if on_chunk is not None:
                on_chunk([target], {target: results[target]})
        return FanOutResult(results, "serial", requested, 1)

    served = [t for t in targets if t not in pending]
    if served:
        engine.memo_hits += len(served)
        if on_chunk is not None:
            on_chunk(served, {t: engine._explanations[t] for t in served})
    state, spec = staged
    try:
        result = fan_out(pending, state, spec, workers=workers,
                         transport=concrete, on_chunk=on_chunk,
                         chunking=chunking)
    except FanOutWorkerError as error:
        error.requested = tuple(targets)
        raise
    # Success: adopt the workers' results (a failed fan-out raises above
    # and adopts nothing).
    engine.memo_misses += len(pending)
    engine._explanations.update(result)
    return FanOutResult({t: engine._explanations[t] for t in targets},
                        result.transport, requested,
                        result.effective_workers, result.state_bytes)


def batch_explain(query: ConjunctiveQuery, database: Database,
                  method: str = "auto", workers: Optional[int] = None,
                  backend: str = "memory",
                  transport: str = "auto") -> Dict[Answer, Explanation]:
    """One-shot convenience: explanations for every answer of ``query``.

    Examples
    --------
    >>> from repro.relational import Database, parse_query
    >>> db = Database()
    >>> _ = db.add_fact("R", "a2", "a1")
    >>> _ = db.add_fact("S", "a1")
    >>> results = batch_explain(parse_query("q(x) :- R(x, y), S(y)"), db)
    >>> sorted(results)
    [('a2',)]
    """
    return BatchExplainer(query, database, method=method,
                          backend=backend).explain_all(workers=workers,
                                                       transport=transport)
