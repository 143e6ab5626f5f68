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
* the relation indexes of the shared :class:`QueryEvaluator` are built once;
* answers whose simplified n-lineages coincide pose identical
  minimum-contingency instances, solved once through the shared
  :class:`~repro.engine.cache.LineageCache`.

Independent answers can optionally be fanned out over worker processes
(``workers=N``) through the :mod:`repro.engine._pool` seam: the parent
finishes the open-query pass first and the workers *inherit* it — the
pre-grouped per-answer valuations, the exogenous set and a read-only
:meth:`~repro.relational.session.BackendSession.fanout_snapshot` of the
database travel by fork inheritance or one pickled shared-memory segment,
never per chunk — so no worker re-runs any valuation pass.  Workers send
back ranked :class:`Explanation`\\ s plus their
:class:`~repro.engine.cache.LineageCache` entries, which merge into the
parent's cache (the keys are database-independent, so the merge is sound);
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
from ..core.flow_responsibility import FlowEngine
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
from .cache import CacheShard, LineageCache

Answer = TypingTuple[Any, ...]

def _answer_order_key(answer: Answer) -> TypingTuple[Any, ...]:
    """Deterministic ordering for answer tuples with mixed value types."""
    return value_sort_key(answer)


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
    cache:
        A :class:`LineageCache` to share across explainers; a private one is
        created when omitted.
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
                 method: str = "auto", cache: Optional[LineageCache] = None,
                 backend: str = "memory",
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
        self.cache = cache if cache is not None else LineageCache()
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
        # (through the session, so it lives where the backend's data lives)
        # and kept in lockstep with ``_conjuncts`` by the delta path.
        self._index: Optional[Any] = None
        self._full_pass_done = False
        # bound query -> FlowEngine (or NotLinearError for self-joins),
        # sharing valuations and layers across that answer's tuples.
        self._flow_engines: Dict[ConjunctiveQuery, Any] = {}
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

        The memory evaluator runs the columnar valuation pass
        (``valuations_blocks``): groups stay in block form and lineage
        conjuncts materialise lazily, per answer, when an explanation or a
        refresh first touches that answer (:meth:`_conjuncts_for`).  The
        SQLite evaluator instead groups in the backend (it sorts by head
        columns so each answer's rows arrive contiguously), and the groups
        are consumed run by run off the streamed cursor.  Either way the
        per-answer conjunct sets are identical
        (:class:`~repro.lineage.boolean_expr.PositiveDNF` canonicalises
        conjunct order).
        """
        if self._full_pass_done:
            return
        grouped: Dict[Answer, ConjunctGroup] = {}
        blocks_pass = getattr(self._evaluator, "valuations_blocks", None)
        if blocks_pass is not None:
            grouped = blocks_pass(self.query)
        else:
            for head, valuations in self._evaluator.grouped_valuations(
                    self.query):
                grouped.setdefault(head, []).extend(
                    v.tuples() for v in valuations)
        self._conjuncts = grouped
        self._full_pass_done = True
        index = self.session.create_lineage_index()
        index.rebuild(grouped)
        self._index = index

    @property
    def lineage_index(self) -> Optional[Any]:
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
        return sorted(self._conjuncts, key=_answer_order_key)

    # ------------------------------------------------------------------ #
    # per-answer explanation over the shared state
    # ------------------------------------------------------------------ #
    def _flow_engine(self, bound: ConjunctiveQuery) -> FlowEngine:
        engine = self._flow_engines.get(bound)
        if engine is None:
            try:
                engine = FlowEngine(bound, self.database)
            except NotLinearError as error:
                engine = error
            self._flow_engines[bound] = engine
        if isinstance(engine, NotLinearError):
            raise engine
        return engine

    def _responsibility(
            self, bound: ConjunctiveQuery,
            get_phi_n: Callable[[], PositiveDNF], tuple_: Tuple,
    ) -> TypingTuple[Any, Optional[FrozenSet[Tuple]]]:
        if self.method in ("auto", "flow"):
            try:
                result = self._flow_engine(bound).responsibility(tuple_)
                return result.responsibility, result.min_contingency
            except NotLinearError:
                if self.method == "flow":
                    raise
                # auto: fall back to the exact engine, like the dispatcher.
        gamma = self.cache.minimum_contingency(get_phi_n(), tuple_)
        rho = responsibility_value(None if gamma is None else len(gamma))
        return rho, gamma

    def explain(self, answer: Optional[Sequence[Any]] = None) -> Explanation:
        """The Why-So :class:`Explanation` of one answer.

        Raises :class:`~repro.exceptions.CausalityError` when ``answer`` is
        not actually returned by the query on this database.  Results are
        memoized per answer; :meth:`refresh` drops exactly the memos a
        recorded change invalidates.
        """
        if self.query.is_boolean:
            if answer not in (None, (), []):
                raise CausalityError("a Boolean query takes no answer tuple")
            key: Answer = ()
        else:
            if answer is None:
                raise CausalityError(
                    "a non-Boolean query needs the answer tuple to explain"
                )
            key = tuple(answer)
        memo = self._explanations.get(key)
        if memo is not None:
            self.memo_hits += 1
            return memo
        self.memo_misses += 1
        explanation = self._explain_uncached(key, answer)
        self._explanations[key] = explanation
        return explanation

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

        # The simplified lineage is only needed by the exact engine; when the
        # flow engine serves every tuple, skip the quadratic simplification.
        simplified: List[PositiveDNF] = []

        def get_phi_n() -> PositiveDNF:
            if not simplified:
                simplified.append(phi_n_raw.remove_redundant())
            return simplified[0]

        bound = self.query if self.query.is_boolean else self.query.bind(key)
        scored = []
        for tuple_ in candidates:
            rho, gamma = self._responsibility(bound, get_phi_n, tuple_)
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

        ``workers`` > 1 fans the answers out over worker processes in
        chunks.  The parent completes the open-query valuation
        pass first; every worker *inherits* the resulting per-answer groups,
        the exogenous set and a read-only snapshot of the database through
        the chosen ``transport`` (see :mod:`repro.engine._pool`: ``"auto"``,
        ``"serial"``, ``"fork"``, ``"shared-memory"``), so no worker re-runs
        a valuation pass.  Afterwards the workers' explanations are memoized
        and their :class:`~repro.engine.cache.LineageCache` entries merged
        into this explainer, leaving its state exactly as a serial run would
        — bit-identical results, keyed in the serial answer order regardless
        of the worker count.

        ``chunking`` picks the pool discipline (``"contiguous"``, the
        default, or ``"stealing"``; see :mod:`repro.engine._pool`).  Workers
        start from a **pre-seed** of this explainer's
        :class:`~repro.engine.cache.LineageCache` entries and return
        mergeable :class:`~repro.engine.cache.CacheShard`\\ s, keeping
        refresh-then-parallel incremental with commutative, lock-free
        merges.  A target listed twice is explained, streamed and counted
        once, on every path.

        ``on_chunk`` streams ranked explanations back incrementally instead
        of one dict at the end: the serial path reports each answer as it is
        explained, the parallel paths report each worker chunk as it
        completes (already-memoized answers are streamed first, as one
        chunk, without touching a worker).  On a worker failure the
        delivered chunks stand, the typed
        :class:`~repro.exceptions.FanOutWorkerError` still raises and
        nothing merges — a streaming consumer marks the result partial from
        the error, never silently serves the shorter ranking.

        The returned :class:`~repro.engine._pool.FanOutResult` is a plain
        dict that additionally reports the transport and the requested vs.
        effective worker count that actually ran.

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
        if answers is None:
            targets = self.answers()
        else:
            targets = list(dict.fromkeys(tuple(a) for a in answers))
        requested = 1 if workers is None else workers
        concrete = resolve_transport(transport, workers, len(targets))
        pending = targets
        if concrete != "serial":
            # Finish the shared pass here, so the workers inherit it.
            self._run_full_pass()
            for target in targets:
                # Validate in the parent — same error, same place, as serial.
                if target not in self._conjuncts:
                    raise CausalityError(
                        f"{target!r} is not an answer on this database; "
                        "use mode='why-no'"
                    )
            # Memoized answers (e.g. kept across a refresh) are served from
            # the parent; only the rest is worth shipping to workers.
            pending = [t for t in targets if t not in self._explanations]
            concrete = resolve_transport(transport, workers, len(pending))
        if concrete == "serial":
            results = {}
            for answer in targets:
                results[answer] = self.explain(answer)
                if on_chunk is not None:
                    on_chunk([answer], {answer: results[answer]})
            return FanOutResult(results, "serial", requested, 1)

        served = [t for t in targets if t not in pending]
        if served:
            self.memo_hits += len(served)
            if on_chunk is not None:
                # Stream the parent-served memos first, as one chunk, so
                # the consumer sees every requested target exactly once.
                on_chunk(served, {t: self._explanations[t] for t in served})
        state = _WhySoFanOutState(self.query, self.session.fanout_snapshot(),
                                  self.method, self._conjuncts,
                                  self._exogenous,
                                  self.cache.export_entries())
        try:
            result = fan_out(pending, state, _WHYSO_SPEC, workers=workers,
                             transport=concrete, on_chunk=on_chunk,
                             chunking=chunking)
        except FanOutWorkerError as error:
            # Name the whole batch on the error, so a streaming consumer can
            # mark exactly which targets were requested but never delivered.
            error.requested = tuple(targets)
            raise
        # Success: adopt the workers' results so this explainer ends up in
        # the same state as after a serial run (a failed fan-out raises
        # above and merges nothing).
        self.memo_misses += len(pending)
        self._explanations.update(result)
        for shard in result.extras:
            self.cache.merge_shard(shard)
        return FanOutResult({t: self._explanations[t] for t in targets},
                            result.transport, requested,
                            result.effective_workers, result.extras,
                            result.state_bytes)

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
           only the stale answers.

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
        # The flow engine enumerates valuations annotation-*blind* (its
        # layers handle the partition themselves), so for a query with
        # ``^n``/``^x`` atoms its lineage is broader than the
        # annotation-respecting groups diffed above — a change can touch a
        # flow-relevant valuation without touching any group.
        annotation_blind_flow = self.method in ("auto", "flow") and any(
            atom.endogenous is not None for atom in self.query.atoms)
        if partition_shift or annotation_blind_flow:
            # Either the relation-level endogenous classification feeding
            # abstract_query/FlowEngine changed, or group-based dirtiness
            # cannot see everything the flow engine reads: drop every
            # memoized explanation (the groups stay incrementally exact).
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
        """The (shared) n-lineage of one answer, as the engine sees it."""
        key = () if self.query.is_boolean else tuple(answer or ())
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

    __slots__ = ("query", "database", "method", "conjuncts", "exogenous",
                 "cache_seed")

    def __init__(self, query: ConjunctiveQuery, database: Database,
                 method: str, conjuncts: Dict[Answer, ConjunctGroup],
                 exogenous: FrozenSet[Tuple],
                 cache_seed: Optional[Dict[Any, Any]] = None) -> None:
        self.query = query
        self.database = database
        self.method = method
        self.conjuncts = conjuncts
        self.exogenous = exogenous
        # The parent's LineageCache entries, shipped so workers start warm
        # (refresh-then-parallel stays incremental) and export only what
        # they add beyond the seed.
        self.cache_seed = cache_seed


def _whyso_worker_setup(state: _WhySoFanOutState) -> BatchExplainer:
    """Build the worker-side explainer *around* the inherited pass.

    The explainer is constructed on the memory backend (workers never touch
    an execution backend) and then handed the parent's grouped valuations,
    so its ``explain`` runs exactly the serial per-answer step — lineage to
    n-lineage to ranked causes — without any evaluation.  The parent's
    cache entries pre-seed the worker cache.
    """
    explainer = BatchExplainer(state.query, state.database,
                               method=state.method)
    explainer._conjuncts = state.conjuncts
    explainer._full_pass_done = True
    explainer._exogenous = state.exogenous
    if state.cache_seed:
        explainer.cache.merge_entries(state.cache_seed)
    explainer._cache_seed = state.cache_seed
    return explainer


def _whyso_worker_explain(explainer: BatchExplainer,
                          answer: Answer) -> Explanation:
    return explainer.explain(answer)


def _whyso_worker_export_cache(explainer: BatchExplainer) -> CacheShard:
    """Ship the worker's cache contribution back for the commutative merge.

    Only entries beyond the pre-seed travel; counters are the worker's own
    (see :meth:`~repro.engine.cache.LineageCache.export_shard`).
    """
    return explainer.cache.export_shard(
        baseline=getattr(explainer, "_cache_seed", None))


_WHYSO_SPEC = FanOutSpec(compute=_whyso_worker_explain,
                         setup=_whyso_worker_setup,
                         finalize=_whyso_worker_export_cache)


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
