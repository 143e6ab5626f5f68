"""Evaluation of conjunctive queries over database instances.

The central notion is a *valuation* (Sect. 3 of the paper): a mapping
``θ : Var(q) → Adom(D)`` such that the instantiation of every atom is a tuple
of the database.  Valuations drive everything downstream — the lineage of the
query is the disjunction of one conjunct per valuation, and counterfactual
checks simply ask whether any valuation survives in a modified instance.

:class:`QueryEvaluator` plans each query and runs it on the one columnar
kernel of :mod:`repro.relational.columnar` — the full pass, bound queries,
delta residuals, ``holds`` and ``answers`` alike.  Planning is
statistics-free and never changes the valuation set:

* **semi-join pruning** — per-atom candidate sets (constants and repeated
  variables applied through per-position hash indexes) are reduced to a
  fixpoint: a tuple survives only if, for every variable it shares with
  another atom, some candidate of that atom agrees on the value; an empty
  candidate set ends evaluation early;
* **greedy join ordering** — seed with the fewest surviving candidates, then
  add the connected atom binding the most variables, tie-broken by
  candidate count.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple as TypingTuple,
)

from .columnar import (
    Answer,
    ColumnStore,
    PassStats,
    ValuationBlock,
    ValueDictionary,
    run_pass,
)
from .database import Database
from .query import Atom, ConjunctiveQuery, Constant, Variable
from .tuples import Tuple, value_sort_key


class Valuation:
    """A single valuation ``θ`` of a query: variable bindings + matched tuples.

    Attributes
    ----------
    assignment:
        Mapping from :class:`Variable` to the value assigned by ``θ``.
    atom_tuples:
        The tuple matched by each atom, in query-atom order.
    """

    __slots__ = ("assignment", "atom_tuples")

    def __init__(self, assignment: Mapping[Variable, Any],
                 atom_tuples: Sequence[Tuple]) -> None:
        self.assignment: Dict[Variable, Any] = dict(assignment)
        self.atom_tuples: TypingTuple[Tuple, ...] = tuple(atom_tuples)

    def tuples(self) -> FrozenSet[Tuple]:
        """The set of database tuples used by this valuation."""
        return frozenset(self.atom_tuples)

    def value_of(self, variable: Variable) -> Any:
        return self.assignment[variable]

    def __repr__(self) -> str:
        binding = ", ".join(f"{v}={val!r}" for v, val in sorted(
            self.assignment.items(), key=lambda item: item[0].name))
        return f"Valuation({binding})"


class _RelationIndex:
    """Hash indexes on every position of a relation, built lazily.

    The tuple set (and any position index already built) is mutable so a
    :class:`QueryEvaluator` kept alive across recorded deltas can patch
    membership per changed tuple (:meth:`update_membership`) instead of
    rebuilding — the residual queries of an incremental refresh then cost
    O(matching tuples), not O(relation).
    """

    __slots__ = ("tuples", "by_position", "_snapshot")

    def __init__(self, tuples: Iterable[Tuple]) -> None:
        self.tuples: Set[Tuple] = set(tuples)
        self.by_position: Dict[int, Dict[Any, Set[Tuple]]] = {}
        self._snapshot: Optional[FrozenSet[Tuple]] = None

    def snapshot(self) -> FrozenSet[Tuple]:
        """The full tuple set, frozen and shared until the next change.

        Plans never mutate their base set in place
        (:meth:`_AtomPlan.restrict` builds a fresh one on actual pruning).
        """
        if self._snapshot is None:
            self._snapshot = frozenset(self.tuples)
        return self._snapshot

    def update_membership(self, tup: Tuple, present: bool) -> None:
        """Add or remove one tuple, patching the built position indexes."""
        self._snapshot = None
        if present:
            if tup in self.tuples:
                return
            self.tuples.add(tup)
            for position, index in self.by_position.items():
                if position < len(tup.values):
                    index.setdefault(tup[position], set()).add(tup)
        else:
            if tup not in self.tuples:
                return
            self.tuples.discard(tup)
            for position, index in self.by_position.items():
                if position < len(tup.values):
                    bucket = index.get(tup[position])
                    if bucket is not None:
                        bucket.discard(tup)
                        if not bucket:
                            del index[tup[position]]

    def candidates(
            self, constraints: Sequence[TypingTuple[int, Any]],
    ) -> AbstractSet[Tuple]:
        """Tuples matching every ``(position, value)`` constraint.

        The result is read-only: unconstrained calls share the cached
        snapshot instead of copying the full tuple set.
        """
        if not constraints:
            return self.snapshot()
        best: Optional[Set[Tuple]] = None
        for position, value in constraints:
            index = self.by_position.get(position)
            if index is None:
                index = {}
                for tup in self.tuples:
                    index.setdefault(tup[position], set()).add(tup)
                self.by_position[position] = index
            matching = index.get(value, set())
            if best is None or len(matching) < len(best):
                best = matching
            if not best:
                return set()
        assert best is not None
        # Verify the remaining constraints tuple by tuple.
        return {
            tup for tup in best
            if all(tup[pos] == val for pos, val in constraints)
        }


class _AtomPlan:
    """Per-atom join state: candidate tuples plus term structure."""

    __slots__ = ("atom", "const_positions", "var_positions", "candidates")

    def __init__(self, atom: Atom, relation_index: _RelationIndex) -> None:
        self.atom = atom
        self.const_positions: List[TypingTuple[int, Any]] = []
        # variable -> first position it occupies (repeats checked at build time)
        self.var_positions: Dict[Variable, int] = {}
        repeats: List[TypingTuple[int, int]] = []
        for pos, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                self.const_positions.append((pos, term.value))
            else:
                assert isinstance(term, Variable)
                if term in self.var_positions:
                    repeats.append((self.var_positions[term], pos))
                else:
                    self.var_positions[term] = pos
        # Constants are resolved through the relation's position indexes, so
        # a heavily-bound atom (a bound query, a delta residual) costs
        # O(matching tuples); an unbound one shares the cached snapshot.
        base = relation_index.candidates(self.const_positions)
        if repeats:
            base = {tup for tup in base
                    if all(tup[a] == tup[b] for a, b in repeats)}
        self.candidates: AbstractSet[Tuple] = base

    def values_of(self, variable: Variable) -> Set[Any]:
        position = self.var_positions[variable]
        return {tup[position] for tup in self.candidates}

    def restrict(self, variable: Variable, allowed: Set[Any]) -> int:
        """Drop candidates whose value for ``variable`` is not allowed.

        Returns the number of candidates removed (0 when nothing changed —
        in that case the candidate set object is kept as-is, so a shared
        snapshot is never copied needlessly).
        """
        position = self.var_positions[variable]
        restricted = {t for t in self.candidates if t[position] in allowed}
        removed = len(self.candidates) - len(restricted)
        if removed:
            self.candidates = restricted
        return removed


class QueryEvaluator:
    """Evaluates conjunctive queries over a fixed database instance.

    The evaluator caches per-relation indexes, so reuse one instance when
    issuing many queries against the same database.

    Parameters
    ----------
    database:
        The instance to evaluate against.

    Atoms annotated ``Rⁿ`` only match endogenous tuples and atoms annotated
    ``Rˣ`` only match exogenous tuples — the semantics of the refined queries
    used in Sect. 3.  Unannotated atoms match every tuple of their relation.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._indexes: Dict[TypingTuple[str, Optional[bool]], _RelationIndex] = {}
        #: Per-phase counters of the valuation pass (cumulative, cheap).
        self.stats = PassStats()
        # Columnar state: one value dictionary per evaluator, one column
        # store per (relation, status) — patched by :meth:`apply_changes`.
        self._dictionary = ValueDictionary()
        self._stores: Dict[TypingTuple[str, Optional[bool]], ColumnStore] = {}

    # ------------------------------------------------------------------ #
    def _index_for(self, atom: Atom) -> _RelationIndex:
        status = atom.endogenous
        key = (atom.relation, status)
        index = self._indexes.get(key)
        if index is None:
            if status is True:
                tuples = self.database.endogenous_tuples(atom.relation)
            elif status is False:
                tuples = self.database.exogenous_tuples(atom.relation)
            else:
                tuples = self.database.tuples_of(atom.relation)
            index = _RelationIndex(tuples)
            self._indexes[key] = index
        return index

    def _store_for(self, atom: Atom) -> ColumnStore:
        """The dictionary-encoded column store backing ``atom``'s tuple set.

        Built lazily from the matching relation index (so both views share
        one membership source) and patched per tuple by
        :meth:`apply_changes` — the encodings survive recorded deltas.
        """
        key = (atom.relation, atom.endogenous)
        store = self._stores.get(key)
        if store is None:
            store = ColumnStore(self._dictionary, self._index_for(atom).tuples)
            self._stores[key] = store
        return store

    def apply_changes(self, changed: Iterable[Tuple]) -> None:
        """Patch the cached relation indexes after an in-place database change.

        ``changed`` is the invalidation set of a recorded delta (tuples whose
        presence or partition changed); membership in every already-built
        ``(relation, status)`` index is recomputed from the mutated database,
        per tuple.  Keeping the evaluator (and its lazily built position
        indexes) alive across deltas is what makes incremental refresh cost
        proportional to the delta, not to the instance.
        """
        for tup in changed:
            present = self.database.contains(tup)
            endogenous = present and self.database.is_endogenous(tup)
            for status in (None, True, False):
                if status is None:
                    belongs = present
                elif status:
                    belongs = endogenous
                else:
                    belongs = present and not endogenous
                key = (tup.relation, status)
                index = self._indexes.get(key)
                if index is not None:
                    index.update_membership(tup, belongs)
                store = self._stores.get(key)
                if store is not None:
                    store.update_membership(tup, belongs)

    def _build_plans(self, query: ConjunctiveQuery
                     ) -> Optional[List[_AtomPlan]]:
        """Per-atom candidate sets, reduced to a semi-join fixpoint.

        Returns ``None`` as soon as some atom has no candidates — the query
        then has no valuations (early termination).
        """
        plans = [_AtomPlan(atom, self._index_for(atom))
                 for atom in query.atoms]
        self.stats.plans_built += len(plans)
        if any(not plan.candidates for plan in plans):
            return None
        # variable -> the plans whose atom mentions it
        occurrences: Dict[Variable, List[_AtomPlan]] = {}
        for plan in plans:
            for variable in plan.var_positions:
                occurrences.setdefault(variable, []).append(plan)
        shared = [(v, ps) for v, ps in occurrences.items() if len(ps) > 1]
        changed = True
        while changed:
            changed = False
            self.stats.semijoin_rounds += 1
            for variable, sharing in shared:
                allowed = set.intersection(*(p.values_of(variable) for p in sharing))
                for plan in sharing:
                    removed = plan.restrict(variable, allowed)
                    if removed:
                        self.stats.rows_pruned += removed
                        changed = True
                    if not plan.candidates:
                        return None
        return plans

    @staticmethod
    def _atom_order(plans: Sequence[_AtomPlan]) -> List[int]:
        """Greedy selectivity order over the pruned candidate sets.

        Seed with the smallest candidate set (most constants as tie-break),
        then repeatedly pick a connected atom, preferring the one binding the
        most already-placed variables and, among those, the fewest candidates.
        """
        remaining = set(range(len(plans)))
        placed_vars: Set[Variable] = set()
        order: List[int] = []
        while remaining:
            if not order:
                best = min(remaining, key=lambda i: (
                    len(plans[i].candidates),
                    -len(plans[i].const_positions),
                    i,
                ))
            else:
                best = min(remaining, key=lambda i: (
                    -len(plans[i].var_positions.keys() & placed_vars),
                    len(plans[i].candidates),
                    i,
                ))
            order.append(best)
            placed_vars |= set(plans[best].var_positions)
            remaining.discard(best)
        return order

    # ------------------------------------------------------------------ #
    def _blocks(self, query: ConjunctiveQuery) -> Dict[Answer, ValuationBlock]:
        """Plan ``query`` and run the columnar kernel: one block per answer.

        Block keys are the head tuples, constants included, and ``()`` for
        a Boolean query.  Counters accumulate into :attr:`stats`.
        """
        plans = self._build_plans(query)
        if plans is None:
            return {}
        order = self._atom_order(plans)
        stores = [self._store_for(plan.atom) for plan in plans]
        return run_pass(query, plans, order, stores, self.stats)

    def _materialise(self, query: ConjunctiveQuery,
                     block: ValuationBlock) -> List[Valuation]:
        """One block's valuations as tuple-at-a-time :class:`Valuation`s."""
        valuations: List[Valuation] = []
        for atom_tuples in block.atom_tuples():
            assignment: Dict[Variable, Any] = {}
            for atom, tup in zip(query.atoms, atom_tuples):
                for position, term in enumerate(atom.terms):
                    if isinstance(term, Variable):
                        assignment[term] = tup.values[position]
            valuations.append(Valuation(assignment, atom_tuples))
        self.stats.adapter_valuations += len(valuations)
        return valuations

    def valuations(self, query: ConjunctiveQuery) -> Iterator[Valuation]:
        """Yield every valuation of ``query``, block by block off the kernel."""
        for block in self._blocks(query).values():
            yield from self._materialise(query, block)

    def valuations_blocks(
            self, query: ConjunctiveQuery) -> Dict[Answer, ValuationBlock]:
        """The full pass: one lazy :class:`ValuationBlock` per answer.

        :attr:`stats` is reset first, so the counters describe the most
        recent full pass plus the residual kernel runs since (delta
        semi-joins, lazy bound queries) — what ``engine_stats()`` reports.
        """
        self.stats.reset()
        self.stats.columnar_passes += 1
        return self._blocks(query)

    def grouped_valuations(
            self, query: ConjunctiveQuery,
    ) -> Iterator[TypingTuple[Answer, List[Valuation]]]:
        """Yield ``(answer, [valuations])`` off the full pass, heads sorted —
        the API and ordering of the SQLite backend's ``grouped_valuations``.
        """
        blocks = self.valuations_blocks(query)
        for head in sorted(blocks, key=value_sort_key):
            yield head, self._materialise(query, blocks[head])

    def holds(self, query: ConjunctiveQuery) -> bool:
        """``D ⊨ q`` for a Boolean query: does at least one valuation exist?"""
        return bool(self._blocks(query))

    def answers(self, query: ConjunctiveQuery) -> FrozenSet[TypingTuple[Any, ...]]:
        """The answer relation of ``query`` (set of head tuples).

        A Boolean query answers ``{()}`` when it holds and ``∅`` otherwise.
        """
        return frozenset(self._blocks(query))


# --------------------------------------------------------------------------- #
# module-level convenience wrappers
# --------------------------------------------------------------------------- #
def greedy_atom_order(query: ConjunctiveQuery, database: Database) -> List[int]:
    """The greedy join order the evaluator would use, as query-atom indices.

    Exposed for inspection and testing: the order starts at the atom with the
    fewest candidate tuples and grows along shared variables, so on selective
    patterns it mirrors the "most bound / smallest relation first" heuristic.
    Returns the identity order when some atom has no candidates at all (the
    query is unsatisfiable and enumeration terminates before joining).
    """
    evaluator = QueryEvaluator(database)
    plans = evaluator._build_plans(query)
    if plans is None:
        return list(range(len(query.atoms)))
    return evaluator._atom_order(plans)


def find_valuations(query: ConjunctiveQuery,
                    database: Database) -> List[Valuation]:
    """All valuations of ``query`` over ``database`` as a list."""
    evaluator = QueryEvaluator(database)
    return list(evaluator.valuations(query))


def evaluate_boolean(query: ConjunctiveQuery, database: Database) -> bool:
    """``D ⊨ q`` for a Boolean query."""
    evaluator = QueryEvaluator(database)
    return evaluator.holds(query)


def evaluate(query: ConjunctiveQuery, database: Database
             ) -> FrozenSet[TypingTuple[Any, ...]]:
    """Answer set of a (possibly non-Boolean) query."""
    return QueryEvaluator(database).answers(query)


def is_answer(query: ConjunctiveQuery, database: Database,
              answer: Sequence[Any]) -> bool:
    """``D ⊨ q(ā)``: is ``answer`` returned by ``query`` on ``database``?"""
    return evaluate_boolean(query.bind(answer), database)
