"""Evaluation of conjunctive queries over database instances.

The central notion is a *valuation* (Sect. 3 of the paper): a mapping
``θ : Var(q) → Adom(D)`` such that the instantiation of every atom is a tuple
of the database.  Valuations drive everything downstream — the lineage of the
query is the disjunction of one conjunct per valuation, and counterfactual
checks simply ask whether any valuation survives in a modified instance.

The evaluator is a backtracking join with per-relation hash indexes on
individual positions.  Two statistics-free optimisations keep it fast on the
batch-explanation workloads without changing the set of valuations produced:

* **greedy join ordering** — atoms are joined most-bound / smallest-candidate
  first: the seed atom is the one with the fewest matching tuples (constants
  already applied), and each subsequent atom is the connected one binding the
  most variables, tie-broken by candidate count.  Selectivity is read off the
  pattern and the actual candidate sets, never off collected statistics.
* **semi-join pruning** — before enumeration, per-atom candidate sets are
  reduced to a fixpoint: a tuple survives only if, for every variable it
  shares with another atom, some candidate of that atom agrees on the value.
  Pruning only discards tuples that cannot participate in any valuation, and
  an empty candidate set terminates evaluation early.

Complexity stays polynomial in the size of the database for a fixed query
(all the data-complexity statements of the paper require exactly that) and
the enumeration remains easy to audit — an important property for a
reference implementation used as ground truth in tests.
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
        """A read-only view of the full tuple set, cached until a change.

        Unconstrained candidate requests used to copy the whole set per
        call; the frozen snapshot is shared by every caller (plans never
        mutate their base set in place — :meth:`_AtomPlan.restrict` builds
        a fresh set, i.e. copies lazily only on actual pruning) and is
        invalidated by :meth:`update_membership`.
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

    __slots__ = ("atom", "const_positions", "var_positions", "candidates", "index")

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
        # a heavily-bound atom (e.g. the residual query of an incremental
        # refresh, where delta values appear as constants) costs O(matching
        # tuples) instead of a scan over the whole relation.
        base: AbstractSet[Tuple]
        if self.const_positions:
            base = relation_index.candidates(self.const_positions)
        else:
            # Unconstrained base: share the relation's cached snapshot —
            # restriction below copies lazily, only when it actually prunes.
            base = relation_index.snapshot()
        if repeats:
            base = {tup for tup in base
                    if all(tup[a] == tup[b] for a, b in repeats)}
        self.candidates: AbstractSet[Tuple] = base
        self.index: Optional[_RelationIndex] = None

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

    def build_index(self) -> _RelationIndex:
        if self.index is None:
            self.index = _RelationIndex(frozenset(self.candidates))
        return self.index


class QueryEvaluator:
    """Evaluates conjunctive queries over a fixed database instance.

    The evaluator caches per-relation indexes, so reuse one instance when
    issuing many queries against the same database.

    Parameters
    ----------
    database:
        The instance to evaluate against.
    respect_annotations:
        When ``True`` (default), atoms annotated ``Rⁿ`` only match endogenous
        tuples and atoms annotated ``Rˣ`` only match exogenous tuples — the
        semantics of the refined queries used in Sect. 3.  Unannotated atoms
        always match every tuple of their relation.
    semijoin:
        When ``True`` (default), per-atom candidate sets are reduced to a
        semi-join fixpoint before enumeration.  Disable to get the plain
        backtracking join (useful as a differential-testing baseline).
    """

    def __init__(self, database: Database, respect_annotations: bool = True,
                 semijoin: bool = True) -> None:
        self.database = database
        self.respect_annotations = respect_annotations
        self.semijoin = semijoin
        self._indexes: Dict[TypingTuple[str, Optional[bool]], _RelationIndex] = {}
        #: Per-phase counters of the valuation pass (cumulative, cheap).
        self.stats = PassStats()
        # Columnar state: one value dictionary per evaluator, one column
        # store per (relation, status) — patched by :meth:`apply_changes`.
        self._dictionary = ValueDictionary()
        self._stores: Dict[TypingTuple[str, Optional[bool]], ColumnStore] = {}

    # ------------------------------------------------------------------ #
    def _index_for(self, atom: Atom) -> _RelationIndex:
        status = atom.endogenous if self.respect_annotations else None
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
        status = atom.endogenous if self.respect_annotations else None
        key = (atom.relation, status)
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
        if not self.semijoin:
            return plans
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
                        plan.index = None
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
    def valuations(self, query: ConjunctiveQuery) -> Iterator[Valuation]:
        """Yield every valuation of ``query`` over the database."""
        plans = self._build_plans(query)
        if plans is None:
            return
        order = self._atom_order(plans)
        atoms = query.atoms
        assignment: Dict[Variable, Any] = {}
        matched: Dict[int, Tuple] = {}

        def backtrack(depth: int) -> Iterator[Valuation]:
            if depth == len(order):
                yield Valuation(assignment, [matched[i] for i in range(len(atoms))])
                return
            atom_index = order[depth]
            plan = plans[atom_index]
            atom = plan.atom
            constraints: List[TypingTuple[int, Any]] = []
            unbound: List[TypingTuple[int, Variable]] = []
            for variable, pos in plan.var_positions.items():
                if variable in assignment:
                    constraints.append((pos, assignment[variable]))
                else:
                    unbound.append((pos, variable))
            for candidate in plan.build_index().candidates(constraints):
                # Bind the unbound variables; positions sharing a variable
                # must agree on the value.
                local: Dict[Variable, Any] = {}
                consistent = True
                for pos, var in unbound:
                    value = candidate[pos]
                    if var in local and local[var] != value:
                        consistent = False
                        break
                    local[var] = value
                if not consistent:
                    continue
                assignment.update(local)
                matched[atom_index] = candidate
                yield from backtrack(depth + 1)
                del matched[atom_index]
                for var in local:
                    assignment.pop(var, None)

        yield from backtrack(0)

    def valuations_blocks(
            self, query: ConjunctiveQuery,
            use_numpy: Optional[bool] = None,
    ) -> Dict[Answer, ValuationBlock]:
        """The columnar valuation pass: one :class:`ValuationBlock` per answer.

        Same planner as :meth:`valuations` (``_build_plans`` applies
        constants, repeats and the semi-join fixpoint; ``_atom_order`` picks
        the greedy join order), but execution is block-at-a-time — hash
        joins over dictionary-encoded columns, head grouping on codes.  The
        valuation *set* is identical to the backtracking enumeration; only
        the representation differs, and blocks materialise tuple-level
        structures lazily (:meth:`ValuationBlock.conjuncts`).

        ``use_numpy`` forces the probe path: ``None`` (default) uses the
        vectorised probe when NumPy is importable, ``False`` pins the pure
        path (differential-testing baseline), ``True`` requires NumPy.

        :attr:`stats` is reset at the start of every call, so the counters
        always describe the most recent pass (plus any incremental residual
        work done since) — what a resident session's ``engine_stats()``
        should report.
        """
        self.stats.reset()
        plans = self._build_plans(query)
        if plans is None:
            return {}
        order = self._atom_order(plans)
        stores = [self._store_for(plan.atom) for plan in plans]
        return run_pass(query, plans, order, stores, self.stats,
                        use_numpy=use_numpy)

    def grouped_valuations(
            self, query: ConjunctiveQuery,
    ) -> Iterator[TypingTuple[Answer, List[Valuation]]]:
        """Yield ``(answer, [valuations])`` off the columnar pass.

        The thin block→:class:`Valuation` adapter: answers stream in
        deterministic (sorted) order and each block is materialised into
        tuple-at-a-time :class:`Valuation` objects, so callers keep the
        exact API (and ordering guarantees) of the SQLite backend's
        ``grouped_valuations`` while the pass itself runs columnar.
        """
        blocks = self.valuations_blocks(query)
        for head in sorted(blocks, key=value_sort_key):
            block = blocks[head]
            valuations: List[Valuation] = []
            for atom_tuples in block.atom_tuples():
                assignment: Dict[Variable, Any] = {}
                for atom, tup in zip(query.atoms, atom_tuples):
                    for position, term in enumerate(atom.terms):
                        if isinstance(term, Variable):
                            assignment[term] = tup.values[position]
                valuations.append(Valuation(assignment, atom_tuples))
            self.stats.adapter_valuations += len(valuations)
            yield head, valuations

    def holds(self, query: ConjunctiveQuery) -> bool:
        """``D ⊨ q`` for a Boolean query: does at least one valuation exist?"""
        for _ in self.valuations(query):
            return True
        return False

    def answers(self, query: ConjunctiveQuery) -> FrozenSet[TypingTuple[Any, ...]]:
        """The answer relation of a non-Boolean query (set of head tuples)."""
        results: Set[TypingTuple[Any, ...]] = set()
        for valuation in self.valuations(query):
            row = []
            for term in query.head:
                if isinstance(term, Variable):
                    row.append(valuation.assignment[term])
                else:
                    assert isinstance(term, Constant)
                    row.append(term.value)
            results.add(tuple(row))
        return frozenset(results)


# --------------------------------------------------------------------------- #
# module-level convenience wrappers
# --------------------------------------------------------------------------- #
def greedy_atom_order(query: ConjunctiveQuery, database: Database,
                      respect_annotations: bool = True,
                      semijoin: bool = True) -> List[int]:
    """The greedy join order the evaluator would use, as query-atom indices.

    Exposed for inspection and testing: the order starts at the atom with the
    fewest candidate tuples and grows along shared variables, so on selective
    patterns it mirrors the "most bound / smallest relation first" heuristic.
    Returns the identity order when some atom has no candidates at all (the
    query is unsatisfiable and enumeration terminates before joining).
    """
    evaluator = QueryEvaluator(database, respect_annotations=respect_annotations,
                               semijoin=semijoin)
    plans = evaluator._build_plans(query)
    if plans is None:
        return list(range(len(query.atoms)))
    return evaluator._atom_order(plans)


def find_valuations(query: ConjunctiveQuery, database: Database,
                    respect_annotations: bool = True,
                    semijoin: bool = True) -> List[Valuation]:
    """All valuations of ``query`` over ``database`` as a list."""
    evaluator = QueryEvaluator(database, respect_annotations=respect_annotations,
                               semijoin=semijoin)
    return list(evaluator.valuations(query))


def evaluate_boolean(query: ConjunctiveQuery, database: Database,
                     respect_annotations: bool = True) -> bool:
    """``D ⊨ q`` for a Boolean query."""
    evaluator = QueryEvaluator(database, respect_annotations=respect_annotations)
    return evaluator.holds(query)


def evaluate(query: ConjunctiveQuery, database: Database,
             respect_annotations: bool = True) -> FrozenSet[TypingTuple[Any, ...]]:
    """Answer set of a (possibly non-Boolean) query."""
    evaluator = QueryEvaluator(database, respect_annotations=respect_annotations)
    if query.is_boolean:
        return frozenset({()} if evaluator.holds(query) else set())
    return evaluator.answers(query)


def is_answer(query: ConjunctiveQuery, database: Database,
              answer: Sequence[Any]) -> bool:
    """``D ⊨ q(ā)``: is ``answer`` returned by ``query`` on ``database``?"""
    return evaluate_boolean(query.bind(answer), database)
