"""Evaluation of conjunctive queries over database instances.

The central notion is a *valuation* (Sect. 3 of the paper): a mapping
``θ : Var(q) → Adom(D)`` such that the instantiation of every atom is a tuple
of the database.  Valuations drive everything downstream — the lineage of the
query is the disjunction of one conjunct per valuation, and counterfactual
checks simply ask whether any valuation survives in a modified instance.

:class:`QueryEvaluator` plans each query and runs it on the one columnar
kernel of :mod:`repro.relational.columnar` — the full pass, bound queries,
delta residuals, ``holds`` and ``answers`` alike.  Its one stored form of
each ``(relation, status)`` tuple set is a dictionary-encoded
:class:`~repro.relational.columnar.ColumnStore`, and planning works on row
ids into it and on value *codes*, never on tuples.  Planning is
statistics-free and never changes the valuation set:

* **semi-join pruning** — per-atom candidate row ids (constants resolved
  through the store's per-position postings, repeated variables compared
  on code columns; an atom whose arity differs from its relation's has
  none) are reduced to a fixpoint: a row survives only if, for every
  variable it shares with another atom, some candidate of that atom has the
  same code there; an empty candidate set ends evaluation early;
* **greedy join ordering** — seed with the fewest surviving candidates, then
  add the connected atom binding the most variables, tie-broken by
  candidate count.
"""

from __future__ import annotations

from typing import (
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
    CodeColumn,
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


class _AtomPlan:
    """Per-atom join state: surviving row ids of the atom's column store.

    ``rowids`` of ``None`` means every row of the store (shared, never
    copied); pruning replaces it with a fresh ascending list.
    """

    __slots__ = ("store", "const_positions", "var_positions", "rowids")

    def __init__(self, atom: Atom, store: ColumnStore) -> None:
        self.store = store
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
        self.rowids: Optional[List[int]] = None
        if store.arity != atom.arity:
            self.rowids = []
        elif self.const_positions:
            # Constants resolve through the store's postings, so a heavily
            # bound atom (a bound query, a delta residual) costs
            # O(matching rows), not O(relation).
            self.rowids = self._constant_rows()
        if repeats and self.count:
            pairs = [(store.column(a), store.column(b)) for a, b in repeats]
            self.rowids = [index for index in self._selected()
                           if all(left[index] == right[index]
                                  for left, right in pairs)]

    def _constant_rows(self) -> List[int]:
        """Row ids matching every constant, through the smallest posting."""
        store = self.store
        checks: List[TypingTuple[CodeColumn, int]] = []
        matching: List[List[int]] = []
        for position, value in self.const_positions:
            # Postings first: they encode the position's column, so a value
            # without a code afterwards occurs in no row there.
            postings = store.postings(position)
            code = store.dictionary.lookup(value)
            if code is None:
                return []
            checks.append((store.column(position), code))
            matching.append(postings.get(code, []))
        return [index for index in min(matching, key=len)
                if all(column[index] == code for column, code in checks)]

    def _selected(self) -> Sequence[int]:
        return range(len(self.store)) if self.rowids is None else self.rowids

    @property
    def count(self) -> int:
        """The number of surviving candidate rows."""
        return len(self.store) if self.rowids is None else len(self.rowids)

    def codes_of(self, variable: Variable) -> Set[int]:
        """The codes ``variable`` takes over the surviving rows."""
        column = self.store.column(self.var_positions[variable])
        if self.rowids is None:
            return set(column)
        return {column[index] for index in self.rowids}

    def restrict(self, variable: Variable, allowed: Set[int]) -> int:
        """Drop rows whose code for ``variable`` is not allowed.

        Returns the number of rows removed (0 when nothing changed — the
        selection is then kept as-is, so an unpruned atom stays ``None``).
        """
        column = self.store.column(self.var_positions[variable])
        kept = [index for index in self._selected()
                if column[index] in allowed]
        removed = self.count - len(kept)
        if removed:
            self.rowids = kept
        return removed


class QueryEvaluator:
    """Evaluates conjunctive queries over a fixed database instance.

    The evaluator caches one column store per ``(relation, status)``, so
    reuse one instance when issuing many queries against the same database.

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
        #: Per-phase counters of the valuation pass (cumulative, cheap).
        self.stats = PassStats()
        # Columnar state: one value dictionary per evaluator, one column
        # store per (relation, status) — patched by :meth:`apply_changes`.
        self._dictionary = ValueDictionary()
        self._stores: Dict[TypingTuple[str, Optional[bool]], ColumnStore] = {}

    # ------------------------------------------------------------------ #
    def _store_for(self, atom: Atom) -> ColumnStore:
        """The column store of ``atom``'s ``(relation, status)`` tuple set.

        Built lazily from the database and patched per tuple by
        :meth:`apply_changes`, so the encodings survive recorded deltas.
        """
        status = atom.endogenous
        key = (atom.relation, status)
        store = self._stores.get(key)
        if store is None:
            if status is True:
                tuples = self.database.endogenous_tuples(atom.relation)
            elif status is False:
                tuples = self.database.exogenous_tuples(atom.relation)
            else:
                tuples = self.database.tuples_of(atom.relation)
            store = self._stores[key] = ColumnStore(self._dictionary, tuples)
        return store

    def apply_changes(self, changed: Iterable[Tuple]) -> None:
        """Patch the cached column stores after an in-place database change.

        ``changed`` is the invalidation set of a recorded delta (tuples whose
        presence or partition changed); membership in every already-built
        ``(relation, status)`` store is recomputed from the mutated database,
        per tuple.  Keeping the evaluator (and its lazily built columns and
        postings) alive across deltas is what makes incremental refresh cost
        proportional to the delta, not to the instance.
        """
        for tup in changed:
            present = self.database.contains(tup)
            endogenous = present and self.database.is_endogenous(tup)
            for status, belongs in ((None, present), (True, endogenous),
                                    (False, present and not endogenous)):
                store = self._stores.get((tup.relation, status))
                if store is not None:
                    store.update_membership(tup, belongs)

    def _build_plans(self, query: ConjunctiveQuery
                     ) -> Optional[List[_AtomPlan]]:
        """Per-atom candidate sets, reduced to a semi-join fixpoint.

        Returns ``None`` as soon as some atom has no candidates — the query
        then has no valuations (early termination).
        """
        plans = [_AtomPlan(atom, self._store_for(atom))
                 for atom in query.atoms]
        self.stats.plans_built += len(plans)
        if any(not plan.count for plan in plans):
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
                allowed = set.intersection(
                    *(p.codes_of(variable) for p in sharing))
                for plan in sharing:
                    removed = plan.restrict(variable, allowed)
                    if removed:
                        self.stats.rows_pruned += removed
                        changed = True
                    if not plan.count:
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
                    plans[i].count,
                    -len(plans[i].const_positions),
                    i,
                ))
            else:
                best = min(remaining, key=lambda i: (
                    -len(plans[i].var_positions.keys() & placed_vars),
                    plans[i].count,
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
        atoms = [plan.store.gather(plan.rowids, plan.var_positions)
                 for plan in plans]
        return run_pass(query, atoms, self._atom_order(plans), self.stats)

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
