"""Query weakening (Definition 4.9): dissociation, domination, weak linearity.

The weakening relation ``q ⇝ q'`` expands the class of queries whose
responsibility is computable in PTIME:

* **Dissociation** — add a variable occurring in a neighbouring atom to an
  *exogenous* atom (increasing its arity).
* **Domination** — if an endogenous atom ``g`` contains all variables of some
  other endogenous atom ``g0``, make ``g`` exogenous (a minimum contingency
  never *needs* tuples of a dominated relation — any such tuple can be traded
  for the dominating atom's tuple).

A query is *weakly linear* when some sequence of weakenings produces a linear
query (Cor. 4.11: weakly linear ⇒ PTIME).  :func:`find_weakening` searches the
(finite) weakening space and returns a certificate: the weakened query, the
operations applied, and a linear order of its atoms — everything
:mod:`repro.core.flow_responsibility` needs to run Algorithm 1 on the
weakened instance.

One practical subtlety: domination preserves responsibility only for the
tuples of the inspected tuple's own atom, and only when that atom is the
dominator (the trade argument is in :mod:`repro.core.flow_responsibility`).
The search therefore accepts a ``protect`` set of atom labels that stay
endogenous and are the only dominators; the flow engine protects the
inspected tuple's relation and falls back to the exact algorithm when no
protected weakening exists.  The dichotomy (:func:`is_weakly_linear`) passes
no ``protect`` and keeps the unrestricted Definition 4.9.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .abstract import AbstractAtom, AbstractQuery
from .hypergraph import find_linear_order


class WeakeningStep:
    """One application of dissociation or domination."""

    __slots__ = ("kind", "atom_label", "variable")

    def __init__(self, kind: str, atom_label: str, variable: Optional[str] = None):
        if kind not in ("dissociation", "domination"):
            raise ValueError(f"unknown weakening kind {kind!r}")
        self.kind = kind
        self.atom_label = atom_label
        self.variable = variable

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeakeningStep):
            return NotImplemented
        return (self.kind, self.atom_label, self.variable) == \
            (other.kind, other.atom_label, other.variable)

    def __hash__(self) -> int:
        return hash((self.kind, self.atom_label, self.variable))

    def __repr__(self) -> str:
        if self.kind == "domination":
            return f"domination({self.atom_label})"
        return f"dissociation({self.atom_label} += {self.variable})"


class WeakeningResult:
    """Certificate that a query is weakly linear.

    Attributes
    ----------
    original, weakened:
        The input query and the weakened (linear) query.  Atoms keep their
        labels, so positional correspondence is by label.
    steps:
        The weakening operations applied, in order.
    order:
        A linear order of the weakened query's atoms (indices into
        ``weakened.atoms``).
    """

    def __init__(self, original: AbstractQuery, weakened: AbstractQuery,
                 steps: Sequence[WeakeningStep], order: Sequence[int]):
        self.original = original
        self.weakened = weakened
        self.steps: Tuple[WeakeningStep, ...] = tuple(steps)
        self.order: Tuple[int, ...] = tuple(order)

    def added_variables(self) -> Dict[str, FrozenSet[str]]:
        """Per atom label, the variables added by dissociations."""
        original_vars = {a.label: a.variables for a in self.original.atoms}
        return {
            a.label: a.variables - original_vars[a.label]
            for a in self.weakened.atoms
        }

    def dominated_labels(self) -> FrozenSet[str]:
        """Labels of atoms turned exogenous by dominations."""
        return frozenset(step.atom_label for step in self.steps
                         if step.kind == "domination")

    def ordered_atoms(self) -> List[AbstractAtom]:
        return [self.weakened.atoms[i] for i in self.order]

    def __repr__(self) -> str:
        return (f"WeakeningResult(steps={list(self.steps)!r}, "
                f"order={[self.weakened.atoms[i].label for i in self.order]})")


# --------------------------------------------------------------------------- #
# individual weakening operations
# --------------------------------------------------------------------------- #
def domination_candidates(query: AbstractQuery,
                          protect: FrozenSet[str] = frozenset()) -> List[Tuple[int, int]]:
    """Pairs ``(dominated_index, dominator_index)`` of applicable dominations.

    Atom ``i`` (endogenous, not protected) is dominated by atom ``j`` when
    ``j ≠ i``, ``j`` is endogenous (and protected, when ``protect`` is
    non-empty), and ``Var(g_j) ⊆ Var(g_i)``.
    """
    result: List[Tuple[int, int]] = []
    for i, atom in enumerate(query.atoms):
        if not atom.endogenous or atom.label in protect:
            continue
        for j, other in enumerate(query.atoms):
            if i == j or not other.endogenous:
                continue
            if protect and other.label not in protect:
                continue
            if other.variables <= atom.variables:
                result.append((i, j))
                break
    return result


def apply_dominations(query: AbstractQuery,
                      protect: FrozenSet[str] = frozenset()
                      ) -> Tuple[AbstractQuery, List[WeakeningStep]]:
    """Greedily apply dominations until none is applicable.

    Dominations only depend on the variable sets of *endogenous* atoms and
    never change variable sets, so greedy application to a fixpoint is
    confluent with respect to which atoms can eventually be dominated.
    """
    steps: List[WeakeningStep] = []
    current = query
    while True:
        candidates = domination_candidates(current, protect)
        if not candidates:
            return current, steps
        index, _dominator = candidates[0]
        atom = current.atoms[index]
        current = current.replace_atom(index, atom.with_endogenous(False))
        steps.append(WeakeningStep("domination", atom.label))


def dissociation_moves(query: AbstractQuery) -> List[Tuple[int, str]]:
    """All single-dissociation moves ``(atom_index, variable)``.

    The atom must be exogenous and the variable must occur in a neighbour of
    the atom but not in the atom itself.
    """
    moves: List[Tuple[int, str]] = []
    for i, atom in enumerate(query.atoms):
        if atom.endogenous:
            continue
        neighbour_vars: Set[str] = set()
        for j in query.neighbors(i):
            neighbour_vars |= query.atoms[j].variables
        for variable in sorted(neighbour_vars - atom.variables):
            moves.append((i, variable))
    return moves


def apply_dissociation(query: AbstractQuery, index: int, variable: str) -> AbstractQuery:
    atom = query.atoms[index]
    return query.replace_atom(index, atom.with_variables(atom.variables | {variable}))


# --------------------------------------------------------------------------- #
# weak linearity search
# --------------------------------------------------------------------------- #
def find_weakening(query: AbstractQuery,
                   protect: Iterable[str] = (),
                   max_states: int = 200_000) -> Optional[WeakeningResult]:
    """Search for a weakening of ``query`` into a linear query.

    Returns a :class:`WeakeningResult` certificate or ``None`` when the query
    is not weakly linear (under the given protection constraints).

    The search applies all dominations first (they never hurt: they do not
    change the hypergraph and only enable more dissociations), then explores
    dissociation sequences breadth-first with memoisation.  The state space is
    finite — each exogenous atom's variable set only grows within ``Var(q)``.
    """
    protect_set = frozenset(protect)
    dominated, domination_steps = apply_dominations(query, protect_set)

    start_order = find_linear_order(dominated.atom_variable_sets())
    if start_order is not None:
        return WeakeningResult(query, dominated, domination_steps, start_order)

    seen = {dominated.state_key()}
    queue = deque([(dominated, tuple(domination_steps))])
    explored = 0
    while queue:
        current, steps = queue.popleft()
        explored += 1
        if explored > max_states:
            raise RuntimeError(
                f"weakening search exceeded {max_states} states; "
                "the query is larger than this implementation expects"
            )
        for index, variable in dissociation_moves(current):
            candidate = apply_dissociation(current, index, variable)
            key = candidate.state_key()
            if key in seen:
                continue
            seen.add(key)
            new_steps = steps + (WeakeningStep(
                "dissociation", current.atoms[index].label, variable),)
            order = find_linear_order(candidate.atom_variable_sets())
            if order is not None:
                return WeakeningResult(query, candidate, new_steps, order)
            queue.append((candidate, new_steps))
    return None


def is_weakly_linear(query: AbstractQuery) -> bool:
    """Is the query weakly linear (∃ weakening to a linear query)?"""
    return find_weakening(query) is not None
