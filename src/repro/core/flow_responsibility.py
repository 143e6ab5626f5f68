"""Algorithm 1: PTIME responsibility for (weakly) linear queries via max-flow.

The construction follows Example 4.2 and Algorithm 1 of the paper:

1. linearise the (weakened) query — every variable occupies a consecutive
   block of atoms;
2. build a layered flow network whose *edges* are database tuples: the edge of
   a tuple of the ``k``-th atom connects the node holding the values of the
   variables shared with the previous atom to the node holding the values of
   the variables shared with the next atom.  Endogenous tuples get capacity 1,
   exogenous tuples (and tuples of dominated atoms) capacity ∞;
3. every source–target path corresponds to a valuation of the query, so a cut
   is a set of tuples whose removal makes the query false;
4. for each valuation (witness) that uses the inspected tuple ``t``: protect
   the witness's other tuples with capacity ∞, give ``t`` capacity 0, and
   compute a min-cut.  The cut minus ``t`` is a contingency for ``t``; the
   smallest cut over all witnesses gives the minimum contingency and hence the
   responsibility ``ρ_t = 1 / (1 + min |Γ|)`` (Theorem 4.5).

When the query is not linear but weakly linear, the weakening is materialised
on the instance: dominated atoms keep their tuples but become exogenous, and
dissociated (exogenous) atoms have their tuples extended with every value of
the added variables — which changes neither the query answer nor the
contingencies (Lemma 4.10).

:class:`FlowEngine` lets only the inspected tuple's atom ``R`` dominate.
Domination trades a contingency tuple ``s`` of a dominated atom for the
dominating tuple ``r`` that every valuation through ``s`` uses (``Var(R) ⊆
Var(S)`` fixes it).  The trade keeps the witness alive only when ``r`` is off
the witness, and keeps ``Γ`` a contingency only when ``r`` is endogenous.  For
the inspected atom both hold: with no self-joins the witness's ``R`` tuple is
``t`` itself (and ``r = t`` means ``s`` was not needed in ``Γ``), and the
engine refuses a dominating weakening when ``R``'s lineage holds an exogenous
tuple, falling back to a weakening without domination when one exists.  Any
other dominator may lie on the witness, so it is never used.

:class:`FlowEngine` builds the network over the query's *lineage*, the tuples
that occur in some valuation of the bound query, not over the whole database.
This is sound for three reasons:

* responsibility depends only on the query's valuations (Theorem 3.2): ``t``
  is a cause with contingency ``Γ`` iff removing ``Γ`` leaves a valuation
  through ``t`` and removing ``Γ ∪ {t}`` leaves none, and Algorithm 1 is
  correct on any instance, so it may run on the lineage sub-instance.  The
  valuations are those of the refined query of Sect. 3 (``Rⁿ`` / ``Rˣ``
  atoms match only endogenous / only exogenous tuples), the same set the
  batch engine groups and the exact engine reads;
* a tuple in no valuation lies on no source–target path, so its edges carry
  no flow and never cross the min-cut read off the residual graph: the
  reported contingency is the one the whole-database network gives;
* Lemma 4.10 holds on the sub-instance: the domain of a dissociated variable
  is every value it takes in some valuation, so each valuation of the query
  still extends to exactly the source–target paths it had over the whole
  database, and an extension with a value outside that domain completes no
  path.

:class:`FlowEngine` enumerates those valuations through the evaluator it
is given and reads the database from ``evaluator.database``; it keeps no
copy of the data of its own.  The batch engine hands every bound query its
session's evaluator (the memory kernel, whose column stores the open-query
pass already built, or the SQLite evaluator), and :func:`flow_responsibility`
a fresh :class:`~repro.relational.evaluation.QueryEvaluator`.

Endogenous status is still read from the whole database: an atom's status
(and so the weakening and the dichotomy decision) through
:func:`~repro.core.abstract.abstract_query`, and each edge's capacity through
``database.is_endogenous``.  :func:`example_flow_network` keeps drawing the
whole-database network of Fig. 4.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
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

from ..exceptions import CausalityError, NotLinearError
from ..flow.maxflow import max_flow
from ..flow.network import INFINITY, FlowNetwork
from ..relational.database import Database
from ..relational.evaluation import QueryEvaluator, Valuation
from ..relational.query import Atom, ConjunctiveQuery
from ..relational.query import match_atom as _match_atom_terms
from ..relational.tuples import Tuple
from .abstract import abstract_query
from .definitions import responsibility_value
from .weakening import WeakeningResult, find_weakening


class FlowResponsibilityResult:
    """Outcome of the flow-based responsibility computation for one tuple.

    Attributes
    ----------
    responsibility:
        ``ρ_t`` as an exact fraction (0 when ``t`` is not a cause).
    min_contingency:
        A minimum contingency set (``None`` when ``t`` is not a cause).
    witnesses:
        Number of witnessing valuations that were examined.
    weakening:
        The weakening certificate used (identity weakening for linear queries).
    """

    def __init__(self, responsibility: Fraction,
                 min_contingency: Optional[FrozenSet[Tuple]],
                 witnesses: int, weakening: WeakeningResult) -> None:
        self.responsibility = responsibility
        self.min_contingency = min_contingency
        self.witnesses = witnesses
        self.weakening = weakening

    def __repr__(self) -> str:
        return (f"FlowResponsibilityResult(ρ={self.responsibility}, "
                f"witnesses={self.witnesses})")


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def match_atom(atom: Atom, tup: Tuple) -> Optional[Dict[str, Any]]:
    """Match a tuple against an atom; the name-keyed variable assignment.

    A thin view over the shared unifier
    :func:`~repro.relational.query.match_atom` (constants must agree,
    repeated variables must receive equal values), keyed by variable *name*
    as the layer construction expects.
    """
    mapping = _match_atom_terms(atom, tup)
    if mapping is None:
        return None
    return {variable.name: value for variable, value in mapping.items()}


def _variable_domains(query: ConjunctiveQuery,
                      tuples: Mapping[str, Iterable[Tuple]]) -> Dict[str, Set[Any]]:
    """For every variable, the values it takes in matching tuples of the atoms
    that (originally) contain it.  Used as the domain of dissociated variables."""
    domains: Dict[str, Set[Any]] = {v.name: set() for v in query.variables()}
    for atom in query.atoms:
        for tup in tuples[atom.relation]:
            assignment = match_atom(atom, tup)
            if assignment is None:
                continue
            for name, value in assignment.items():
                domains[name].add(value)
    return domains


class _AtomLayer:
    """Pre-computed matching information for one atom of the linear order."""

    __slots__ = ("concrete", "abstract_vars", "added_vars", "endogenous", "matches")

    def __init__(self, concrete: Atom, abstract_vars: FrozenSet[str],
                 added_vars: FrozenSet[str], endogenous: bool,
                 matches: List[TypingTuple[Dict[str, Any], Tuple]]) -> None:
        self.concrete = concrete
        self.abstract_vars = abstract_vars
        self.added_vars = added_vars
        self.endogenous = endogenous
        # matches: list of (assignment over abstract_vars, base tuple)
        self.matches = matches


def _build_layers(query: ConjunctiveQuery, tuples: Mapping[str, Iterable[Tuple]],
                  weakening: WeakeningResult) -> List[_AtomLayer]:
    """Build the per-atom layers in the weakened query's linear order.

    ``tuples`` maps each relation of the query to the tuples its layer draws
    from, and the dissociated variables' domains come from the same tuples.
    Any superset of the query's lineage gives the same source–target paths:
    a tuple in no valuation lies on no path, and every valuation's values are
    in the domains (Lemma 4.10 on the sub-instance, see the module
    docstring).  :class:`FlowEngine` passes the lineage,
    :func:`example_flow_network` the whole database.
    """
    concrete_by_label: Dict[str, Atom] = {}
    label_counts: Dict[str, int] = {}
    for atom in query.atoms:
        label_counts[atom.relation] = label_counts.get(atom.relation, 0) + 1
        concrete_by_label[atom.relation] = atom
    if any(count > 1 for count in label_counts.values()):
        raise NotLinearError(
            "the flow algorithm requires a query without self-joins"
        )

    domains = _variable_domains(query, tuples)
    added = weakening.added_variables()
    layers: List[_AtomLayer] = []
    for abstract_atom in weakening.ordered_atoms():
        concrete = concrete_by_label[abstract_atom.relation]
        added_vars = frozenset(added.get(abstract_atom.label, frozenset()))
        matches: List[TypingTuple[Dict[str, Any], Tuple]] = []
        base_matches = []
        for tup in sorted(tuples[concrete.relation]):
            assignment = match_atom(concrete, tup)
            if assignment is not None:
                base_matches.append((assignment, tup))
        if added_vars:
            added_sorted = sorted(added_vars)
            value_lists = [sorted(domains.get(v, set()), key=repr) for v in added_sorted]
            for assignment, tup in base_matches:
                for combination in itertools.product(*value_lists):
                    extended = dict(assignment)
                    extended.update(dict(zip(added_sorted, combination)))
                    matches.append((extended, tup))
        else:
            matches = base_matches
        layers.append(_AtomLayer(concrete, abstract_atom.variables, added_vars,
                                 abstract_atom.endogenous, matches))
    return layers


def _interface_variables(layers: Sequence[_AtomLayer]) -> List[TypingTuple[str, ...]]:
    """``interfaces[k]`` = sorted shared variables between layer ``k-1`` and ``k``.

    ``interfaces[0]`` and ``interfaces[m]`` are empty (source / target side).
    """
    interfaces: List[TypingTuple[str, ...]] = [()]
    for left, right in zip(layers, layers[1:]):
        interfaces.append(tuple(sorted(left.abstract_vars & right.abstract_vars)))
    interfaces.append(())
    return interfaces


def build_flow_network(layers: Sequence[_AtomLayer], database: Database
                       ) -> TypingTuple[FlowNetwork, Dict[TypingTuple[int, int], Any]]:
    """Build the layered flow network with its base capacities.

    An edge gets capacity 1 when its layer and its tuple are endogenous, ∞
    otherwise.  Returns the network and a map from (layer, match) to the
    created edge, through which :class:`FlowEngine` protects a witness path.
    """
    interfaces = _interface_variables(layers)
    network = FlowNetwork()
    source = ("source",)
    target = ("target",)
    network.add_node(source)
    network.add_node(target)
    edge_map: Dict[TypingTuple[int, int], Any] = {}

    def node_for(position: int, assignment: Dict[str, Any]) -> Any:
        if position == 0:
            return source
        if position == len(layers):
            return target
        key = tuple((v, assignment[v]) for v in interfaces[position])
        return ("cut", position, key)

    for layer_index, layer in enumerate(layers):
        for match_index, (assignment, tup) in enumerate(layer.matches):
            left = node_for(layer_index, assignment)
            right = node_for(layer_index + 1, assignment)
            capacity: float = INFINITY
            if layer.endogenous and database.is_endogenous(tup):
                capacity = 1
            edge = network.add_edge(left, right, capacity, label=tup)
            edge_map[(layer_index, match_index)] = edge
    return network, edge_map


# (layers, base network, (layer, match) -> edge) for one protected relation
_Plan = TypingTuple[List[_AtomLayer], FlowNetwork, Dict[TypingTuple[int, int], Any]]


# --------------------------------------------------------------------------- #
# main entry points
# --------------------------------------------------------------------------- #
class FlowEngine:
    """Algorithm 1 with state shared across many inspected tuples.

    For one Boolean query and database, the valuation set, the weakening
    certificate per protected relation, the per-atom layers and the flow
    network with its base capacities are all independent of the inspected
    tuple; the batch engine asks for the responsibility of dozens of tuples
    of the same bound query, so this class computes each of those pieces once
    and reuses them.  Each witness only changes the capacities of its own
    path and of the inspected tuple, for the duration of one max-flow.  That
    makes an engine unsafe for concurrent :meth:`responsibility` calls; the
    batch engine keeps one per bound query and calls it from one thread.
    A fresh engine per call is exactly the historical
    :func:`flow_responsibility` behaviour.

    The layers are lineage-local: they hold only the tuples of the engine's
    own valuations of the bound query, enumerated through ``evaluator`` (a
    ``valuations``-capable evaluator over the instance, e.g. a session's
    :attr:`~repro.relational.session.BackendSession.evaluator`), so one
    answer costs O(its lineage), not O(the database).  Atom status and
    base capacities still come from the whole database.  The module docstring gives the soundness argument
    (Theorem 3.2, Lemma 4.10, domination by the inspected atom only).

    Among minimum contingencies of equal size, the one with the smallest
    sorted list of :meth:`~repro.relational.tuples.Tuple.sort_key` values is
    reported, so ``Γ`` does not depend on valuation (hash) order.

    Raises :class:`NotLinearError` at construction for self-joins, and from
    :meth:`responsibility` when no weakening protects the inspected tuple's
    relation — mirroring the per-call API.
    """

    def __init__(self, query: ConjunctiveQuery, evaluator: Any) -> None:
        if not query.is_boolean:
            raise CausalityError(
                "flow_responsibility expects a Boolean query; bind the answer first"
            )
        if query.has_self_joins():
            raise NotLinearError(
                "the flow algorithm requires a query without self-joins")
        self.query = query
        self._evaluator = evaluator
        self.database: Database = evaluator.database
        self._abstract = abstract_query(query, database=self.database)
        self._valuations: Optional[List[Valuation]] = None
        # relation -> (None, None) when no sound weakening protects it, else
        # (weakening, (layers, base network, (layer, match) -> edge))
        self._plans: Dict[str, TypingTuple[Optional[WeakeningResult],
                                           Optional[_Plan]]] = {}

    def _all_valuations(self) -> List[Valuation]:
        if self._valuations is None:
            self._valuations = list(self._evaluator.valuations(self.query))
        return self._valuations

    def _plan_for(self, relation: str
                  ) -> TypingTuple[Optional[WeakeningResult], Optional[_Plan]]:
        if relation not in self._plans:
            # No self-joins, so the relation's one atom is labelled by it.
            weakening = find_weakening(self._abstract, protect=[relation])
            plan = None
            if weakening is not None:
                lineage: Dict[str, Set[Tuple]] = {
                    atom.relation: set() for atom in self.query.atoms}
                for valuation in self._all_valuations():
                    for tup in valuation.atom_tuples:
                        lineage[tup.relation].add(tup)
                if weakening.dominated_labels() and not all(
                        self.database.is_endogenous(tup)
                        for tup in lineage[relation]):
                    # An exogenous dominator cannot be traded into a
                    # contingency (module docstring): try without domination.
                    weakening = find_weakening(
                        self._abstract,
                        protect=[atom.label for atom in self._abstract.atoms])
                if weakening is not None:
                    layers = _build_layers(self.query, lineage, weakening)
                    network, edge_map = build_flow_network(layers,
                                                           self.database)
                    plan = (layers, network, edge_map)
            self._plans[relation] = (weakening, plan)
        return self._plans[relation]

    def responsibility(self, tuple_: Tuple) -> FlowResponsibilityResult:
        """The Why-So responsibility of ``tuple_`` (Algorithm 1)."""
        query, database = self.query, self.database
        if not database.is_endogenous(tuple_):
            return FlowResponsibilityResult(
                responsibility_value(None), None, 0,
                WeakeningResult(self._abstract, self._abstract,
                                (), tuple(range(len(query.atoms)))))

        if not any(atom.relation == tuple_.relation for atom in query.atoms):
            raise CausalityError(
                f"tuple {tuple_!r} belongs to relation {tuple_.relation!r}, "
                "which does not occur in the query"
            )
        weakening, plan = self._plan_for(tuple_.relation)
        if weakening is None:
            raise NotLinearError(
                "query is not weakly linear (with the inspected tuple's relation "
                "kept endogenous and the only dominator); use the exact "
                "algorithm instead"
            )
        assert plan is not None
        layers, network, edge_map = plan

        # Witnessing valuations: valuations of the original query that map
        # the atom of t's relation to t.
        atom_index_of_t = next(i for i, atom in enumerate(query.atoms)
                               if atom.relation == tuple_.relation)
        witnesses = [v for v in self._all_valuations()
                     if v.atom_tuples[atom_index_of_t] == tuple_]
        if not witnesses:
            return FlowResponsibilityResult(responsibility_value(None), None, 0,
                                            weakening)

        # The base network is shared by every call on this relation: the
        # inspected tuple's edges get capacity 0 and each witness path's
        # other edges capacity ∞, and the base capacities come back after.
        inspected = [(edge, edge.capacity) for edge in network.edges
                     if edge.label == tuple_]
        best_cut: Optional[FrozenSet[Tuple]] = None
        # Ties between distinct cuts go to the smallest sorted tuple keys;
        # the incumbent's key is computed on its first such tie only.
        best_key: Optional[List[Any]] = None
        try:
            for edge, _ in inspected:
                edge.capacity = 0
            for witness in witnesses:
                assignment = {v.name: value
                              for v, value in witness.assignment.items()}
                protected: List[TypingTuple[Any, float]] = []
                for layer_index, layer in enumerate(layers):
                    witness_tuple = next(
                        t for t in witness.atom_tuples
                        if t.relation == layer.concrete.relation
                    )
                    for match_index, (match_assignment, tup) in \
                            enumerate(layer.matches):
                        if tup != witness_tuple:
                            continue
                        if all(assignment.get(var) == value
                               for var, value in match_assignment.items()):
                            edge = edge_map[(layer_index, match_index)]
                            if tup != tuple_:
                                protected.append((edge, edge.capacity))
                            break
                try:
                    for edge, _ in protected:
                        edge.capacity = INFINITY
                    result = max_flow(network, ("source",), ("target",))
                finally:
                    for edge, capacity in protected:
                        edge.capacity = capacity
                if result.is_infinite:
                    continue
                cut_tuples = frozenset(
                    label for label in result.cut_labels() if label != tuple_
                )
                if best_cut is None or len(cut_tuples) < len(best_cut):
                    best_cut, best_key = cut_tuples, None
                elif len(cut_tuples) == len(best_cut) \
                        and cut_tuples != best_cut:
                    if best_key is None:
                        best_key = sorted(t.sort_key() for t in best_cut)
                    key = sorted(t.sort_key() for t in cut_tuples)
                    if key < best_key:
                        best_cut, best_key = cut_tuples, key
        finally:
            for edge, capacity in inspected:
                edge.capacity = capacity

        # No cut at all: every witness admits only infinite cuts, so the
        # query can never be made false by removing endogenous tuples.
        return FlowResponsibilityResult(
            responsibility_value(None if best_cut is None else len(best_cut)),
            best_cut, len(witnesses), weakening)


def flow_responsibility(query: ConjunctiveQuery, database: Database,
                        tuple_: Tuple) -> FlowResponsibilityResult:
    """Compute the Why-So responsibility of ``t`` with Algorithm 1.

    Raises :class:`NotLinearError` when the query is not weakly linear (or no
    weakening exists that keeps the relation of ``t`` endogenous); callers
    should fall back to :func:`repro.core.responsibility.exact_responsibility`.
    Use :class:`FlowEngine` directly to amortise the valuation and layer
    construction over many tuples of the same query.
    """
    return FlowEngine(query, QueryEvaluator(database)).responsibility(tuple_)


def flow_responsibility_value(query: ConjunctiveQuery, database: Database,
                              tuple_: Tuple) -> Fraction:
    """Just the responsibility value ``ρ_t`` (see :func:`flow_responsibility`)."""
    return flow_responsibility(query, database, tuple_).responsibility


def example_flow_network(query: ConjunctiveQuery,
                         database: Database) -> FlowNetwork:
    """The plain flow network of a linear query (no witness protection).

    This is the object depicted in Fig. 4 of the paper; its min-cut is the
    minimum number of endogenous tuples whose removal makes the query false.
    """
    abstract = abstract_query(query, database=database)
    weakening = find_weakening(abstract)
    if weakening is None:
        raise NotLinearError("query is not weakly linear")
    tuples = {atom.relation: database.tuples_of(atom.relation)
              for atom in query.atoms}
    layers = _build_layers(query, tuples, weakening)
    network, _ = build_flow_network(layers, database)
    return network
