"""Dual query hypergraphs and the linearity test (Definitions 4.3 and 4.4).

The *dual query hypergraph* ``H_D(V, E)`` of a query has one vertex per atom
and one hyperedge per variable, containing the atoms the variable occurs in —
the dual of the usual query hypergraph.  A hypergraph is *linear* when its
vertices admit a total order in which every hyperedge is a consecutive block;
a query is linear when its dual hypergraph is (Fig. 5 of the paper shows a
linear chain query and the non-linear hard query ``h∗1``).

Linearity ignores the endogenous/exogenous status of atoms — only which
variable occurs where matters.

The search for a linear order is a small backtracking procedure: atoms are
placed left to right, each variable goes through the states *untouched* →
*open* → *closed*, and placing an atom that mentions a *closed* variable
violates consecutiveness.  Query sizes are tiny (the data complexity setting
fixes the query), so the worst-case factorial behaviour is irrelevant.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .abstract import AbstractQuery


class DualHypergraph:
    """The dual hypergraph of an abstract query.

    Attributes
    ----------
    vertices:
        Atom indices ``0 .. m-1`` (in query order).
    edges:
        Mapping from variable name to the frozenset of atom indices containing
        that variable.
    """

    def __init__(self, query: AbstractQuery):
        self.query = query
        self.vertices: Tuple[int, ...] = tuple(range(len(query)))
        edges: Dict[str, FrozenSet[int]] = {}
        for variable in sorted(query.variables()):
            edges[variable] = frozenset(
                i for i, atom in enumerate(query.atoms) if variable in atom.variables
            )
        self.edges: Dict[str, FrozenSet[int]] = edges

    def degree(self, variable: str) -> int:
        """Number of atoms containing ``variable``."""
        return len(self.edges[variable])

    def __repr__(self) -> str:
        edges = ", ".join(
            f"{var}→{{{', '.join(map(str, sorted(atoms)))}}}"
            for var, atoms in self.edges.items()
        )
        return f"DualHypergraph({len(self.vertices)} atoms; {edges})"


def find_linear_order(variable_sets: Sequence[FrozenSet[str]]) -> Optional[List[int]]:
    """A total order of atoms in which every variable is consecutive.

    ``variable_sets[i]`` is the variable set of atom ``i``.  Returns the order
    as a list of atom indices, or ``None`` when no linear order exists.

    Examples
    --------
    >>> find_linear_order([frozenset({"x"}), frozenset({"x", "y"}), frozenset({"y"})])
    [0, 1, 2]
    >>> h1 = [frozenset({"x"}), frozenset({"y"}), frozenset({"z"}),
    ...       frozenset({"x", "y", "z"})]
    >>> find_linear_order(h1) is None
    True
    """
    n = len(variable_sets)
    if n <= 2:
        return list(range(n))

    UNTOUCHED, OPEN, CLOSED = 0, 1, 2
    all_variables = sorted({v for s in variable_sets for v in s})

    def extend_order(order: List[int], remaining: FrozenSet[int],
                  state: Dict[str, int]) -> Optional[List[int]]:
        if not remaining:
            return order
        for index in sorted(remaining):
            atom_vars = variable_sets[index]
            if any(state[v] == CLOSED for v in atom_vars):
                continue
            new_state = dict(state)
            for v in atom_vars:
                new_state[v] = OPEN
            for v in all_variables:
                if state[v] == OPEN and v not in atom_vars:
                    new_state[v] = CLOSED
            result = extend_order(order + [index], remaining - {index}, new_state)
            if result is not None:
                return result
        return None

    initial_state = {v: UNTOUCHED for v in all_variables}
    return extend_order([], frozenset(range(n)), initial_state)


def is_linear(query: AbstractQuery) -> bool:
    """Is the query linear (Def. 4.4)?"""
    return find_linear_order(query.atom_variable_sets()) is not None


def linear_order(query: AbstractQuery) -> Optional[List[int]]:
    """A witnessing linear order of atom indices, or ``None``."""
    return find_linear_order(query.atom_variable_sets())


def variable_span(order: Sequence[int], variable_sets: Sequence[FrozenSet[str]],
                  variable: str) -> Tuple[int, int]:
    """First and last position (inclusive) of ``variable`` along ``order``.

    Only meaningful for linear orders; used when building the flow graph of
    Algorithm 1 and in tests asserting consecutiveness.
    """
    positions = [pos for pos, atom in enumerate(order) if variable in variable_sets[atom]]
    if not positions:
        raise KeyError(f"variable {variable!r} does not occur in any atom")
    return positions[0], positions[-1]
