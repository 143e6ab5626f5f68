"""Abstract (schema-level) view of conjunctive queries.

Section 4 of the paper manipulates queries *structurally*: the rewriting
relation ``↝`` (Def. 4.6) deletes variables, adds variables to atoms and
deletes atoms; the weakening relation ``⇝`` (Def. 4.9) adds variables to
exogenous atoms (dissociation) and flips endogenous atoms to exogenous
(domination); linearity (Def. 4.4) only looks at which variables occur in
which atoms.  None of these operations care about the order of terms inside
an atom or about constants, so they are implemented over a lightweight
*abstract query*: a sequence of atoms, each a relation label, a set of
variable names and an endogenous flag.

:func:`abstract_query` converts a concrete
:class:`~repro.relational.query.ConjunctiveQuery` (plus an
endogenous-relations policy) into this form; the dichotomy classifier, the
rewriting engine and the weakening engine all operate on it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..exceptions import CausalityError
from ..relational.database import Database
from ..relational.query import ConjunctiveQuery


class AbstractAtom:
    """An atom reduced to its structural content.

    Attributes
    ----------
    label:
        A unique label for the atom within its query (the relation name, with
        a ``#k`` suffix for repeated relations in self-join queries).
    relation:
        The underlying relation name.
    variables:
        The set of variable names occurring in the atom.
    endogenous:
        Whether the atom is an ``Rⁿ`` (True) or ``Rˣ`` (False) atom.
    """

    __slots__ = ("label", "relation", "variables", "endogenous")

    def __init__(self, label: str, relation: str, variables: Iterable[str],
                 endogenous: bool):
        self.label = str(label)
        self.relation = str(relation)
        self.variables: FrozenSet[str] = frozenset(str(v) for v in variables)
        self.endogenous = bool(endogenous)

    def with_variables(self, variables: Iterable[str]) -> "AbstractAtom":
        return AbstractAtom(self.label, self.relation, variables, self.endogenous)

    def with_endogenous(self, endogenous: bool) -> "AbstractAtom":
        return AbstractAtom(self.label, self.relation, self.variables, endogenous)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractAtom):
            return NotImplemented
        return (self.label == other.label and self.relation == other.relation
                and self.variables == other.variables
                and self.endogenous == other.endogenous)

    def __hash__(self) -> int:
        return hash((self.label, self.relation, self.variables, self.endogenous))

    def __repr__(self) -> str:
        marker = "^n" if self.endogenous else "^x"
        return f"{self.label}{marker}({', '.join(sorted(self.variables))})"


class AbstractQuery:
    """A structural view of a Boolean conjunctive query (a tuple of atoms)."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Sequence[AbstractAtom]):
        if not atoms:
            raise CausalityError("an abstract query needs at least one atom")
        self.atoms: Tuple[AbstractAtom, ...] = tuple(atoms)

    # -- structure --------------------------------------------------------- #
    def variables(self) -> FrozenSet[str]:
        result: Set[str] = set()
        for atom in self.atoms:
            result |= atom.variables
        return frozenset(result)

    def endogenous_atoms(self) -> Tuple[AbstractAtom, ...]:
        return tuple(a for a in self.atoms if a.endogenous)

    def exogenous_atoms(self) -> Tuple[AbstractAtom, ...]:
        return tuple(a for a in self.atoms if not a.endogenous)

    def atom_variable_sets(self) -> List[FrozenSet[str]]:
        return [atom.variables for atom in self.atoms]

    def subgoals_containing(self, variable: str) -> Tuple[AbstractAtom, ...]:
        """``sg(x)``: the atoms whose variable set contains ``variable``."""
        return tuple(a for a in self.atoms if variable in a.variables)

    def neighbors(self, index: int) -> Tuple[int, ...]:
        """Indices of atoms sharing at least one variable with atom ``index``."""
        own = self.atoms[index].variables
        return tuple(
            i for i, atom in enumerate(self.atoms)
            if i != index and atom.variables & own
        )

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    # -- transformations (return new queries) ------------------------------ #
    def replace_atom(self, index: int, atom: AbstractAtom) -> "AbstractQuery":
        atoms = list(self.atoms)
        atoms[index] = atom
        return AbstractQuery(atoms)

    def delete_atom(self, index: int) -> "AbstractQuery":
        atoms = [a for i, a in enumerate(self.atoms) if i != index]
        return AbstractQuery(atoms)

    # -- canonical forms ---------------------------------------------------- #
    def state_key(self) -> Tuple:
        """A hashable key identifying the query up to atom order.

        Variable names are preserved; used for memoisation inside searches
        where the variable names stay fixed.
        """
        return tuple(sorted(
            (a.relation, tuple(sorted(a.variables)), a.endogenous, a.label)
            for a in self.atoms
        ))

    def structural_signature(self) -> Tuple:
        """A variable-renaming-invariant (but incomplete) signature.

        Two isomorphic queries always share the signature; it is used as a
        fast pre-filter before the exact isomorphism test.
        """
        variable_degrees: Dict[str, int] = {}
        for atom in self.atoms:
            for v in atom.variables:
                variable_degrees[v] = variable_degrees.get(v, 0) + 1
        atom_profile = tuple(sorted(
            (len(a.variables), a.endogenous,
             tuple(sorted(variable_degrees[v] for v in a.variables)))
            for a in self.atoms
        ))
        return (len(self.variables()), atom_profile)

    def is_isomorphic_to(self, other: "AbstractQuery",
                         match_endogenous: bool = True) -> bool:
        """Exact isomorphism test (bijection of variables and of atoms).

        Relation names are ignored — only the variable-set structure and the
        endogenous flags matter, which is how the canonical hard queries of
        Theorem 4.1 are identified after rewriting.
        """
        if len(self.atoms) != len(other.atoms):
            return False
        if self.structural_signature()[0] != other.structural_signature()[0]:
            return False
        own_vars = sorted(self.variables())
        other_vars = sorted(other.variables())
        if len(own_vars) != len(other_vars):
            return False

        def atoms_match(mapping: Dict[str, str]) -> bool:
            mapped = []
            for atom in self.atoms:
                mapped.append((frozenset(mapping[v] for v in atom.variables),
                               atom.endogenous if match_endogenous else None))
            target = [
                (atom.variables, atom.endogenous if match_endogenous else None)
                for atom in other.atoms
            ]
            return sorted(mapped, key=repr) == sorted(target, key=repr)

        def extend_mapping(index: int, mapping: Dict[str, str],
                           used: Set[str]) -> bool:
            if index == len(own_vars):
                return atoms_match(mapping)
            for candidate in other_vars:
                if candidate in used:
                    continue
                mapping[own_vars[index]] = candidate
                used.add(candidate)
                if extend_mapping(index + 1, mapping, used):
                    return True
                used.discard(candidate)
                del mapping[own_vars[index]]
            return False

        return extend_mapping(0, {}, set())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractQuery):
            return NotImplemented
        return self.state_key() == other.state_key()

    def __hash__(self) -> int:
        return hash(self.state_key())

    def __repr__(self) -> str:
        return "q :- " + ", ".join(repr(a) for a in self.atoms)


def abstract_query(
    query: ConjunctiveQuery,
    endogenous_relations: Optional[Iterable[str]] = None,
    database: Optional[Database] = None,
) -> AbstractQuery:
    """Convert a concrete Boolean CQ into an :class:`AbstractQuery`.

    The endogenous status of each atom is resolved, in order of priority,
    from: the atom's own ``^n``/``^x`` annotation, the explicit
    ``endogenous_relations`` set, the relation-level status in ``database``
    (a relation counts as endogenous if it has at least one endogenous
    tuple), and finally a default of "endogenous".

    Self-join queries get distinct labels ``R#1``, ``R#2`` for repeated
    relation names so atoms remain distinguishable.
    """
    endo_set = None if endogenous_relations is None else set(endogenous_relations)
    seen_counts: Dict[str, int] = {}
    atoms: List[AbstractAtom] = []
    for atom in query.atoms:
        seen_counts[atom.relation] = seen_counts.get(atom.relation, 0) + 1
        occurrence = seen_counts[atom.relation]
        if atom.endogenous is not None:
            endogenous = atom.endogenous
        elif endo_set is not None:
            endogenous = atom.relation in endo_set
        elif database is not None:
            endogenous = database.has_endogenous(atom.relation)
        else:
            endogenous = True
        label = atom.relation if occurrence == 1 else f"{atom.relation}#{occurrence}"
        atoms.append(AbstractAtom(label, atom.relation,
                                  (v.name for v in atom.variables()), endogenous))
    # Fix up labels for the *first* occurrence of repeated relations, so that
    # self-join atoms are consistently labelled R#1, R#2, ...
    totals: Dict[str, int] = {}
    for atom in query.atoms:
        totals[atom.relation] = totals.get(atom.relation, 0) + 1
    relabelled: List[AbstractAtom] = []
    occurrence_counter: Dict[str, int] = {}
    for original, abstract in zip(query.atoms, atoms):
        if totals[original.relation] > 1:
            occurrence_counter[original.relation] = occurrence_counter.get(original.relation, 0) + 1
            label = f"{original.relation}#{occurrence_counter[original.relation]}"
            relabelled.append(AbstractAtom(label, abstract.relation,
                                           abstract.variables, abstract.endogenous))
        else:
            relabelled.append(abstract)
    return AbstractQuery(relabelled)
