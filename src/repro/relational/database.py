"""Database instances with an endogenous / exogenous partition.

The paper (Sect. 2) works with a database instance ``D`` partitioned into
endogenous tuples ``Dn`` (the candidate causes) and exogenous tuples
``Dx = D - Dn`` (context that is never blamed).  The partition is in general
tuple-level — the user may declare a whole relation endogenous, or only a
subset of its tuples ("only Movie tuples with year > 2008").

:class:`Database` supports both styles:

* ``add(tup, endogenous=True/False)`` sets the status per tuple;
* :meth:`set_relation_endogenous` / :meth:`set_relation_exogenous` flip the
  status of every tuple of a relation;
* :meth:`partition_by` applies an arbitrary predicate.

For counterfactual reasoning we repeatedly evaluate queries on ``D - Γ`` and
``D ∪ Γ``; :meth:`without` and :meth:`with_tuples` produce cheap modified
copies.
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
    Set,
    Tuple as TypingTuple,
)

from ..exceptions import SchemaError
from .schema import Schema
from .tuples import Tuple, check_values


class Database:
    """A relational database instance with endogenous/exogenous tuples.

    Parameters
    ----------
    schema:
        Optional :class:`~repro.relational.schema.Schema`.  When given, arities
        of inserted tuples are validated against it.
    default_endogenous:
        Status given to tuples inserted without an explicit ``endogenous``
        flag.  The paper suggests "declare everything endogenous, then narrow
        down", so the default is ``True``.

    Examples
    --------
    >>> db = Database()
    >>> _ = db.add_fact("R", "a1", "a5")
    >>> _ = db.add_fact("S", "a1", endogenous=False)
    >>> db.size(), len(db.endogenous_tuples()), len(db.exogenous_tuples())
    (2, 1, 1)
    """

    def __init__(self, schema: Optional[Schema] = None, default_endogenous: bool = True):
        self.schema = schema
        self.default_endogenous = default_endogenous
        self._relations: Dict[str, Set[Tuple]] = {}
        self._endogenous: Set[Tuple] = set()
        # Per-relation endogenous cardinalities, kept in lockstep with
        # ``_endogenous`` so ``has_endogenous`` is O(1) — the incremental
        # refresh checks it per delta, per touched relation.
        self._endo_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # partition bookkeeping (every mutation of ``_endogenous`` goes here)
    # ------------------------------------------------------------------ #
    def _endo_add(self, tup: Tuple) -> None:
        if tup not in self._endogenous:
            self._endogenous.add(tup)
            self._endo_counts[tup.relation] = \
                self._endo_counts.get(tup.relation, 0) + 1

    def _endo_discard(self, tup: Tuple) -> None:
        if tup in self._endogenous:
            self._endogenous.discard(tup)
            remaining = self._endo_counts[tup.relation] - 1
            if remaining:
                self._endo_counts[tup.relation] = remaining
            else:
                del self._endo_counts[tup.relation]

    # ------------------------------------------------------------------ #
    # insertion / removal
    # ------------------------------------------------------------------ #
    def add(self, tup: Tuple, endogenous: Optional[bool] = None) -> Tuple:
        """Insert a :class:`Tuple`; returns the tuple for chaining.

        Raises :class:`SchemaError` for a value outside the value domain
        (:func:`~repro.relational.tuples.check_values`), a schema mismatch,
        or an arity that differs from the relation's existing tuples (one
        arity per relation, as on the SQLite backend).
        """
        check_values(tup)
        self.check_arity(tup)
        if self.schema is not None:
            if tup.relation not in self.schema:
                raise SchemaError(f"unknown relation {tup.relation!r}")
            expected = self.schema.arity_of(tup.relation)
            if expected != tup.arity:
                raise SchemaError(
                    f"relation {tup.relation!r} expects arity {expected}, "
                    f"got {tup.arity}"
                )
        self._relations.setdefault(tup.relation, set()).add(tup)
        if endogenous is None:
            endogenous = self.default_endogenous
        if endogenous:
            self._endo_add(tup)
        else:
            self._endo_discard(tup)
        return tup

    def arity_of(self, relation: str) -> Optional[int]:
        """The arity of ``relation``'s tuples, ``None`` while it is empty."""
        for tup in self._relations.get(relation, ()):
            return tup.arity
        return None

    def check_arity(self, tup: Tuple) -> None:
        """Raise :class:`SchemaError` unless ``tup`` has its relation's arity."""
        arity = self.arity_of(tup.relation)
        if arity is not None and arity != tup.arity:
            raise SchemaError(
                f"relation {tup.relation!r} holds tuples of arity {arity}, "
                f"got {tup.arity}"
            )

    def add_fact(self, relation: str, *values: Any, endogenous: Optional[bool] = None) -> Tuple:
        """Insert ``relation(values...)`` and return the created tuple."""
        return self.add(Tuple(relation, values), endogenous=endogenous)

    def add_all(self, tuples: Iterable[Tuple], endogenous: Optional[bool] = None) -> List[Tuple]:
        """Insert many tuples; returns them as a list."""
        return [self.add(t, endogenous=endogenous) for t in tuples]

    def remove(self, tup: Tuple) -> None:
        """Remove a tuple (no error if absent)."""
        rel = self._relations.get(tup.relation)
        if rel is not None:
            rel.discard(tup)
            if not rel:
                del self._relations[tup.relation]
        self._endo_discard(tup)

    # ------------------------------------------------------------------ #
    # endogenous / exogenous partition
    # ------------------------------------------------------------------ #
    def is_endogenous(self, tup: Tuple) -> bool:
        return tup in self._endogenous

    def is_exogenous(self, tup: Tuple) -> bool:
        return self.contains(tup) and tup not in self._endogenous

    def set_endogenous(self, tup: Tuple, endogenous: bool = True) -> None:
        """Flip the status of a single (already inserted) tuple."""
        if not self.contains(tup):
            raise SchemaError(f"tuple {tup!r} is not in the database")
        if endogenous:
            self._endo_add(tup)
        else:
            self._endo_discard(tup)

    def set_relation_endogenous(self, relation: str) -> None:
        """Declare every tuple of ``relation`` endogenous."""
        for tup in self.tuples_of(relation):
            self._endo_add(tup)

    def set_relation_exogenous(self, relation: str) -> None:
        """Declare every tuple of ``relation`` exogenous."""
        for tup in self.tuples_of(relation):
            self._endo_discard(tup)

    def partition_by(self, predicate: Callable[[Tuple], bool]) -> None:
        """Set each tuple endogenous iff ``predicate(tuple)`` is true."""
        for tup in self.all_tuples():
            if predicate(tup):
                self._endo_add(tup)
            else:
                self._endo_discard(tup)

    def has_endogenous(self, relation: str) -> bool:
        """O(1): does ``relation`` currently hold any endogenous tuple?

        Backed by per-relation counters, so the incremental refresh can
        detect a relation-level partition shift without scanning the
        relation.

        Examples
        --------
        >>> db = Database()
        >>> _ = db.add_fact("R", "a", endogenous=False)
        >>> db.has_endogenous("R")
        False
        >>> db.set_relation_endogenous("R")
        >>> db.has_endogenous("R")
        True
        """
        return self._endo_counts.get(relation, 0) > 0

    def endogenous_tuples(self, relation: Optional[str] = None) -> FrozenSet[Tuple]:
        """The set ``Dn`` (optionally restricted to one relation)."""
        if relation is None:
            return frozenset(self._endogenous)
        return frozenset(t for t in self.tuples_of(relation) if t in self._endogenous)

    def exogenous_tuples(self, relation: Optional[str] = None) -> FrozenSet[Tuple]:
        """The set ``Dx = D - Dn`` (optionally restricted to one relation)."""
        if relation is None:
            return frozenset(
                t for tuples in self._relations.values() for t in tuples
                if t not in self._endogenous
            )
        return frozenset(
            t for t in self.tuples_of(relation) if t not in self._endogenous
        )

    def relation_is_fully_endogenous(self, relation: str) -> bool:
        tuples = self.tuples_of(relation)
        return bool(tuples) and all(t in self._endogenous for t in tuples)

    def relation_is_fully_exogenous(self, relation: str) -> bool:
        tuples = self.tuples_of(relation)
        return all(t not in self._endogenous for t in tuples)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def relations(self) -> TypingTuple[str, ...]:
        """Names of the relations that currently hold at least one tuple."""
        return tuple(sorted(self._relations))

    def tuples_of(self, relation: str) -> FrozenSet[Tuple]:
        """All tuples of ``relation`` (empty frozenset if the relation is empty)."""
        return frozenset(self._relations.get(relation, frozenset()))

    def all_tuples(self) -> FrozenSet[Tuple]:
        return frozenset(t for tuples in self._relations.values() for t in tuples)

    def contains(self, tup: Tuple) -> bool:
        return tup in self._relations.get(tup.relation, frozenset())

    __contains__ = contains

    def size(self, relation: Optional[str] = None) -> int:
        """Number of tuples in the instance (or in one relation)."""
        if relation is not None:
            return len(self._relations.get(relation, ()))
        return sum(len(tuples) for tuples in self._relations.values())

    def __len__(self) -> int:
        return self.size()

    def active_domain(self) -> FrozenSet[Any]:
        """The active domain ``Adom(D)``: every value appearing in some tuple."""
        return frozenset(v for tuples in self._relations.values()
                         for t in tuples for v in t.values)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.all_tuples())

    # ------------------------------------------------------------------ #
    # hypothetical states
    # ------------------------------------------------------------------ #
    def copy(self) -> "Database":
        """A deep-enough copy (tuples themselves are immutable and shared)."""
        clone = Database(schema=self.schema, default_endogenous=self.default_endogenous)
        clone._relations = {rel: set(tuples) for rel, tuples in self._relations.items()}
        clone._endogenous = set(self._endogenous)
        clone._endo_counts = dict(self._endo_counts)
        return clone

    def without(self, tuples: Iterable[Tuple]) -> "Database":
        """A copy of this instance with ``tuples`` removed (``D - Γ``)."""
        clone = self.copy()
        for tup in tuples:
            clone.remove(tup)
        return clone

    def with_tuples(self, tuples: Iterable[Tuple], endogenous: Optional[bool] = None) -> "Database":
        """A copy of this instance with ``tuples`` added (``D ∪ Γ``)."""
        clone = self.copy()
        for tup in tuples:
            clone.add(tup, endogenous=endogenous)
        return clone

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """One line per relation: name, cardinality, #endogenous."""
        lines = []
        for rel in self.relations():
            tuples = self.tuples_of(rel)
            endo = sum(1 for t in tuples if t in self._endogenous)
            lines.append(f"{rel}: {len(tuples)} tuples ({endo} endogenous)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Database({self.size()} tuples over {len(self._relations)} relations)"


def database_from_dict(
    relations: Dict[str, Sequence[Sequence[Any]]],
    endogenous_relations: Optional[Iterable[str]] = None,
    schema: Optional[Schema] = None,
) -> Database:
    """Build a database from ``{relation: [rows...]}``.

    Parameters
    ----------
    relations:
        Mapping from relation name to an iterable of rows (each row a sequence
        of values).
    endogenous_relations:
        If given, only tuples of these relations are endogenous; otherwise all
        tuples are endogenous (the paper's suggested default).

    Examples
    --------
    >>> db = database_from_dict({"R": [(1, 2), (2, 3)], "S": [(3,)]},
    ...                         endogenous_relations=["S"])
    >>> sorted(t.relation for t in db.endogenous_tuples())
    ['S']
    """
    db = Database(schema=schema)
    endo_rels = None if endogenous_relations is None else set(endogenous_relations)
    for rel, rows in relations.items():
        endo = True if endo_rels is None else (rel in endo_rels)
        for row in rows:
            db.add_fact(rel, *row, endogenous=endo)
    return db
