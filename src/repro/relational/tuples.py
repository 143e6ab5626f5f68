"""Tuples: the atomic facts stored in a database instance.

The paper associates a distinct Boolean variable ``X_t`` with every tuple
``t`` in the database (Sect. 3).  We therefore need tuples to be immutable,
hashable values so they can key dictionaries, appear inside lineage conjuncts
(frozensets) and be compared across copies of a database.

A :class:`Tuple` is identified by its relation name together with its values;
two tuples with the same relation and values are the same fact.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence, Tuple as TypingTuple


class Tuple:
    """An immutable relational fact ``R(v1, ..., vk)``.

    Parameters
    ----------
    relation:
        Name of the relation this fact belongs to.
    values:
        The attribute values.  Values must be hashable (strings, numbers,
        tuples, ...).

    Examples
    --------
    >>> t = Tuple("R", ("a1", "a5"))
    >>> t.relation, t.values, t.arity
    ('R', ('a1', 'a5'), 2)
    >>> t == Tuple("R", ["a1", "a5"])
    True
    """

    __slots__ = ("_relation", "_values", "_hash")

    def __init__(self, relation: str, values: Sequence[Any]):
        self._relation = str(relation)
        self._values: TypingTuple[Any, ...] = tuple(values)
        self._hash = hash((self._relation, self._values))

    @property
    def relation(self) -> str:
        """Name of the relation this fact belongs to."""
        return self._relation

    @property
    def values(self) -> TypingTuple[Any, ...]:
        """The attribute values of the fact."""
        return self._values

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self._values)

    def __getitem__(self, index: int) -> Any:
        return self._values[index]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tuple):
            return NotImplemented
        return self._relation == other._relation and self._values == other._values

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so the cached hash is *recomputed* on
        # unpickle.  String hashing is salted per process (PYTHONHASHSEED),
        # so a hash carried verbatim across a spawn boundary would disagree
        # with hashes of equal tuples built in the receiving process and
        # silently corrupt every set/dict the unpickled tuple lands in —
        # exactly what the shared-memory fan-out transport does.
        return (Tuple, (self._relation, self._values))

    def __lt__(self, other: "Tuple") -> bool:
        # A deterministic (but otherwise arbitrary) ordering is convenient for
        # reproducible output in examples and benchmarks.
        if not isinstance(other, Tuple):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> TypingTuple[Any, ...]:
        """The ``(relation, values)`` ordering key behind ``__lt__``.

        Public so callers composing larger sort keys (e.g. "responsibility,
        then tuple") stay in sync with the canonical tuple ordering.
        """
        return (self._relation, value_sort_key(self._values))

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self._values)
        return f"{self._relation}({inner})"


def value_sort_key(values: Sequence[Any]) -> TypingTuple[Any, ...]:
    """Build a comparison key that tolerates mixed value types."""
    return tuple((type(v).__name__, repr(v)) for v in values)


def make_tuple(relation: str, *values: Any) -> Tuple:
    """Convenience constructor: ``make_tuple("R", 1, 2) == Tuple("R", (1, 2))``."""
    return Tuple(relation, values)
