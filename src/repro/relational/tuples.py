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

from ..exceptions import SchemaError

#: The integer range both backends store exactly (SQLite's 64-bit INTEGER).
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


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


def check_values(tup: Tuple) -> None:
    """Raise :class:`SchemaError` unless every value of ``tup`` is in the
    value domain, which both backends store and compare alike.

    The domain is ``None``, ``str``, ``bytes``, ``float`` other than NaN
    (SQLite would store it as NULL) and ``int`` within the 64-bit range.
    ``bool`` is excluded: it equals ``1`` in Python and comes back as ``1``
    from SQLite, so ``R(True)`` would be reported differently per backend.

    >>> check_values(Tuple("R", ("a", 1, 2.5, None, b"x")))
    >>> check_values(Tuple("R", (True,)))
    Traceback (most recent call last):
    ...
    repro.exceptions.SchemaError: value True in relation 'R' is outside the value domain (str, bytes, int, float, None; not bool)
    """
    for value in tup.values:
        if value is None or isinstance(value, (str, bytes)):
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(
                f"value {value!r} in relation {tup.relation!r} is outside "
                "the value domain (str, bytes, int, float, None; not bool)")
        if isinstance(value, int):
            if not _INT64_MIN <= value <= _INT64_MAX:
                raise SchemaError(
                    f"integer {value!r} in relation {tup.relation!r} is "
                    "outside the 64-bit range of the value domain")
        elif value != value:
            raise SchemaError(
                f"NaN in relation {tup.relation!r} is outside the value "
                "domain")


def value_sort_key(values: Sequence[Any]) -> TypingTuple[Any, ...]:
    """Build a comparison key that tolerates mixed value types."""
    return tuple((type(v).__name__, repr(v)) for v in values)


def make_tuple(relation: str, *values: Any) -> Tuple:
    """Convenience constructor: ``make_tuple("R", 1, 2) == Tuple("R", (1, 2))``."""
    return Tuple(relation, values)
