"""Recorded database changes: the unit of incremental re-explanation.

The paper's workloads are interactive: an analyst inspects a ranking,
deletes a few suspect tuples (or inserts the ones they believe are missing)
and immediately asks "why so / why no" again.  A :class:`DatabaseDelta`
records exactly such a change — a small set of inserts and deletes — so the
backend sessions (:mod:`repro.relational.session`) can mutate their loaded
snapshots in place and the batch engines can re-derive only the valuation
groups the change touches instead of re-running the whole pass.

Semantics (applied deletes-first, then inserts):

* a **delete** of an absent tuple is a no-op;
* an **insert** of a tuple already present updates its endogenous flag
  (an "insert" with a different flag is how a partition *flip* is recorded);
* :meth:`DatabaseDelta.changed_tuples` reports the tuples whose presence
  *or* partition actually changes against a given instance — the
  invalidation set the engines key on.

The JSON format mirrors the CLI database format::

    {"insert": {"relations": {"R": [["a", "b"]]},
                "endogenous_relations": ["R"]},
     "delete": {"relations": {"S": [["c"]]}}}

``endogenous_relations`` (optional, insert side only) marks which inserted
relations are endogenous; omitted means every insert is endogenous, the
paper's default.
"""

from __future__ import annotations

import json
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

from ..exceptions import CausalityError, SchemaError
from .database import Database
from .tuples import Tuple, check_values


class DatabaseDelta:
    """A small recorded change: tuples to delete plus tuples to insert.

    Parameters
    ----------
    inserts:
        Tuples to insert, either plain :class:`Tuple` objects (endogenous,
        the paper's default) or ``(tuple, endogenous)`` pairs.  A later
        insert of the same tuple overrides an earlier one's flag.
    deletes:
        Tuples to delete.  A tuple listed both ways is first deleted, then
        (re-)inserted — i.e. the insert wins.

    Examples
    --------
    >>> delta = DatabaseDelta(inserts=[Tuple("R", ("a", "b"))],
    ...                       deletes=[Tuple("S", ("c",))])
    >>> len(delta), delta.is_empty()
    (2, False)
    >>> sorted(map(repr, delta.insert_tuples()))
    ["R('a', 'b')"]
    """

    __slots__ = ("_inserts", "_deletes")

    def __init__(self,
                 inserts: Iterable[Any] = (),
                 deletes: Iterable[Tuple] = ()):
        insert_map: Dict[Tuple, bool] = {}
        for entry in inserts:
            if isinstance(entry, Tuple):
                tup, endogenous = entry, True
            else:
                tup, endogenous = entry
                if not isinstance(tup, Tuple):
                    raise CausalityError(
                        f"delta insert {entry!r} is neither a Tuple nor a "
                        "(Tuple, endogenous) pair"
                    )
            insert_map[tup] = bool(endogenous)
        self._inserts: Dict[Tuple, bool] = insert_map
        self._deletes: FrozenSet[Tuple] = frozenset(deletes)

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def insert_tuples(self) -> FrozenSet[Tuple]:
        """The tuples this delta inserts (flags via :meth:`insert_items`)."""
        return frozenset(self._inserts)

    def insert_items(self) -> List[TypingTuple[Tuple, bool]]:
        """``(tuple, endogenous)`` pairs in deterministic order."""
        return [(tup, self._inserts[tup]) for tup in sorted(self._inserts)]

    def delete_tuples(self) -> FrozenSet[Tuple]:
        return self._deletes

    def is_empty(self) -> bool:
        return not self._inserts and not self._deletes

    def __len__(self) -> int:
        return len(self._inserts) + len(self._deletes)

    def relations(self) -> FrozenSet[str]:
        """Every relation the delta touches."""
        return frozenset(t.relation for t in self._inserts) | frozenset(
            t.relation for t in self._deletes)

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #
    def changed_tuples(self, database: Database) -> FrozenSet[Tuple]:
        """Tuples whose presence or partition changes when applied to ``database``.

        This is the invalidation set of incremental re-explanation: a
        valuation group is stale iff it touches one of these tuples (plus the
        newly derivable groups the inserts create).  Deletes of absent
        tuples and inserts that change neither presence nor flag are
        filtered out.

        Examples
        --------
        >>> db = Database()
        >>> r = db.add_fact("R", "a", "b")
        >>> delta = DatabaseDelta(inserts=[(r, True)],
        ...                       deletes=[Tuple("S", ("zzz",))])
        >>> delta.changed_tuples(db)  # R(a,b) endogenous already, S absent
        frozenset()
        """
        changed: Set[Tuple] = set()
        for tup in self._deletes:
            if tup in self._inserts:
                # delete-then-reinsert: presence survives; a flag change is
                # caught by the insert loop below.
                continue
            if database.contains(tup):
                changed.add(tup)
        for tup, endogenous in self._inserts.items():
            if not database.contains(tup) or tup in self._deletes:
                changed.add(tup)
            elif database.is_endogenous(tup) != endogenous:
                changed.add(tup)  # partition flip
        return frozenset(changed)

    def validate_against(self, database: Database) -> None:
        """Raise :class:`SchemaError` if an insert violates the value domain
        (:func:`~repro.relational.tuples.check_values`), the schema, or its
        relation's one arity — that of the relation's existing tuples, else
        of the delta's first insert into it.

        Run by :meth:`apply_to` (and by the backend sessions *before* any
        backend mutation), so a rejected delta never leaves either side
        half-applied.
        """
        first: Dict[str, Tuple] = {}
        for tup, _ in self.insert_items():
            check_values(tup)
            database.check_arity(tup)
            earlier = first.setdefault(tup.relation, tup)
            if earlier.arity != tup.arity:
                raise SchemaError(
                    f"relation {tup.relation!r} gets inserts of arity "
                    f"{earlier.arity} and {tup.arity}"
                )
            if database.schema is None:
                continue
            if tup.relation not in database.schema:
                raise SchemaError(f"unknown relation {tup.relation!r}")
            expected = database.schema.arity_of(tup.relation)
            if expected != tup.arity:
                raise SchemaError(
                    f"relation {tup.relation!r} expects arity "
                    f"{expected}, got {tup.arity}"
                )

    def apply_to(self, database: Database) -> FrozenSet[Tuple]:
        """Mutate ``database`` in place; returns :meth:`changed_tuples`.

        Deletes are applied first, then inserts (so an insert listed on both
        sides survives with the insert's flag).  Schema violations are
        checked up front, so a rejected delta leaves the instance untouched
        instead of half-applied.

        Examples
        --------
        >>> db = Database()
        >>> _ = db.add_fact("R", "a", "b")
        >>> delta = DatabaseDelta(deletes=[Tuple("R", ("a", "b"))],
        ...                       inserts=[Tuple("S", ("c",))])
        >>> sorted(map(repr, delta.apply_to(db)))
        ["R('a', 'b')", "S('c')"]
        >>> sorted(map(repr, db.all_tuples()))
        ["S('c')"]
        """
        self.validate_against(database)
        changed = self.changed_tuples(database)
        for tup in sorted(self._deletes):
            database.remove(tup)
        for tup, endogenous in self.insert_items():
            database.add(tup, endogenous=endogenous)
        return changed

    # ------------------------------------------------------------------ #
    # (de)serialisation — the CLI's ``--delta FILE`` format
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DatabaseDelta":
        """Build a delta from the JSON payload documented in the module doc.

        Examples
        --------
        >>> delta = DatabaseDelta.from_dict(
        ...     {"insert": {"relations": {"R": [["a", "b"]]}},
        ...      "delete": {"relations": {"S": [["c"]]}}})
        >>> sorted(map(repr, delta.delete_tuples()))
        ["S('c')"]
        """
        unknown = set(payload) - {"insert", "delete"}
        if unknown:
            raise CausalityError(
                f"unknown delta keys {sorted(unknown)}; expected "
                "'insert' and/or 'delete'"
            )

        def side(name: str) -> TypingTuple[Dict[str, List[Sequence[Any]]],
                                           Optional[Set[str]]]:
            block = payload.get(name) or {}
            relations = block.get("relations", {})
            endo = block.get("endogenous_relations")
            return relations, None if endo is None else set(endo)

        insert_relations, endo_relations = side("insert")
        delete_relations, _ = side("delete")
        inserts: List[TypingTuple[Tuple, bool]] = []
        for relation, rows in insert_relations.items():
            endogenous = True if endo_relations is None \
                else relation in endo_relations
            for row in rows:
                inserts.append((Tuple(relation, tuple(row)), endogenous))
        deletes = [Tuple(relation, tuple(row))
                   for relation, rows in delete_relations.items()
                   for row in rows]
        return cls(inserts=inserts, deletes=deletes)

    @classmethod
    def from_json_file(cls, path: str) -> "DatabaseDelta":
        """Load a single delta object (use :func:`deltas_from_json_file`
        when the file may hold a stream)."""
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if isinstance(payload, list):
            raise CausalityError(
                f"{path!r} holds a delta stream (a JSON list); load it with "
                "deltas_from_json_file"
            )
        return cls.from_dict(payload)

    def to_dict(self) -> Dict[str, Any]:
        """Round-trippable payload (``from_dict(to_dict())`` is identity)."""
        insert_relations: Dict[str, List[List[Any]]] = {}
        endo_relations: Set[str] = set()
        mixed: Set[str] = set()
        for tup, endogenous in self.insert_items():
            insert_relations.setdefault(tup.relation, []).append(
                list(tup.values))
            if endogenous:
                endo_relations.add(tup.relation)
            else:
                mixed.add(tup.relation)
        if endo_relations & mixed:
            raise CausalityError(
                "to_dict cannot express a relation with both endogenous and "
                "exogenous inserts; split the delta"
            )
        delete_relations: Dict[str, List[List[Any]]] = {}
        for tup in sorted(self._deletes):
            delete_relations.setdefault(tup.relation, []).append(
                list(tup.values))
        payload: Dict[str, Any] = {}
        if insert_relations:
            payload["insert"] = {"relations": insert_relations}
            if mixed:
                payload["insert"]["endogenous_relations"] = sorted(
                    endo_relations)
        if delete_relations:
            payload["delete"] = {"relations": delete_relations}
        return payload

    def __repr__(self) -> str:
        return (f"DatabaseDelta(+{len(self._inserts)} insert(s), "
                f"-{len(self._deletes)} delete(s))")


def deltas_from_json_file(path: str) -> List[DatabaseDelta]:
    """Load a delta *stream*: a JSON list of delta objects, applied in order.

    A single delta object (the original ``--delta FILE`` format) is accepted
    too and returned as a one-element stream, so callers can always hand the
    result to ``refresh_all``.

    Examples
    --------
    >>> import json, tempfile
    >>> payload = [{"insert": {"relations": {"R": [["a", "b"]]}}},
    ...            {"delete": {"relations": {"R": [["a", "b"]]}}}]
    >>> with tempfile.NamedTemporaryFile("w", suffix=".json",
    ...                                  delete=False) as handle:
    ...     json.dump(payload, handle)
    ...     stream_path = handle.name
    >>> [len(delta) for delta in deltas_from_json_file(stream_path)]
    [1, 1]
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, list):
        return [DatabaseDelta.from_dict(entry) for entry in payload]
    return [DatabaseDelta.from_dict(payload)]
