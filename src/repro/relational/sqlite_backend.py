"""SQLite execution backend: run the valuation pass (and cause programs) in SQL.

Theorem 3.4's practical reading — causes "can be retrieved by simply running a
certain SQL query" — needs an actual database to run against.  This module
loads a :class:`~repro.relational.database.Database` into SQLite (in-memory by
default, on-disk on request) using the same physical layout the Datalog → SQL
renderer of :mod:`repro.datalog.sql` assumes:

* one table per EDB relation with positional columns ``c0 .. cN`` plus an
  ``is_endogenous`` flag column, and
* the ``R__endo`` / ``R__exo`` partition views created by
  :func:`~repro.datalog.sql.partition_view_sql`.

On top of that layout two execution services are provided:

* :meth:`SQLiteDatabase.execute_program` runs a program rendered by
  :func:`~repro.datalog.sql.program_to_sql` and returns its answer rows;
* :class:`SQLiteEvaluator` is a drop-in replacement for
  :class:`~repro.relational.evaluation.QueryEvaluator` whose
  :meth:`~SQLiteEvaluator.valuations` pass runs as **one SQL query**: the
  conjunctive query is rendered as a ``SELECT`` over *all* per-atom alias
  columns (not just the ``DISTINCT`` head projection), so every result row
  maps back to a full :class:`~repro.relational.evaluation.Valuation` —
  variable assignment and matched tuples included.  This is what lets
  :class:`~repro.engine.batch.BatchExplainer` push its open-query pass into
  the DBMS (``backend="sqlite"``) for instances that should not live in the
  in-memory evaluator.

Why-No candidate generation is not a backend service: both backends hold the
Python-side :class:`~repro.relational.database.Database`, and the one
generator of :mod:`repro.lineage.whyno` runs over it.

The backend snapshots the database at construction time; a recorded change
(:class:`~repro.relational.delta.DatabaseDelta`) can then be applied *in
place* with :meth:`SQLiteDatabase.apply_delta` — ``DELETE`` / upsert
statements against the loaded tables instead of a re-load, which is what
makes the incremental re-explanation path of
:class:`~repro.relational.session.SQLiteSession` cheap.  Values must round-trip
through SQLite's storage classes unchanged, so only ``str``, ``int``,
``float``, ``bytes`` and ``None`` are accepted (``bool`` is rejected: SQLite
would hand it back as an integer and silently break cross-engine equality).
"""

from __future__ import annotations

import re
import sqlite3
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple as TypingTuple,
)

from ..exceptions import BackendError
from .database import Database
from .delta import DatabaseDelta
from .evaluation import Valuation
from .query import ConjunctiveQuery, Constant, Variable
from .tuples import Tuple

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
_ALLOWED_VALUE_TYPES = (str, int, float, bytes)


_COLUMN_INDEX_SUFFIX_RE = re.compile(r"__ix\d+$")


def _check_relation_name(relation: str) -> None:
    if not _IDENTIFIER_RE.match(relation):
        raise BackendError(
            f"relation name {relation!r} is not a plain SQL identifier"
        )
    if relation.endswith("__endo") or relation.endswith("__exo"):
        raise BackendError(
            f"relation name {relation!r} collides with the partition views"
        )
    if _COLUMN_INDEX_SUFFIX_RE.search(relation):
        raise BackendError(
            f"relation name {relation!r} collides with the per-column "
            "indexes (tables and indexes share SQLite's namespace)"
        )


#: Suffixes the backend derives from a relation name (partition views,
#: per-column indexes).
_DERIVED_SUFFIX_RE = re.compile(r"(__endo|__exo|__ix\d+)$")


def quote_identifier(name: str) -> str:
    """Validate ``name`` and return it double-quoted for use in SQL text.

    This is the single choke point every interpolated identifier (relation,
    view, index) must pass through — the ``sql-quoting`` lint rule enforces
    exactly that.  Validation reduces derived names (partition views,
    per-column indexes) to their base relation and holds that base to
    :func:`_check_relation_name`'s reserved-name rules.  Quoting is otherwise
    semantics-preserving for plain identifiers, and lets relation names that
    are SQL keywords (``Order``, ``Group``) work instead of erroring.

    Examples
    --------
    >>> quote_identifier("R")
    '"R"'
    >>> quote_identifier("R__ix0")
    '"R__ix0"'
    >>> quote_identifier("R; DROP TABLE R")
    Traceback (most recent call last):
        ...
    repro.exceptions.BackendError: SQL identifier 'R; DROP TABLE R' is not a plain identifier
    """
    if not _IDENTIFIER_RE.match(name):
        raise BackendError(
            f"SQL identifier {name!r} is not a plain identifier")
    _check_relation_name(_DERIVED_SUFFIX_RE.sub("", name))
    return f'"{name}"'


_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


def _check_value(relation: str, value: Any) -> None:
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, _ALLOWED_VALUE_TYPES):
        raise BackendError(
            f"value {value!r} in relation {relation!r} does not round-trip "
            "through SQLite (allowed: str, int, float, bytes, None)"
        )
    if isinstance(value, int) and not _INT64_MIN <= value <= _INT64_MAX:
        raise BackendError(
            f"integer {value!r} in relation {relation!r} exceeds SQLite's "
            "64-bit INTEGER range"
        )
    if isinstance(value, float) and value != value:
        # sqlite3 binds NaN as NULL, which would silently change answers.
        raise BackendError(
            f"NaN in relation {relation!r} does not round-trip through "
            "SQLite (it is stored as NULL)"
        )


class _ValuationSQL:
    """A conjunctive query rendered as one valuation-enumerating SELECT.

    Unlike the answer query of Theorem 3.4 (``SELECT DISTINCT`` on the head),
    the select list carries *every* column of *every* atom alias, so the rows
    are in bijection with the valuations ``θ : Var(q) → Adom(D)`` and each row
    decodes back to the matched tuples plus the full variable assignment.
    """

    __slots__ = ("query", "sql", "grouped_sql", "answers_sql", "exists_sql",
                 "params", "atom_offsets", "var_positions")

    def __init__(self, query: ConjunctiveQuery, respect_annotations: bool = True):
        from ..datalog.sql import default_column, table_name

        self.query = query
        self.atom_offsets: List[int] = []
        select_items: List[str] = []
        params: List[Any] = []
        conditions: List[str] = []
        tables: List[str] = []
        # Variable -> (bound column expression, flat row index)
        locations: Dict[Variable, TypingTuple[str, int]] = {}
        offset = 0
        for index, atom in enumerate(query.atoms):
            alias = f"t{index}"
            name = table_name(atom) if respect_annotations else atom.relation
            tables.append(f"{quote_identifier(name)} AS {alias}")
            self.atom_offsets.append(offset)
            for position, term in enumerate(atom.terms):
                column = f"{alias}.{default_column(position)}"
                select_items.append(column)
                if isinstance(term, Constant):
                    if term.value is None:
                        conditions.append(f"{column} IS NULL")
                    else:
                        conditions.append(f"{column} = ?")
                        params.append(term.value)
                else:
                    assert isinstance(term, Variable)
                    if term in locations:
                        # IS, not =: None is an ordinary value that joins
                        # with itself, as in the memory evaluator.
                        conditions.append(f"{column} IS {locations[term][0]}")
                    else:
                        locations[term] = (column, offset + position)
            offset += atom.arity
        self.params: TypingTuple[Any, ...] = tuple(params)
        self.var_positions: Dict[Variable, int] = {
            var: row_index for var, (_, row_index) in locations.items()
        }
        select = ", ".join(select_items) if select_items else "1"
        where = " AND ".join(conditions) if conditions else "1"
        # The FROM lists join pre-quoted "identifier AS alias" parts built
        # above, so the composite slots are safe as a whole.
        sql = (f"SELECT {select}\n"
               f"  FROM {', '.join(tables)}\n"  # repro-lint: ignore[sql-quoting]
               f"  WHERE {where}")
        # Existence checks must not pay for a sort of the full join.
        self.exists_sql = (
            f"SELECT 1\n"
            f"  FROM {', '.join(tables)}\n"  # repro-lint: ignore[sql-quoting]
            f"  WHERE {where}\n  LIMIT 1")
        all_ordinals = [str(i + 1) for i in range(len(select_items))]
        if select_items:
            # Deterministic enumeration order (by ordinal, names repeat).
            sql += "\n  ORDER BY " + ", ".join(all_ordinals)
        self.sql = sql
        # Grouped variant: head columns lead the sort, so the rows of one
        # answer arrive contiguously and the consumer can stream groups with
        # no per-answer dictionary (SQLite does the grouping work).
        head_ordinals = [str(self.var_positions[term] + 1)
                         for term in query.head if isinstance(term, Variable)]
        grouped = (
            f"SELECT {select}\n"
            f"  FROM {', '.join(tables)}\n"  # repro-lint: ignore[sql-quoting]
            f"  WHERE {where}")
        if select_items:
            grouped += "\n  ORDER BY " + ", ".join(
                head_ordinals + all_ordinals)
        self.grouped_sql = grouped
        # Answer-set variant: GROUP BY the head columns inside SQL, so only
        # one row per answer is shipped to Python (no valuation decode).
        head_columns = [locations[term][0] for term in query.head
                        if isinstance(term, Variable)]
        if head_columns:
            self.answers_sql: Optional[str] = (
                f"SELECT {', '.join(head_columns)}\n"
                f"  FROM {', '.join(tables)}\n"  # repro-lint: ignore[sql-quoting]
                f"  WHERE {where}\n"
                f"  GROUP BY {', '.join(head_columns)}")
        else:
            # Boolean or all-constant head: the answer set is decided by
            # existence alone; there is nothing to group.
            self.answers_sql = None

    def decode(self, row: Sequence[Any]) -> Valuation:
        assignment = {var: row[idx] for var, idx in self.var_positions.items()}
        atom_tuples = [
            Tuple(atom.relation, tuple(row[off:off + atom.arity]))
            for atom, off in zip(self.query.atoms, self.atom_offsets)
        ]
        return Valuation(assignment, atom_tuples)

    def decode_head(self, row: Sequence[Any]) -> TypingTuple[Any, ...]:
        """The head (answer) tuple a full valuation row projects to."""
        values: List[Any] = []
        for term in self.query.head:
            if isinstance(term, Variable):
                values.append(row[self.var_positions[term]])
            else:
                assert isinstance(term, Constant)
                values.append(term.value)
        return tuple(values)


def valuation_sql(query: ConjunctiveQuery, respect_annotations: bool = True
                  ) -> str:
    """The SQL text of the valuation pass for ``query`` (constants as ``?``).

    Examples
    --------
    >>> from repro.relational import parse_query
    >>> print(valuation_sql(parse_query("q(x) :- R(x, y), S(y)")))
    SELECT t0.c0, t0.c1, t1.c0
      FROM "R" AS t0, "S" AS t1
      WHERE t1.c0 IS t0.c1
      ORDER BY 1, 2, 3
    """
    return _ValuationSQL(query, respect_annotations).sql


class SQLiteDatabase:
    """A :class:`Database` snapshot loaded into a SQLite connection.

    Parameters
    ----------
    database:
        The instance to load (tuples *and* endogenous/exogenous partition).
    path:
        SQLite database path; the default ``":memory:"`` keeps the instance
        in RAM, any file path writes an on-disk snapshot that outlives the
        process (inspectable with any SQLite tooling).  Loading is always a
        fresh snapshot: pointing ``path`` at a file that already holds
        tables raises :class:`BackendError` — use a new path (or delete the
        file) to re-load.
    extra_relations:
        Optional ``{relation: arity}`` of additional (empty) relations to
        create — rendered Datalog programs reference every EDB relation they
        mention, including ones that happen to be empty in the instance.

    Examples
    --------
    >>> from repro.relational import Database
    >>> db = Database()
    >>> _ = db.add_fact("R", "a3", "a3")
    >>> _ = db.add_fact("R", "a4", "a3", endogenous=False)
    >>> backend = SQLiteDatabase(db)
    >>> sorted(backend.connection.execute("SELECT c0 FROM R__endo"))
    [('a3',)]
    """

    def __init__(self, database: Database, path: str = ":memory:",
                 extra_relations: Optional[Mapping[str, int]] = None):
        self.source = database
        self.path = path
        self._arities: Dict[str, int] = {}
        self._connection = sqlite3.connect(path)
        self._load(database)
        for relation, arity in sorted((extra_relations or {}).items()):
            self.ensure_relation(relation, arity)

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    def _create_relation(self, relation: str, arity: int) -> None:
        from ..datalog.sql import default_column, partition_view_sql

        _check_relation_name(relation)
        columns = ", ".join(default_column(i) for i in range(arity))
        prefix = f"{columns}, " if columns else ""
        endo_view = f"{relation}__endo"
        exo_view = f"{relation}__exo"
        try:
            self._connection.execute(
                f"CREATE TABLE {quote_identifier(relation)} "
                f"({prefix}is_endogenous INTEGER NOT NULL)")
            if arity:
                self._connection.executescript(
                    partition_view_sql(relation, arity))
            else:
                # partition_view_sql has no column list to project for arity
                # 0; a constant column keeps the views well-formed.
                self._connection.executescript(
                    f"CREATE VIEW {quote_identifier(endo_view)} AS\n"
                    f"  SELECT 1 AS c0 FROM {quote_identifier(relation)} "
                    "WHERE is_endogenous;\n"
                    f"CREATE VIEW {quote_identifier(exo_view)} AS\n"
                    f"  SELECT 1 AS c0 FROM {quote_identifier(relation)} "
                    "WHERE NOT is_endogenous;")
            # One index per positional column: valuation SELECTs and delta
            # DELETEs constrain single positions with (NULL-safe) equality,
            # so probes stay O(matching rows) as the instance grows.
            for i in range(arity):
                index_name = f"{relation}__ix{i}"
                self._connection.execute(
                    f"CREATE INDEX {quote_identifier(index_name)} "
                    f"ON {quote_identifier(relation)} ({default_column(i)})")
        except sqlite3.Error as error:
            # Quoting makes keyword-named relations work; anything sqlite
            # still rejects surfaces as a typed error, not a raw sqlite3 one.
            raise BackendError(
                f"cannot create relation {relation!r} in SQLite: {error}"
            ) from error
        self._arities[relation] = arity

    def _load(self, database: Database) -> None:
        for relation in database.relations():
            tuples = database.tuples_of(relation)
            arities = {t.arity for t in tuples}
            if len(arities) != 1:
                raise BackendError(
                    f"relation {relation!r} holds tuples of mixed arity "
                    f"{sorted(arities)}; the SQLite layout needs one arity"
                )
            arity = arities.pop()
            self._create_relation(relation, arity)
            rows = []
            for tup in sorted(tuples):
                for value in tup.values:
                    _check_value(relation, value)
                rows.append(tuple(tup.values)
                            + (1 if database.is_endogenous(tup) else 0,))
            placeholders = ", ".join("?" for _ in range(arity + 1))
            self._connection.executemany(
                f"INSERT INTO {quote_identifier(relation)} "
                f"VALUES ({placeholders})", rows)
        self._connection.commit()

    def ensure_relation(self, relation: str, arity: int) -> None:
        """Create an empty ``relation`` (plus views) unless already loaded."""
        existing = self._arities.get(relation)
        if existing is not None:
            if existing != arity:
                raise BackendError(
                    f"relation {relation!r} already loaded with arity "
                    f"{existing}, cannot redeclare as arity {arity}"
                )
            return
        self._create_relation(relation, arity)
        self._connection.commit()

    # ------------------------------------------------------------------ #
    # in-place mutation (the incremental re-load path)
    # ------------------------------------------------------------------ #
    def _match_clause(self, tup: Tuple) -> TypingTuple[str, TypingTuple[Any, ...]]:
        """NULL-safe ``WHERE`` clause matching exactly this tuple's row."""
        from ..datalog.sql import default_column

        conditions = [f"{default_column(i)} IS ?" for i in range(tup.arity)]
        return " AND ".join(conditions) if conditions else "1", \
            tuple(tup.values)

    def apply_delta(self, delta: "DatabaseDelta") -> None:
        """Apply a recorded change to the loaded tables **in place**.

        Deletes first, then inserts; inserting a row already present updates
        its ``is_endogenous`` flag (upsert), matching
        :meth:`~repro.relational.delta.DatabaseDelta.apply_to`.  Relations
        the snapshot has never seen are created on the fly.  The original
        ``source`` :class:`Database` is *not* touched — the
        :class:`~repro.relational.session.SQLiteSession` seam keeps the two
        sides in sync.

        Examples
        --------
        >>> from repro.relational import Database
        >>> from repro.relational.delta import DatabaseDelta
        >>> db = Database()
        >>> _ = db.add_fact("R", "a", "b")
        >>> backend = SQLiteDatabase(db)
        >>> backend.apply_delta(DatabaseDelta(
        ...     inserts=[Tuple("R", ("c", "d"))],
        ...     deletes=[Tuple("R", ("a", "b"))]))
        >>> sorted(backend.execute_sql("SELECT c0, c1 FROM R"))
        [('c', 'd')]
        """
        # Validate everything up front, then create any missing relations
        # (pure additions — harmless if a later step fails), and only then
        # touch rows: a rejected delta must leave the loaded data intact,
        # so sessions can mutate backend-first without desyncing.
        for tup, _ in delta.insert_items():
            for value in tup.values:
                _check_value(tup.relation, value)
        for tup, _ in delta.insert_items():
            self.ensure_relation(tup.relation, tup.arity)
        for tup in sorted(delta.delete_tuples()):
            arity = self._arities.get(tup.relation)
            if arity is None or arity != tup.arity:
                continue  # nothing to delete in this layout
            where, params = self._match_clause(tup)
            self._connection.execute(
                f"DELETE FROM {quote_identifier(tup.relation)} "
                f"WHERE {where}", params)
        for tup, endogenous in delta.insert_items():
            where, params = self._match_clause(tup)
            self._connection.execute(
                f"DELETE FROM {quote_identifier(tup.relation)} "
                f"WHERE {where}", params)
            placeholders = ", ".join("?" for _ in range(tup.arity + 1))
            self._connection.execute(
                f"INSERT INTO {quote_identifier(tup.relation)} "
                f"VALUES ({placeholders})",
                tuple(tup.values) + (1 if endogenous else 0,))
        self._connection.commit()

    def set_all_exogenous(self) -> None:
        """Flip every loaded tuple exogenous (one ``UPDATE`` per relation).

        This is the Why-No construction step: the real database becomes pure
        context (``Dx``) before the candidate insertions arrive as the
        endogenous ``Dn`` — without re-loading the instance.
        """
        for relation in sorted(self._arities):
            self._connection.execute(
                f"UPDATE {quote_identifier(relation)} SET is_endogenous = 0 "
                "WHERE is_endogenous")
        self._connection.commit()

    # ------------------------------------------------------------------ #
    # access / execution
    # ------------------------------------------------------------------ #
    @property
    def connection(self) -> sqlite3.Connection:
        return self._connection

    def relations(self) -> FrozenSet[str]:
        return frozenset(self._arities)

    def arity_of(self, relation: str) -> int:
        return self._arities[relation]

    def execute_program(self, program, target: Optional[str] = None
                        ) -> FrozenSet[TypingTuple[Any, ...]]:
        """Run a Datalog program via :func:`program_to_sql`; rows of ``target``."""
        from ..datalog.sql import program_to_sql

        return self.execute_sql(program_to_sql(program, target=target))

    def cause_tuples(self, program) -> FrozenSet[Tuple]:
        """Run every ``Cause_R`` query of a cause program; causes as tuples."""
        from ..datalog.sql import cause_program_sql

        causes: Set[Tuple] = set()
        for relation, statement in cause_program_sql(program).items():
            source = relation[len("Cause_"):]
            for row in self.execute_sql(statement):
                causes.add(Tuple(source, row))
        return frozenset(causes)

    def execute_sql(self, sql: str, params: Sequence[Any] = ()
                    ) -> FrozenSet[TypingTuple[Any, ...]]:
        """Execute one rendered statement; the result set as row tuples.

        Examples
        --------
        >>> from repro.relational import Database
        >>> db = Database()
        >>> _ = db.add_fact("R", "a", "b")
        >>> backend = SQLiteDatabase(db)
        >>> sorted(backend.execute_sql("SELECT c0, c1 FROM R"))
        [('a', 'b')]
        """
        try:
            cursor = self._connection.execute(sql, tuple(params))
        except sqlite3.Error as error:
            raise BackendError(
                f"SQL execution failed ({error}); statement was:\n{sql}"
            ) from error
        return frozenset(tuple(row) for row in cursor)

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "SQLiteDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"SQLiteDatabase({len(self._arities)} relations at "
                f"{self.path!r})")


class SQLiteEvaluator:
    """Drop-in for :class:`QueryEvaluator` that runs the valuation pass in SQL.

    The interface mirrors :class:`~repro.relational.evaluation.QueryEvaluator`
    (``valuations`` / ``holds`` / ``answers``), so
    :class:`~repro.engine.batch.BatchExplainer` can swap it in unchanged; the
    cross-engine property suite pins the outputs to be identical.

    Parameters
    ----------
    database:
        The instance to evaluate against (snapshotted at construction).
    respect_annotations:
        As in :class:`QueryEvaluator`: ``Rⁿ`` / ``Rˣ`` atoms read the
        ``__endo`` / ``__exo`` partition views instead of the base table.
    path:
        Passed to :class:`SQLiteDatabase` — ``":memory:"`` (default) or an
        on-disk path.
    backend:
        An already-loaded :class:`SQLiteDatabase` to reuse (``path`` is then
        ignored).

    Examples
    --------
    >>> from repro.relational import Database, parse_query
    >>> db = Database()
    >>> for x, y in [("a1", "a5"), ("a2", "a1"), ("a4", "a3")]:
    ...     _ = db.add_fact("R", x, y)
    >>> for y in ["a1", "a3"]:
    ...     _ = db.add_fact("S", y)
    >>> evaluator = SQLiteEvaluator(db)
    >>> sorted(evaluator.answers(parse_query("q(x) :- R(x, y), S(y)")))
    [('a2',), ('a4',)]
    """

    _RENDER_CACHE_SIZE = 256

    def __init__(self, database: Database, respect_annotations: bool = True,
                 path: str = ":memory:",
                 backend: Optional[SQLiteDatabase] = None):
        from collections import OrderedDict

        self.database = database
        self.respect_annotations = respect_annotations
        self.backend = backend if backend is not None \
            else SQLiteDatabase(database, path=path)
        # LRU-bounded: a long-lived session refreshing many deltas renders
        # one ground residual query per (changed tuple, atom) pair, so an
        # unbounded memo would grow with the session's lifetime.
        self._rendered: "OrderedDict[ConjunctiveQuery, _ValuationSQL]" = \
            OrderedDict()

    def _render(self, query: ConjunctiveQuery) -> _ValuationSQL:
        rendered = self._rendered.get(query)
        if rendered is None:
            rendered = _ValuationSQL(query, self.respect_annotations)
            self._rendered[query] = rendered
            if len(self._rendered) > self._RENDER_CACHE_SIZE:
                self._rendered.popitem(last=False)
        else:
            self._rendered.move_to_end(query)
        return rendered

    def _executable(self, query: ConjunctiveQuery) -> bool:
        """A query touching an unloaded relation has no valuations at all."""
        loaded = self.backend.relations()
        return all(atom.relation in loaded for atom in query.atoms)

    # ------------------------------------------------------------------ #
    def valuations(self, query: ConjunctiveQuery) -> Iterator[Valuation]:
        """Yield every valuation of ``query``, enumerated by SQLite.

        Rows are **streamed** off the cursor — nothing is fetched eagerly,
        so a consumer that stops early (or aggregates on the fly) never
        materialises the full join result in Python.
        """
        if not self._executable(query):
            return
        rendered = self._render(query)
        cursor = self.backend.connection.execute(rendered.sql, rendered.params)
        for row in cursor:
            yield rendered.decode(row)

    def grouped_valuations(
        self, query: ConjunctiveQuery
    ) -> Iterator[TypingTuple[TypingTuple[Any, ...], List[Valuation]]]:
        """Yield ``(answer, [valuations])`` with the grouping done in SQL.

        The head columns lead the ``ORDER BY`` of the valuation query, so
        each answer's rows arrive contiguously and are sliced off the
        streamed cursor run by run — no per-answer dictionary, no second
        pass.  This is the backend-side grouping the batch engines build
        their per-answer lineages on.

        Examples
        --------
        >>> from repro.relational import Database, parse_query
        >>> db = Database()
        >>> for x, y in [("a2", "a1"), ("a4", "a3")]:
        ...     _ = db.add_fact("R", x, y)
        >>> for y in ["a1", "a3"]:
        ...     _ = db.add_fact("S", y)
        >>> evaluator = SQLiteEvaluator(db)
        >>> for answer, group in evaluator.grouped_valuations(
        ...         parse_query("q(x) :- R(x, y), S(y)")):
        ...     print(answer, len(group))
        ('a2',) 1
        ('a4',) 1
        """
        if not self._executable(query):
            return
        rendered = self._render(query)
        cursor = self.backend.connection.execute(
            rendered.grouped_sql, rendered.params)
        current_head: Optional[TypingTuple[Any, ...]] = None
        group: List[Valuation] = []
        for row in cursor:
            head = rendered.decode_head(row)
            if head != current_head:
                if current_head is not None:
                    yield current_head, group
                current_head, group = head, []
            group.append(rendered.decode(row))
        if current_head is not None:
            yield current_head, group

    def valuations_blocks(
        self, query: ConjunctiveQuery
    ) -> Dict[TypingTuple[Any, ...], List[FrozenSet[Tuple]]]:
        """The full pass as ``{answer: [conjuncts]}`` — the batch engines'
        group shape — off the head-sorted :meth:`grouped_valuations` cursor.
        """
        return {
            head: [valuation.tuples() for valuation in group]
            for head, group in self.grouped_valuations(query)
        }

    def holds(self, query: ConjunctiveQuery) -> bool:
        """``D ⊨ q`` for a Boolean query: unordered ``SELECT 1 ... LIMIT 1``."""
        if not self._executable(query):
            return False
        rendered = self._render(query)
        cursor = self.backend.connection.execute(
            rendered.exists_sql, rendered.params)
        return cursor.fetchone() is not None

    def answers(self, query: ConjunctiveQuery
                ) -> FrozenSet[TypingTuple[Any, ...]]:
        """The answer relation of a non-Boolean query (set of head tuples).

        Runs the ``GROUP BY`` head-columns variant of the valuation query,
        so SQLite ships one row per *answer* instead of one row per
        valuation — the difference between ``|answers|`` and ``|join|``
        rows crossing the boundary.
        """
        if not self._executable(query):
            return frozenset()
        rendered = self._render(query)
        if rendered.answers_sql is None:
            # No head variables: the (possibly constant) head is an answer
            # iff any valuation exists.
            if not self.holds(query.as_boolean()):
                return frozenset()
            return frozenset({tuple(term.value for term in query.head)})
        head_terms = [t for t in query.head if isinstance(t, Variable)]
        results: Set[TypingTuple[Any, ...]] = set()
        cursor = self.backend.connection.execute(
            rendered.answers_sql, rendered.params)
        for row in cursor:
            grouped = dict(zip(head_terms, row))
            results.add(tuple(
                grouped[term] if isinstance(term, Variable) else term.value
                for term in query.head))
        return frozenset(results)

    def __repr__(self) -> str:
        return f"SQLiteEvaluator({self.backend!r})"
