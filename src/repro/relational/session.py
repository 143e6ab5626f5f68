"""Backend sessions: load once, hand out snapshots, mutate in place.

Before this seam existed every engine construction re-loaded its instance
into the execution backend (the Why-No path even loaded the same real
database into SQLite twice), and any database change forced a from-scratch
rebuild.  A :class:`BackendSession` owns one loaded instance and exposes the
three operations the batch engines need:

* :attr:`~BackendSession.evaluator` — a query evaluator over the loaded
  instance, with one interface on both backends (``valuations_blocks``
  for the full pass, ``valuations`` / ``holds`` / ``answers`` per query);
* :meth:`~BackendSession.snapshot` — the reusable loaded form (the
  :class:`~repro.relational.sqlite_backend.SQLiteDatabase` for SQLite, the
  :class:`~repro.relational.database.Database` itself for memory), so
  several consumers share one load;
* :meth:`~BackendSession.apply_delta` — apply a recorded
  :class:`~repro.relational.delta.DatabaseDelta`, mutating both the Python
  instance and the backend state **in place** (SQLite issues ``DELETE`` /
  upsert statements instead of re-loading).

Both backends implement the same interface, so the delta-aware engines
(:meth:`repro.engine.BatchExplainer.refresh`,
:meth:`repro.engine.WhyNoBatchExplainer.refresh`) are backend-agnostic.  The
lineage inverted index those refreshes probe is not part of the seam: the
valuation groups it is built from are Python data on both backends, so the
engines keep one :class:`~repro.engine.lineage_index.LineageIndex` of their
own whichever session they run on.  Nor is Why-No candidate generation: the
one generator of :mod:`repro.lineage.whyno` reads the Python-side
:class:`~repro.relational.database.Database` every session keeps, and the
seam only turns the real-database session into the combined-instance one
(:meth:`~BackendSession.into_whyno_combined`).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional

from ..exceptions import CausalityError
from .database import Database
from .delta import DatabaseDelta
from .evaluation import QueryEvaluator
from .tuples import Tuple


class BackendSession:
    """Abstract base: one loaded instance plus in-place delta application.

    Subclasses set :attr:`backend_name` and implement :attr:`evaluator`,
    :meth:`snapshot` and :meth:`_apply_backend_delta`.  The session keeps
    ``self.database`` (the Python-side :class:`Database`) authoritative and
    in sync with whatever the backend loaded — :meth:`apply_delta` mutates
    both sides.
    """

    backend_name: str = "abstract"

    def __init__(self, database: Database,
                 respect_annotations: bool = True) -> None:
        self.database = database
        self.respect_annotations = respect_annotations

    # -- interface ------------------------------------------------------- #
    @property
    def evaluator(self) -> Any:
        """A ``valuations``/``holds``/``answers`` evaluator over the instance."""
        raise NotImplementedError

    def snapshot(self) -> Any:
        """The reusable loaded form of the instance (share, don't re-load)."""
        raise NotImplementedError

    def fanout_snapshot(self) -> Database:
        """A read-only handle for fan-out workers: the Python-side instance.

        This is what the parallel fan-out ships to (or lets be inherited by)
        its workers alongside the pre-grouped valuations.  For the memory
        backend it *is* :meth:`snapshot`; for SQLite it is deliberately the
        Python-side :class:`Database` rather than the loaded connection —
        workers never re-run the valuation pass (the parent already grouped
        it), so they need the partition lookups and relation scans of the
        plain instance, not a second backend load.  Workers must treat the
        handle as read-only: under the fork transport it is shared
        copy-on-write with the parent.

        Examples
        --------
        >>> from repro.relational import Database
        >>> db = Database()
        >>> MemorySession(db).fanout_snapshot() is db
        True
        >>> SQLiteSession(db).fanout_snapshot() is db
        True
        """
        return self.database

    def into_whyno_combined(self, combined: Database,
                            candidates: FrozenSet[Tuple]) -> "BackendSession":
        """Turn this real-database session into one over the combined instance.

        ``combined`` is the Why-No instance (every real tuple exogenous, the
        ``candidates`` inserted endogenous) already built on the Python side;
        the returned session serves the shared valuation pass over it.  The
        SQLite backend mutates its one load in place (flip the real tuples
        exogenous, insert the candidates) instead of loading twice; this
        session must not be used for the real database afterwards.
        """
        raise NotImplementedError

    def _apply_backend_delta(self, delta: DatabaseDelta) -> None:
        """Propagate an already-validated delta into the backend state."""
        raise NotImplementedError

    def _after_apply(self, changed: FrozenSet[Tuple]) -> None:
        """Hook run after the Python-side database has been mutated.

        ``changed`` is the delta's invalidation set, so a subclass can patch
        derived state (e.g. evaluator indexes) per tuple instead of
        rebuilding it.
        """

    # -- shared behaviour ------------------------------------------------ #
    def apply_delta(self, delta: DatabaseDelta) -> FrozenSet[Tuple]:
        """Apply ``delta`` to the live instance; returns the changed tuples.

        The returned set is ``delta.changed_tuples`` as seen *before*
        application — the exact invalidation set for incremental
        re-explanation (no-op deletes and flag-preserving inserts excluded).

        Validation runs on both sides before either mutates: the Python
        schema check first, then the backend application (which itself
        validates values/arities before touching rows), then the Python
        mutation — so a rejected delta, whichever side rejects it, leaves a
        caller that catches the error with a consistent session.
        """
        delta.validate_against(self.database)
        changed = delta.changed_tuples(self.database)
        self._apply_backend_delta(delta)
        delta.apply_to(self.database)
        self._after_apply(changed)
        return changed

    def describe(self) -> Dict[str, Any]:
        """A small status payload for monitoring: backend plus instance size.

        The explanation service reports this per resident session; keeping it
        on the seam means a new backend gets monitoring for free.

        Examples
        --------
        >>> db = Database()
        >>> _ = db.add_fact("R", "a", "b")
        >>> payload = MemorySession(db).describe()
        >>> payload["backend"], payload["tuples"], payload["endogenous"]
        ('memory', 1, 1)
        """
        return {
            "backend": self.backend_name,
            "relations": len(self.database.relations()),
            "tuples": len(self.database),
            "endogenous": len(self.database.endogenous_tuples()),
        }

    def close(self) -> None:
        """Release backend resources (no-op for the in-memory backend)."""

    def __enter__(self) -> "BackendSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.database!r}, "
                f"backend={self.backend_name!r})")


class MemorySession(BackendSession):
    """The in-memory backend: the instance *is* the snapshot.

    ``apply_delta`` mutates the :class:`Database` and patches the live
    evaluator's per-relation hash indexes tuple by tuple
    (:meth:`~repro.relational.evaluation.QueryEvaluator.apply_changes`),
    so the cost of keeping the evaluator current is proportional to the
    delta, never to the instance.

    Examples
    --------
    >>> from repro.relational import Database, parse_query
    >>> db = Database()
    >>> _ = db.add_fact("R", "a", "b")
    >>> session = MemorySession(db)
    >>> _ = session.apply_delta(DatabaseDelta(inserts=[Tuple("S", ("b",))]))
    >>> session.evaluator.holds(parse_query("q :- R(x, y), S(y)"))
    True
    """

    backend_name = "memory"

    def __init__(self, database: Database,
                 respect_annotations: bool = True) -> None:
        super().__init__(database, respect_annotations)
        self._evaluator = QueryEvaluator(
            database, respect_annotations=respect_annotations)

    @property
    def evaluator(self) -> QueryEvaluator:
        return self._evaluator

    def snapshot(self) -> Database:
        return self.database

    def into_whyno_combined(self, combined: Database,
                            candidates: FrozenSet[Tuple]) -> "BackendSession":
        return MemorySession(combined)

    def _apply_backend_delta(self, delta: DatabaseDelta) -> None:
        """Nothing to pre-apply: the instance *is* the backend state."""

    def _after_apply(self, changed: FrozenSet[Tuple]) -> None:
        # The indexes cache tuple sets per (relation, status); membership is
        # recomputed only for the changed tuples, keeping both the evaluator
        # object and its lazily built position indexes alive.
        self._evaluator.apply_changes(changed)


class SQLiteSession(BackendSession):
    """The SQLite backend: one load, mutated in place by deltas.

    Parameters
    ----------
    database:
        The Python-side instance (stays authoritative for partition lookups).
    path:
        As in :class:`~repro.relational.sqlite_backend.SQLiteDatabase`.
    backend:
        An already-loaded ``SQLiteDatabase`` to adopt instead of loading
        fresh — this is how the Why-No engine turns the real database's load
        into the combined-instance load without a second pass.

    Examples
    --------
    >>> from repro.relational import Database, parse_query
    >>> db = Database()
    >>> _ = db.add_fact("R", "a", "b")
    >>> session = SQLiteSession(db)
    >>> _ = session.apply_delta(DatabaseDelta(inserts=[Tuple("S", ("b",))]))
    >>> session.evaluator.holds(parse_query("q :- R(x, y), S(y)"))
    True
    """

    backend_name = "sqlite"

    def __init__(self, database: Database, respect_annotations: bool = True,
                 path: str = ":memory:",
                 backend: Optional[Any] = None) -> None:
        from .sqlite_backend import SQLiteDatabase, SQLiteEvaluator

        super().__init__(database, respect_annotations)
        self.sqlite = backend if backend is not None \
            else SQLiteDatabase(database, path=path)
        self._evaluator = SQLiteEvaluator(
            database, respect_annotations=respect_annotations,
            backend=self.sqlite)

    @property
    def evaluator(self) -> Any:
        return self._evaluator

    def snapshot(self) -> Any:
        return self.sqlite

    def into_whyno_combined(self, combined: Database,
                            candidates: FrozenSet[Tuple]) -> "BackendSession":
        # One load serves the whole Why-No construction: the real-database
        # snapshot is mutated in place into the combined instance instead of
        # a second from-scratch load.
        self.sqlite.set_all_exogenous()
        self.sqlite.apply_delta(DatabaseDelta(
            inserts=[(tup, True) for tup in sorted(candidates)
                     if not self.database.contains(tup)]))
        return SQLiteSession(combined, backend=self.sqlite)

    def _apply_backend_delta(self, delta: DatabaseDelta) -> None:
        self.sqlite.apply_delta(delta)

    def close(self) -> None:
        self.sqlite.close()


def open_session(database: Database, backend: str = "memory",
                 respect_annotations: bool = True,
                 path: str = ":memory:") -> BackendSession:
    """Open a :class:`BackendSession` over ``database`` for a named backend.

    Examples
    --------
    >>> from repro.relational import Database
    >>> session = open_session(Database(), backend="memory")
    >>> session.backend_name
    'memory'
    """
    if backend == "memory":
        return MemorySession(database, respect_annotations=respect_annotations)
    if backend == "sqlite":
        return SQLiteSession(database, respect_annotations=respect_annotations,
                             path=path)
    raise CausalityError(f"unknown backend {backend!r}")
