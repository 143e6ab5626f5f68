"""Unit tests for the lineage inverted index and the fixes riding with it.

The property suite (``tests/property/test_delta_streams.py``) pins the
end-to-end contract (stream ≡ sequential ≡ scratch, index parity across
backends); here the pieces are pinned in isolation:

* the index's probe / re-index / drop contract on hand-built groups, on
  the index an engine of either backend builds;
* memory- and SQLite-backed engines maintain equal indexes, and several
  engines can share one SQLite session;
* only the backend's own object names are reserved, so a relation named
  like the retired ``__lineage_index_<rel>`` tables loads on both backends;
* a no-op delta does **zero** cache work (the invalidation used to run
  before the emptiness check);
* mixed-type tuple values cannot break the deterministic re-derivation
  order of ``_delta_valuations``.
"""

import pytest

from repro.engine import BatchExplainer, LineageIndex
from repro.exceptions import BackendError
from repro.relational import Database, DatabaseDelta, parse_query
from repro.relational.session import open_session
from repro.relational.sqlite_backend import (
    SQLiteDatabase,
    _check_relation_name,
)
from repro.relational.tuples import Tuple

QUERY = parse_query("q(x) :- R(x, y), S(y)")


def small_groups():
    r1, r2 = Tuple("R", ("a", "b")), Tuple("R", ("c", "b"))
    s = Tuple("S", ("b",))
    groups = {("a",): [frozenset({r1, s})],
              ("c",): [frozenset({r2, s})]}
    return r1, r2, s, groups


def engine_index(backend, groups):
    """The index an engine on ``backend`` holds after its full pass over the
    tuples of ``groups`` — for :func:`small_groups` that pass yields exactly
    ``groups``, so the index arrives populated through the engine's path."""
    db = Database()
    for conjuncts in groups.values():
        for conjunct in conjuncts:
            for tup in conjunct:
                db.add(tup)
    explainer = BatchExplainer(QUERY, db, backend=backend)
    explainer.answers()
    return explainer.lineage_index


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
class TestIndexContract:
    def test_rebuild_and_probe(self, backend):
        r1, r2, s, groups = small_groups()
        index = engine_index(backend, groups)
        index.rebuild(groups)
        assert index.answers_with([s]) == {("a",), ("c",)}
        assert index.answers_with([r2]) == {("c",)}
        assert index.answers_with([Tuple("R", ("zz", "zz"))]) == set()
        assert index.answers_with([]) == set()
        assert len(index) == 2
        assert index.tuples_of(("a",)) == frozenset({r1, s})

    def test_index_answer_diffs_postings(self, backend):
        r1, r2, s, groups = small_groups()
        index = engine_index(backend, groups)
        index.rebuild(groups)
        # ("c",) loses r2, gains r1: postings must follow the diff.
        index.index_answer(("c",), [frozenset({r1, s})])
        assert index.answers_with([r2]) == set()
        assert index.answers_with([r1]) == {("a",), ("c",)}

    def test_drop_answer(self, backend):
        r1, r2, s, groups = small_groups()
        index = engine_index(backend, groups)
        index.rebuild(groups)
        index.drop_answer(("a",))
        assert index.answers_with([r1]) == set()
        assert index.answers_with([s]) == {("c",)}
        assert len(index) == 1
        assert index.tuples_of(("a",)) == frozenset()

    def test_snapshot_shape(self, backend):
        r1, r2, s, groups = small_groups()
        index = engine_index(backend, groups)
        index.rebuild(groups)
        snapshot = index.snapshot()
        assert snapshot[s] == frozenset({("a",), ("c",)})
        assert snapshot[r1] == frozenset({("a",)})


def fixture_instance():
    db = Database()
    for x, y in [("a1", "a5"), ("a2", "a1"), ("a3", "a3"), ("a4", "a3"),
                 ("a4", "a2")]:
        db.add_fact("R", x, y)
    for y in ["a1", "a2", "a3", "a4", "a6"]:
        db.add_fact("S", y)
    return db


def test_backends_build_identical_snapshots():
    """Memory- and SQLite-backed engines hold equal indexes after one stream."""
    db = fixture_instance()
    deltas = [
        DatabaseDelta(inserts=[Tuple("R", ("a6", "a6"))],
                      deletes=[Tuple("S", ("a3",))]),
        DatabaseDelta(inserts=[Tuple("S", ("a5",))],
                      deletes=[Tuple("R", ("a2", "a1"))]),
    ]
    snapshots = []
    for backend in ("memory", "sqlite"):
        explainer = BatchExplainer(QUERY, db.copy(), backend=backend)
        explainer.explain_all()
        explainer.refresh_all(deltas)
        assert isinstance(explainer.lineage_index, LineageIndex)
        snapshots.append(explainer.lineage_index.snapshot())
    assert snapshots[0] == snapshots[1]
    assert snapshots[0][Tuple("S", ("a5",))] == frozenset({("a1",)})


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_two_explainers_share_one_session(backend):
    """Regression: a second engine on a SQLite session used to fail creating
    the index tables the first engine had already created there."""
    db = fixture_instance()
    by_x = parse_query("q(x) :- R(x, y), S(y)")
    by_y = parse_query("q(y) :- R(x, y), S(y)")
    with open_session(db, backend=backend) as session:
        first = BatchExplainer(by_x, db, session=session)
        second = BatchExplainer(by_y, db, session=session)
        assert first.answers() == [("a2",), ("a3",), ("a4",)]
        assert second.answers() == [("a1",), ("a2",), ("a3",)]
        assert first.lineage_index is not second.lineage_index


class TestReservedNames:
    """Tables and indexes share SQLite's namespace: the loader must reject
    relation names that could collide with the backend's own objects."""

    @pytest.mark.parametrize("name", ["R__ix0", "Movie__ix12"])
    def test_reserved_shapes_rejected(self, name):
        with pytest.raises(BackendError):
            _check_relation_name(name)
        db = Database()
        db.add_fact(name, "a")
        with pytest.raises(BackendError):
            SQLiteDatabase(db)

    def test_ordinary_names_still_pass(self):
        for name in ("R", "lineage_index", "Movie_ix", "R__ixx", "ix0"):
            _check_relation_name(name)

    @pytest.mark.parametrize("name", ["__lineage_index", "__lineage_index_R"])
    def test_lineage_index_name_is_an_ordinary_relation(self, name):
        """Regression: the retired index tables' names load on SQLite as on
        memory."""
        db = Database()
        db.add_fact(name, "a", "b")
        db.add_fact(name, "c", "d")
        db.add_fact("S", "b")
        query = parse_query(f"q(x) :- {name}(x, y), S(y)")
        answers = [BatchExplainer(query, db, backend=backend).answers()
                   for backend in ("memory", "sqlite")]
        assert answers[0] == answers[1] == [("a",)]


class TestNoOpDeltaDoesNoCacheWork:
    """Regression: ``refresh`` used to invalidate the cache *before* finding
    out the delta changed nothing."""

    def test_noop_stream_skips_invalidation(self, monkeypatch):
        db = Database()
        db.add_fact("R", "a", "b")
        db.add_fact("S", "b")
        explainer = BatchExplainer(QUERY, db)
        explainer.explain_all()
        calls = []
        original = explainer.cache.invalidate_tuples
        monkeypatch.setattr(explainer.cache, "invalidate_tuples",
                            lambda tuples: calls.append(tuples) or
                            original(tuples))
        noop = DatabaseDelta(deletes=[Tuple("S", ("absent",))])
        for report in (explainer.refresh(noop),
                       explainer.refresh_all([noop, noop])):
            assert report.changed_tuples == frozenset()
            assert not report.full_reset and not report.stale
        assert calls == []

    def test_empty_stream_is_free(self):
        db = Database()
        db.add_fact("R", "a", "b")
        explainer = BatchExplainer(QUERY, db)
        report = explainer.refresh_all([])
        assert report.changed_tuples == frozenset() and not report.full_reset


class TestMixedTypeValues:
    """Regression: the re-derivation pass sorts the changed tuples with the
    type-tolerant ``Tuple.sort_key`` (the why-no path's ordering), so one
    relation holding strings *and* ints cannot break refresh."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_refresh_with_mixed_type_tuples(self, backend):
        db = Database()
        db.add_fact("R", "a", 1)
        db.add_fact("R", 2, 1)
        db.add_fact("S", 1)
        explainer = BatchExplainer(QUERY, db, backend=backend)
        explainer.explain_all()
        delta = DatabaseDelta(inserts=[Tuple("R", (b"t3", 1)),
                                       Tuple("R", ("z", 1))],
                              deletes=[Tuple("R", ("a", 1))])
        report = explainer.refresh(delta)
        assert not report.full_reset
        refreshed = explainer.explain_all()
        scratch = BatchExplainer(QUERY, db.copy(),
                                 backend=backend).explain_all()
        assert list(refreshed) == list(scratch)
        for answer in scratch:
            assert [(c.tuple, c.responsibility) for c in
                    refreshed[answer].ranked()] == \
                [(c.tuple, c.responsibility) for c in
                 scratch[answer].ranked()]


class TestEngineIndexLifecycle:
    def test_index_built_by_full_pass_and_reset_lazily(self):
        db = Database()
        db.add_fact("R", "a", "b")
        db.add_fact("S", "b")
        explainer = BatchExplainer(QUERY, db)
        assert explainer.lineage_index is None
        explainer.explain_all()
        index = explainer.lineage_index
        assert index is not None and len(index) == 1
        # A pre-full-pass refresh (after a lazy reset) reports full_reset
        # and leaves no stale index behind.
        explainer._reset_lazy()
        assert explainer.lineage_index is None
        report = explainer.refresh(DatabaseDelta(
            deletes=[Tuple("S", ("b",))]))
        assert report.full_reset
        assert explainer.lineage_index is None
        assert explainer.explain_all() == {}
