"""Unit tests for delta-aware refresh: reports, caches, sessions, API.

The randomized refresh ≡ from-scratch contract lives in
``tests/property/test_incremental.py``; here the individual moving parts are
pinned on hand-built instances — what a :class:`RefreshReport` says, which
:class:`LineageCache` entries a change drops (including the exogenous-delete
regression), and how :class:`ExplanationSession` coordinates one delta
across both live engines.
"""

import pytest

from repro.core import ExplanationSession
from repro.core.responsibility import CodedLineage
from repro.engine import BatchExplainer, LineageCache, WhyNoBatchExplainer
from repro.lineage.boolean_expr import PositiveDNF
from repro.relational import Database, DatabaseDelta, parse_query
from repro.relational.tuples import Tuple

QUERY = parse_query("q(x) :- R(x, y), S(y)")


def ranking(explanation):
    return [(c.tuple, c.responsibility, c.contingency)
            for c in explanation.ranked()]


def two_answer_db():
    db = Database()
    for x, y in [("a2", "a1"), ("a4", "a3"), ("a4", "a2")]:
        db.add_fact("R", x, y)
    for y in ["a1", "a2", "a3"]:
        db.add_fact("S", y)
    return db


class TestRefreshReport:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_untouched_answers_keep_their_explanations(self, backend):
        db = two_answer_db()
        explainer = BatchExplainer(QUERY, db, backend=backend)
        before = explainer.explain_all()
        report = explainer.refresh(DatabaseDelta(
            deletes=[Tuple("R", ("a4", "a2"))]))
        assert report.stale == {("a4",)}
        assert not report.new_answers and not report.removed_answers
        # The untouched answer's Explanation object is literally reused.
        assert explainer.explain(("a2",)) is before[("a2",)]
        assert ranking(explainer.explain(("a4",))) != ranking(before[("a4",)])

    def test_insert_creates_new_answer_and_delete_removes_one(self):
        db = two_answer_db()
        explainer = BatchExplainer(QUERY, db)
        explainer.explain_all()
        report = explainer.refresh(DatabaseDelta(
            inserts=[Tuple("R", ("a9", "a1"))],
            deletes=[Tuple("R", ("a2", "a1"))]))
        assert report.new_answers == {("a9",)}
        assert report.removed_answers == {("a2",)}
        assert sorted(explainer.answers()) == [("a4",), ("a9",)]
        with pytest.raises(Exception):
            explainer.explain(("a2",))

    def test_noop_delta_changes_nothing(self):
        db = two_answer_db()
        explainer = BatchExplainer(QUERY, db)
        before = explainer.explain_all()
        report = explainer.refresh(DatabaseDelta(
            deletes=[Tuple("R", ("zz", "zz"))],
            inserts=[(Tuple("S", ("a1",)), True)]))  # already present, same flag
        assert not report.changed_tuples and not report.full_reset
        assert all(explainer.explain(a) is before[a] for a in before)

    def test_partition_flip_marks_touched_answer_stale(self):
        db = two_answer_db()
        explainer = BatchExplainer(QUERY, db)
        before = explainer.explain_all()
        report = explainer.refresh(DatabaseDelta(
            inserts=[(Tuple("S", ("a1",)), False)]))  # endo -> exo flip
        assert report.changed_tuples == {Tuple("S", ("a1",))}
        assert ("a2",) in report.stale
        # A flip rewrites the answer's whole group, but the answer existed
        # before and after: it must not be reported as new (or removed).
        assert not report.new_answers and not report.removed_answers
        refreshed = explainer.explain(("a2",))
        assert Tuple("S", ("a1",)) not in [c.tuple for c in refreshed.ranked()]
        assert before  # silence lint: baseline kept for contrast


    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_annotated_query_keeps_untouched_flow_answers(self, backend):
        """The flow engine reads the annotation-respecting groups, so a
        delta outside every group leaves every ``auto`` memo in place."""
        query = parse_query("q(x) :- R^n(x, y), S^x(y, z), T(z, w)")
        db = Database()
        for x, y in [(0, 0), (0, 2), (1, 0), (1, 2)]:
            db.add_fact("R", x, y)
        for y, z in [(0, 2), (1, 0), (2, 0), (2, 1), (2, 2)]:
            db.add_fact("S", y, z, endogenous=(y, z) not in {(1, 0), (2, 2)})
        for z, w in [(0, 2), (1, 2), (2, 0)]:
            db.add_fact("T", z, w)
        explainer = BatchExplainer(query, db, backend=backend)
        before = explainer.explain_all()
        # An endogenous S tuple joins no ``S^x`` atom.
        report = explainer.refresh(DatabaseDelta(
            inserts=[(Tuple("S", (1, 1)), True)]))
        assert report.changed_tuples == {Tuple("S", (1, 1))}
        assert report.stale == frozenset()
        assert all(explainer.explain(a) is before[a] for a in before)
        fresh = BatchExplainer(query, db.copy()).explain_all()
        assert {a: ranking(e) for a, e in fresh.items()} \
            == {a: ranking(e) for a, e in before.items()}


class TestExogenousDeleteRegression:
    """A delta deleting from the *exogenous* partition must invalidate too.

    The answer below holds through a purely exogenous witness, so every
    cause has responsibility 0; deleting that exogenous witness makes the
    endogenous witness counterfactual.  A refresh keying its invalidation on
    endogenous tuples only would keep serving the stale empty ranking.
    """

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("method", ["exact", "auto"])
    def test_deleting_exogenous_witness_updates_responsibilities(
            self, backend, method):
        db = Database()
        db.add_fact("R", "a", "b")
        db.add_fact("S", "b")
        db.add_fact("R", "a", "c", endogenous=False)
        db.add_fact("S", "c", endogenous=False)
        explainer = BatchExplainer(QUERY, db, method=method, backend=backend)
        assert len(explainer.explain(("a",))) == 0  # exogenous witness wins
        report = explainer.refresh(DatabaseDelta(
            deletes=[Tuple("S", ("c",))]))
        assert Tuple("S", ("c",)) in report.changed_tuples
        refreshed = explainer.explain(("a",))
        scratch = BatchExplainer(QUERY, db.copy(), method=method,
                                 backend=backend).explain(("a",))
        assert ranking(refreshed) == ranking(scratch)
        assert [c.tuple for c in refreshed.ranked()] == [
            Tuple("R", ("a", "b")), Tuple("S", ("b",))]

    def test_cache_entries_mentioning_exogenous_deletes_are_dropped(self):
        cache = LineageCache()
        r, s = Tuple("R", ("a", "b")), Tuple("S", ("b",))
        phi_n = CodedLineage(PositiveDNF([{r, s}]))
        assert cache.minimum_contingency(phi_n, r) == frozenset()
        assert len(cache) == 1
        # The deleted tuple appears in the lineage key, not as the inspected
        # tuple — both channels must drop the entry.
        assert cache.invalidate_tuples([s]) == 1
        assert len(cache) == 0
        assert cache.invalidate_tuples([s]) == 0


class TestLineageCacheInvalidation:
    def test_unrelated_entries_survive(self):
        cache = LineageCache()
        t1, t2 = Tuple("R", (1,)), Tuple("R", (2,))
        cache.minimum_contingency(CodedLineage(PositiveDNF([{t1}])), t1)
        cache.minimum_contingency(CodedLineage(PositiveDNF([{t2}])), t2)
        assert cache.invalidate_tuples([t1]) == 1
        assert len(cache) == 1
        assert cache.minimum_contingency(
            CodedLineage(PositiveDNF([{t2}])), t2) == frozenset()
        assert cache.hits == 1  # the surviving entry still hits

    def test_inspected_tuple_outside_the_lineage_is_indexed(self):
        # A non-cause's entry (None) is keyed by a tuple its lineage lacks;
        # invalidating that tuple must still drop it.
        cache = LineageCache()
        t1, t2 = Tuple("R", (1,)), Tuple("R", (2,))
        assert cache.minimum_contingency(
            CodedLineage(PositiveDNF([{t1}])), t2) is None
        assert cache.invalidate_tuples([t2]) == 1
        assert len(cache) == 0 and cache._tuple_keys == {}


class TestWhyNoRefreshUnits:
    def test_deleted_real_tuple_becomes_candidate(self):
        db = Database()
        db.add_fact("R", "c", "b")
        db.add_fact("R", "a", "b")
        db.add_fact("S", "zzz")
        explainer = WhyNoBatchExplainer(QUERY, db, non_answers=[("c",)],
                                        domains={"y": ["b"]})
        assert Tuple("R", ("c", "b")) not in explainer.candidates_for(("c",))
        explainer.refresh(DatabaseDelta(deletes=[Tuple("R", ("c", "b"))]))
        assert Tuple("R", ("c", "b")) in explainer.candidates_for(("c",))

    def test_empty_domain_rule_matches_generators_on_refresh(self):
        """An empty open-variable domain keeps every candidate set empty.

        The generators return empty sets when *any* open variable's domain
        is empty; the incremental patcher must not re-introduce candidates
        through an atom that does not mention the empty-domain variable.
        """
        from repro.relational import parse_query as pq

        query = pq("q(x) :- R(x, y), T(z)")
        db = Database()
        db.add_fact("R", "q", "b")
        db.add_fact("T", "t")
        explainer = WhyNoBatchExplainer(query, db, non_answers=[("c",)],
                                        domains={"y": ["b"], "z": []})
        assert explainer.candidates_for(("c",)) == frozenset()
        explainer.refresh(DatabaseDelta(deletes=[Tuple("R", ("q", "b"))]))
        assert explainer.candidates_for(("c",)) == frozenset()
        scratch = WhyNoBatchExplainer(query, db.copy(), non_answers=[("c",)],
                                      domains={"y": ["b"], "z": []})
        assert scratch.candidates_for(("c",)) == frozenset()

    def test_inserted_tuple_stops_being_candidate(self):
        db = Database()
        db.add_fact("R", "a", "b")
        explainer = WhyNoBatchExplainer(QUERY, db, non_answers=[("c",)],
                                        domains={"y": ["b"]})
        assert Tuple("S", ("b",)) in explainer.candidates_for(("c",))
        report = explainer.refresh(DatabaseDelta(
            inserts=[(Tuple("S", ("b",)), False)]))
        assert Tuple("S", ("b",)) not in explainer.candidates_for(("c",))
        assert ("c",) in report.stale

    def test_failed_refresh_poisons_instead_of_serving_stale(self):
        """A refresh that dies after the delta landed must not go silent.

        With ``max_candidates`` exceeded by the patched set, the real
        database is already mutated; serving the memoized pre-delta
        explanation would be silent staleness, so the engine refuses.
        """
        db = Database()
        db.add_fact("R", "a", "b1")
        db.add_fact("S", "b1")
        # candidates for ("c",): R(c,b1), R(c,b2), S(b2) — exactly the limit
        explainer = WhyNoBatchExplainer(QUERY, db, non_answers=[("c",)],
                                        domains={"y": ["b1", "b2"]},
                                        max_candidates=3)
        explainer.explain_all()
        with pytest.raises(Exception):
            # deleting S(b1) makes it a 4th candidate: limit exceeded
            explainer.refresh(DatabaseDelta(deletes=[Tuple("S", ("b1",))]))
        with pytest.raises(Exception, match="rebuild"):
            explainer.explain(("c",))
        assert not explainer.covers([("c",)], domains={"y": ["b1", "b2"]})

    def test_target_becoming_answer_is_dropped(self):
        db = Database()
        db.add_fact("R", "c", "b")
        explainer = WhyNoBatchExplainer(QUERY, db, non_answers=[("c",)],
                                        domains={"y": ["b"]})
        report = explainer.refresh(DatabaseDelta(
            inserts=[(Tuple("S", ("b",)), False)]))
        assert report.removed_answers == {("c",)}
        assert explainer.non_answers == []
        with pytest.raises(Exception):
            explainer.explain(("c",))


class TestExplanationSession:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_one_delta_drives_both_engines(self, backend):
        db = two_answer_db()
        session = ExplanationSession(QUERY, db, backend=backend)
        assert sorted(session.answers()) == [("a2",), ("a4",)]
        whyso = session.explain(("a4",))
        whyno = session.explain(("a9",), mode="why-no",
                                whyno_domains={"y": ["a1"]})
        assert whyso.causes and whyno.causes
        reports = session.refresh(DatabaseDelta(
            deletes=[Tuple("R", ("a4", "a3")), Tuple("R", ("a4", "a2"))]))
        assert reports["why-so"] is not None
        assert reports["why-no"] is not None
        # the delta landed exactly once on the shared database
        assert db.size("R") == 1
        assert sorted(session.answers()) == [("a2",)]
        # the untouched why-no target still explains identically
        assert ranking(session.explain(("a9",), mode="why-no",
                                       whyno_domains={"y": ["a1"]})) \
            == ranking(whyno)

    def test_session_reuses_whyso_engine_across_calls(self):
        db = two_answer_db()
        session = ExplanationSession(QUERY, db)
        first = session.explain(("a2",))
        assert session.explain(("a2",)) is first

    def test_oneshot_explain_matches_session(self):
        from repro.core import explain

        db = two_answer_db()
        session = ExplanationSession(QUERY, db)
        for answer in [("a2",), ("a4",)]:
            assert ranking(session.explain(answer)) == \
                ranking(explain(QUERY, db, answer=answer))
