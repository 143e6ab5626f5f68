"""Unit tests for the batched Why-No engine (WhyNoBatchExplainer)."""

import sqlite3

import pytest

from repro.core import explain
from repro.engine import WhyNoBatchExplainer, batch_explain_whyno, whyno_batch
from repro.exceptions import CausalityError, SchemaError
from repro.lineage import (
    batch_candidate_missing_tuples,
    candidate_missing_tuples,
    n_lineage,
    build_whyno_instance,
)
from repro.relational import (
    Database,
    Tuple,
    database_from_dict,
    open_session,
    parse_query,
)


def ranking(explanation):
    return [(c.tuple, c.responsibility, c.contingency)
            for c in explanation.ranked()]


@pytest.fixture
def rst_setup():
    """R populated, S partial, T empty: several missing answers."""
    db = database_from_dict({
        "R": [("a", "b1"), ("a", "b2"), ("c", "b2"), ("d", "b3")],
        "S": [("b1",), ("b3",)],
    })
    query = parse_query("q(x) :- R(x, y), S(y), T(y)")
    domains = {"y": ["b1", "b2", "b3"]}
    return db, query, domains


class TestCandidateBatching:
    def test_per_answer_sets_match_per_answer_generator(self, rst_setup):
        db, query, domains = rst_setup
        non_answers = [("a",), ("c",), ("d",)]
        batch = batch_candidate_missing_tuples(query, db, non_answers,
                                               domains=domains)
        for na in non_answers:
            expected = candidate_missing_tuples(query.bind(na), db,
                                                domains=domains)
            assert batch[na] == expected, na

    def test_headless_atoms_generated_once_and_shared(self, rst_setup):
        db, query, domains = rst_setup
        batch = batch_candidate_missing_tuples(query, db, [("a",), ("c",)],
                                               domains=domains)
        # S and T candidates do not depend on the non-answer.
        shared = {t for t in batch[("a",)] if t.relation in ("S", "T")}
        assert shared == {t for t in batch[("c",)]
                          if t.relation in ("S", "T")}
        assert Tuple("T", ("b1",)) in shared

    def test_duplicates_collapsed_and_order_kept(self, rst_setup):
        db, query, domains = rst_setup
        batch = batch_candidate_missing_tuples(
            query, db, [("c",), ("a",), ("c",)], domains=domains)
        assert list(batch) == [("c",), ("a",)]

    def test_max_candidates_enforced_per_non_answer(self, rst_setup):
        db, query, domains = rst_setup
        with pytest.raises(CausalityError):
            batch_candidate_missing_tuples(query, db, [("a",)],
                                           domains=domains, max_candidates=2)

    def test_empty_domain_yields_no_candidates(self, rst_setup):
        db, query, _ = rst_setup
        batch = batch_candidate_missing_tuples(
            query, db, [("a",)], domains={"y": []})
        assert batch[("a",)] == frozenset()


class TestExplainMatchesPerNonAnswer:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_batch_equals_single_non_answer_explain(self, rst_setup, backend):
        db, query, domains = rst_setup
        non_answers = [("a",), ("c",), ("d",)]
        batch = WhyNoBatchExplainer(query, db, non_answers=non_answers,
                                    domains=domains, backend=backend)
        explanations = batch.explain_all()
        assert list(explanations) == non_answers
        for na in non_answers:
            single = explain(query, db, answer=na, mode="why-no",
                             whyno_domains=domains, backend=backend)
            assert ranking(explanations[na]) == ranking(single), (backend, na)

    def test_shared_n_lineage_matches_per_answer_combined_instance(
            self, rst_setup):
        db, query, domains = rst_setup
        batch = WhyNoBatchExplainer(query, db, non_answers=[("a",), ("c",)],
                                    domains=domains)
        batch.explain_all()  # force the shared pass
        for na in [("a",), ("c",)]:
            combined = build_whyno_instance(
                db, candidate_missing_tuples(query.bind(na), db,
                                             domains=domains))
            assert batch.n_lineage_of(na) == \
                n_lineage(query.bind(na), combined, simplify=True), na

    def test_full_pass_and_lazy_single_target_agree(self, rst_setup):
        db, query, domains = rst_setup
        full = WhyNoBatchExplainer(query, db, non_answers=[("a",), ("c",)],
                                   domains=domains)
        full.explain_all()
        lazy = WhyNoBatchExplainer(query, db, non_answers=[("a",)],
                                   domains=domains)
        assert ranking(full.explain(("a",))) == ranking(lazy.explain(("a",)))

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_process_pool_matches_serial(self, rst_setup, backend):
        db, query, domains = rst_setup
        explainer = WhyNoBatchExplainer(query, db,
                                        non_answers=[("a",), ("c",), ("d",)],
                                        domains=domains, backend=backend)
        serial = explainer.explain_all()
        pooled = explainer.explain_all(workers=2)
        assert list(serial) == list(pooled)
        for na in serial:
            assert ranking(serial[na]) == ranking(pooled[na]), (backend, na)

    def test_batch_explain_whyno_convenience(self, rst_setup):
        db, query, domains = rst_setup
        results = batch_explain_whyno(query, db, non_answers=[("a",)],
                                      domains=domains)
        assert ranking(results[("a",)]) == ranking(
            explain(query, db, answer=("a",), mode="why-no",
                    whyno_domains=domains))


class TestSelfJoinIsolation:
    """Self-joined relations must not leak one non-answer's candidates into
    another's n-lineage: a head-free atom of the same relation matches every
    candidate in the shared combined instance, so the engine intersects each
    group with its own ``Dn(ā)`` (regression for the union-instance leak)."""

    @pytest.fixture
    def selfjoin_setup(self):
        db = database_from_dict({"R": [("seed", "x")]})
        query = parse_query("q(x) :- R(x, y), R(y, z)")
        domains = {"y": ["b"], "z": ["c"]}
        return db, query, domains

    def test_batch_equals_per_non_answer_on_self_join(self, selfjoin_setup):
        db, query, domains = selfjoin_setup
        non_answers = [("a",), ("b",)]
        batch = WhyNoBatchExplainer(query, db, non_answers=non_answers,
                                    domains=domains)
        explanations = batch.explain_all()
        for na in non_answers:
            single = explain(query, db, answer=na, mode="why-no",
                             whyno_domains=domains)
            assert ranking(explanations[na]) == ranking(single), na
        # The leak candidate R('b', 'b') (generated for ('b',) only) must not
        # appear among ('a',)'s causes.
        assert Tuple("R", ("b", "b")) not in \
            {c.tuple for c in explanations[("a",)]}

    def test_n_lineage_restricted_to_own_candidates(self, selfjoin_setup):
        db, query, domains = selfjoin_setup
        batch = WhyNoBatchExplainer(query, db, non_answers=[("a",), ("b",)],
                                    domains=domains)
        batch.explain_all()  # force the shared pass over the union instance
        for na in [("a",), ("b",)]:
            combined = build_whyno_instance(
                db, candidate_missing_tuples(query.bind(na), db,
                                             domains=domains))
            assert batch.n_lineage_of(na) == \
                n_lineage(query.bind(na), combined, simplify=True), na

    def test_workers_agree_on_self_join(self, selfjoin_setup):
        db, query, domains = selfjoin_setup
        batch = WhyNoBatchExplainer(query, db, non_answers=[("a",), ("b",)],
                                    domains=domains)
        serial = batch.explain_all()
        pooled = batch.explain_all(workers=2)
        for na in serial:
            assert ranking(serial[na]) == ranking(pooled[na]), na


class TestEdgeCases:
    def test_non_answer_that_is_actually_an_answer_raises(self):
        db = database_from_dict({"R": [("a", "b")], "S": [("b",)]})
        query = parse_query("q(x) :- R(x, y), S(y)")
        with pytest.raises(CausalityError):
            WhyNoBatchExplainer(query, db, non_answers=[("zz",), ("a",)])

    def test_empty_candidate_domain_gives_empty_explanation(self):
        db = database_from_dict({"R": [("a", "b")], "S": [("c",)]})
        query = parse_query("q(x) :- R(x, y), S(y)")
        explainer = WhyNoBatchExplainer(query, db, non_answers=[("a",)],
                                        domains={"y": []})
        assert explainer.candidate_union() == frozenset()
        assert len(explainer.explain(("a",))) == 0

    def test_explicit_candidate_already_in_real_database_stays_exogenous(self):
        db = database_from_dict({"R": [("a", "b")], "S": [("c",)]})
        query = parse_query("q(x) :- R(x, y), S(y)")
        existing = Tuple("R", ("a", "b"))
        explainer = WhyNoBatchExplainer(
            query, db, non_answers=[("a",)],
            candidates=[existing, Tuple("S", ("b",))])
        assert not explainer.combined.is_endogenous(existing)
        explanation = explainer.explain(("a",))
        assert [c.tuple for c in explanation.ranked()] == [Tuple("S", ("b",))]
        assert explanation.ranked()[0].responsibility == 1

    def test_boolean_query_single_non_answer(self):
        db = database_from_dict({"R": [("a", "b")], "S": [("c",)]})
        query = parse_query("q :- R(x, y), S(y)")
        explainer = WhyNoBatchExplainer(query, db)
        explanation = explainer.explain()
        assert explanation.answer is None and len(explanation) > 0
        assert ranking(explanation) == ranking(
            explain(query, db, mode="why-no"))

    def test_boolean_query_rejects_tuple_targets(self):
        db = database_from_dict({"R": [("a", "b")]})
        query = parse_query("q :- R(x, y), S(y)")
        with pytest.raises(CausalityError):
            WhyNoBatchExplainer(query, db, non_answers=[("a",)])

    def test_target_outside_batch_rejected(self):
        db = database_from_dict({"R": [("a", "b")], "S": [("c",)]})
        query = parse_query("q(x) :- R(x, y), S(y)")
        explainer = WhyNoBatchExplainer(query, db, non_answers=[("a",)])
        with pytest.raises(CausalityError):
            explainer.explain(("b",))

    @pytest.mark.parametrize("workers", [None, 2])
    def test_explain_all_rejects_out_of_batch_targets(self, workers):
        # The serial and process-pool paths must validate identically.
        db = database_from_dict({"R": [("a", "b")], "S": [("c",)]})
        query = parse_query("q(x) :- R(x, y), S(y)")
        explainer = WhyNoBatchExplainer(query, db, non_answers=[("a",)])
        with pytest.raises(CausalityError):
            explainer.explain_all(non_answers=[("z1",), ("z2",)],
                                  workers=workers)

    def test_non_answers_required_for_open_query(self):
        db = database_from_dict({"R": [("a", "b")]})
        with pytest.raises(CausalityError):
            WhyNoBatchExplainer(parse_query("q(x) :- R(x, y)"), db)

    def test_unknown_backend_rejected(self):
        db = database_from_dict({"R": [("a", "b")]})
        with pytest.raises(CausalityError):
            WhyNoBatchExplainer(parse_query("q(x) :- R(x, y)"), db,
                                non_answers=[("c",)], backend="postgres")

    def test_candidates_and_domains_mutually_exclusive(self):
        db = database_from_dict({"R": [("a", "b")]})
        with pytest.raises(CausalityError):
            WhyNoBatchExplainer(parse_query("q(x) :- R(x, y)"), db,
                                non_answers=[("c",)], domains={"y": ["b"]},
                                candidates=[Tuple("R", ("c", "b"))])


class TestConstructionFailureClosesSession:
    """A constructor that raises after loading the real database into
    SQLite must close that load instead of leaking the connection."""

    @pytest.mark.parametrize("kwargs, error", [
        pytest.param({"non_answers": [("a",)]}, CausalityError,
                     id="actual-answer-target"),
        pytest.param({"non_answers": [("c",)], "max_candidates": 1},
                     CausalityError, id="max-candidates-exceeded"),
        pytest.param({"non_answers": [("c",)], "domains": {"y": [True]}},
                     SchemaError, id="value-outside-domain"),
        pytest.param({"non_answers": [("c",)],
                      "candidates": [Tuple("S", (True,))]},
                     SchemaError, id="explicit-candidate-outside-domain"),
    ])
    def test_sqlite_connection_closed(self, monkeypatch, kwargs, error):
        opened = []

        def recording_open_session(*args, **kw):
            session = open_session(*args, **kw)
            opened.append(session)
            return session

        monkeypatch.setattr(whyno_batch, "open_session",
                            recording_open_session)
        db = database_from_dict({"R": [("a", "b")], "S": [("b",)]})
        with pytest.raises(error):
            WhyNoBatchExplainer(parse_query("q(x) :- R(x, y), S(y)"), db,
                                backend="sqlite", **kwargs)
        [session] = opened
        with pytest.raises(sqlite3.ProgrammingError):
            session.snapshot().connection.execute("SELECT 1")


class TestForMissingAnswers:
    def test_enumerates_exactly_the_missing_head_tuples(self):
        db = database_from_dict({
            "R": [("a", "b"), ("c", "d"), ("e", "b")],
            "S": [("b",)],
        })
        query = parse_query("q(x) :- R(x, y), S(y)")
        explainer = WhyNoBatchExplainer.for_missing_answers(query, db)
        # 'a' and 'e' are answers; every other active-domain value is missing.
        assert ("a",) not in explainer.non_answers
        assert ("e",) not in explainer.non_answers
        assert ("c",) in explainer.non_answers
        for na, explanation in explainer.explain_all().items():
            assert ranking(explanation) == ranking(
                explain(query, db, answer=na, mode="why-no")), na

    def test_head_domains_restrict_enumeration(self):
        db = database_from_dict({"R": [("a", "b")], "S": [("b",)]})
        query = parse_query("q(x) :- R(x, y), S(y)")
        explainer = WhyNoBatchExplainer.for_missing_answers(
            query, db, domains={"x": ["p", "q"]})
        assert explainer.non_answers == [("p",), ("q",)]

    def test_boolean_query_missing_answer(self):
        db = database_from_dict({"R": [("a", "b")]})
        satisfied = parse_query("q :- R(x, y)")
        assert WhyNoBatchExplainer.for_missing_answers(
            satisfied, db).non_answers == []
        missing = parse_query("q :- R(x, y), S(y)")
        assert WhyNoBatchExplainer.for_missing_answers(
            missing, db).non_answers == [()]
