"""Unit tests for the batch explanation engine (BatchExplainer, LineageCache)."""

import pytest

from repro.core import explain
from repro.core.responsibility import CodedLineage
from repro.engine import BatchExplainer, LineageCache, batch_explain
from repro.exceptions import CausalityError
from repro.lineage import PositiveDNF, n_lineage
from repro.relational import Tuple, evaluate, parse_query
from repro.workloads import random_two_table_instance


def ranking(explanation):
    return [(c.tuple, c.responsibility) for c in explanation.ranked()]


@pytest.fixture
def rs_query():
    return parse_query("q(x) :- R(x, y), S(y)")


class TestAnswers:
    def test_answers_match_evaluation(self, example22_db, rs_query):
        db, _ = example22_db
        explainer = BatchExplainer(rs_query, db)
        assert frozenset(explainer.answers()) == evaluate(rs_query, db)

    def test_boolean_query_answers(self, example22_db):
        db, _ = example22_db
        explainer = BatchExplainer(parse_query("q :- R(x, y), S(y)"), db)
        assert explainer.answers() == [()]

    def test_unsatisfied_boolean_query(self, example22_db):
        db, _ = example22_db
        explainer = BatchExplainer(parse_query("q :- R(x, 'zz'), S(x)"), db)
        assert explainer.answers() == []


class TestExplain:
    def test_matches_single_answer_explain(self, example22_db, rs_query):
        db, _ = example22_db
        explainer = BatchExplainer(rs_query, db)
        for answer, explanation in explainer.explain_all().items():
            assert ranking(explanation) == ranking(explain(rs_query, db, answer=answer))

    def test_lazy_and_full_pass_agree(self, example22_db, rs_query):
        db, _ = example22_db
        lazy = BatchExplainer(rs_query, db).explain(("a4",))
        full = BatchExplainer(rs_query, db).explain_all()[("a4",)]
        assert ranking(lazy) == ranking(full)

    def test_non_answer_raises(self, example22_db, rs_query):
        db, _ = example22_db
        with pytest.raises(CausalityError):
            BatchExplainer(rs_query, db).explain(("a1",))

    def test_boolean_query_explanation(self, example22_db):
        db, _ = example22_db
        explainer = BatchExplainer(parse_query("q :- R(x, y), S(y)"), db)
        explanation = explainer.explain()
        assert explanation.answer is None and len(explanation) > 0

    def test_boolean_query_rejects_answer(self, example22_db):
        db, _ = example22_db
        explainer = BatchExplainer(parse_query("q :- R(x, y), S(y)"), db)
        with pytest.raises(CausalityError):
            explainer.explain(("a4",))

    def test_answer_required_for_open_query(self, example22_db, rs_query):
        db, _ = example22_db
        with pytest.raises(CausalityError):
            BatchExplainer(rs_query, db).explain()

    def test_unknown_method_rejected(self, example22_db, rs_query):
        db, _ = example22_db
        with pytest.raises(CausalityError):
            BatchExplainer(rs_query, db, method="magic")

    def test_flow_and_exact_methods_agree(self, example22_db, rs_query):
        db, _ = example22_db
        flow = BatchExplainer(rs_query, db, method="flow")
        exact = BatchExplainer(rs_query, db, method="exact")
        for answer in flow.answers():
            assert ranking(flow.explain(answer)) == ranking(exact.explain(answer))


class TestSharedState:
    def test_shared_lineage_matches_provenance_module(self, example22_db, rs_query):
        db, _ = example22_db
        explainer = BatchExplainer(rs_query, db)
        explainer.answers()  # force the full pass
        for answer in explainer.answers():
            assert explainer.n_lineage_of(answer) == \
                n_lineage(rs_query.bind(answer), db, simplify=True)

    @pytest.mark.parametrize("full_pass", [False, True],
                             ids=["lazy", "after-pass"])
    def test_n_lineage_of_rejects_non_answers(self, example22_db, rs_query,
                                              full_pass):
        # Like explain(), never a silent empty lineage for a non-answer.
        db, _ = example22_db
        explainer = BatchExplainer(rs_query, db)
        if full_pass:
            explainer.answers()
        with pytest.raises(CausalityError, match="not an answer") as error:
            explainer.n_lineage_of(("zz",))
        with pytest.raises(CausalityError) as explain_error:
            explainer.explain(("zz",))
        assert str(error.value) == str(explain_error.value)
        with pytest.raises(CausalityError, match="needs the answer tuple"):
            explainer.n_lineage_of(None)
        assert explainer.n_lineage_of(("a4",)) == \
            n_lineage(rs_query.bind(("a4",)), db, simplify=True)

    def test_auto_dispatches_self_joins_to_exact_engine(self, example22_db):
        # A self-join is never weakly linear for the flow engine; auto must
        # fall back to the exact engine and still produce valid output.
        db, _ = example22_db
        query = parse_query("q(x) :- R(x, y), R(y, z)")
        explainer = BatchExplainer(query, db)
        explanations = explainer.explain_all()
        assert explanations, "expected at least one answer"
        assert explainer.cache.misses > 0  # exact engine was exercised
        for explanation in explanations.values():
            assert all(c.responsibility > 0 for c in explanation)

    def test_flow_refusals_are_asked_once_per_relation(self, monkeypatch):
        # The triangle is not weakly linear: auto asks Algorithm 1 once per
        # (bound query, relation), not once per inspected tuple, and a
        # refresh that drops the answer's engine asks again.
        from repro.core.flow_responsibility import FlowEngine
        from repro.relational import Database, DatabaseDelta

        calls = []
        responsibility = FlowEngine.responsibility

        def counting(engine, tuple_):
            calls.append(tuple_.relation)
            return responsibility(engine, tuple_)

        monkeypatch.setattr(FlowEngine, "responsibility", counting)
        db = Database()
        db.add_fact("A", "x", "u", endogenous=False)
        for v in ("v1", "v2"):
            db.add_fact("R", "u", v)
            for w in ("w1", "w2"):
                db.add_fact("S", v, w)
        for w in ("w1", "w2"):
            db.add_fact("T", w, "u")
        query = parse_query("q(x) :- A(x, u), R(u, v), S(v, w), T(w, u)")
        explainer = BatchExplainer(query, db)
        explanation = explainer.explain(("x",))
        assert len(explanation) == 8
        assert sorted(calls) == ["R", "S", "T"]
        explainer.refresh(DatabaseDelta(deletes=[Tuple("S", ("v1", "w1"))]))
        refreshed = explainer.explain(("x",))
        assert sorted(calls) == ["R", "R", "S", "S", "T", "T"]
        assert ranking(refreshed) == ranking(
            BatchExplainer(query, db, method="exact").explain(("x",)))

    def test_process_pool_matches_serial(self, example22_db, rs_query):
        db, _ = example22_db
        explainer = BatchExplainer(rs_query, db)
        serial = explainer.explain_all()
        pooled = explainer.explain_all(workers=2)
        assert set(serial) == set(pooled)
        for answer in serial:
            assert ranking(serial[answer]) == ranking(pooled[answer])

    def test_explain_all_order_is_worker_count_independent(self):
        # explain_all fans out in contiguous chunks; whatever the worker
        # count, the result dict must be keyed in the serial answer order
        # with identical rankings (the docstring's promise).
        db = random_two_table_instance(n_r=30, n_s=20, domain_size=8, seed=1)
        query = parse_query("q(x) :- R(x, y), S(y, z)")
        explainer = BatchExplainer(query, db)
        serial = explainer.explain_all()
        assert list(serial) == explainer.answers()
        assert len(serial) >= 5, "workload too small to exercise chunking"
        for workers in (2, 3, len(serial) + 5):
            pooled = explainer.explain_all(workers=workers)
            assert list(pooled) == list(serial), workers
            for answer in serial:
                assert ranking(pooled[answer]) == ranking(serial[answer]), \
                    (workers, answer)

    def test_batch_explain_convenience(self, example22_db, rs_query):
        db, _ = example22_db
        assert set(batch_explain(rs_query, db)) == \
            set(BatchExplainer(rs_query, db).answers())


class TestSQLiteBackend:
    def test_sqlite_backend_matches_memory(self, example22_db, rs_query):
        db, _ = example22_db
        memory = BatchExplainer(rs_query, db).explain_all()
        sqlite_ = BatchExplainer(rs_query, db, backend="sqlite").explain_all()
        assert list(memory) == list(sqlite_)
        for answer in memory:
            assert ranking(memory[answer]) == ranking(sqlite_[answer])

    def test_sqlite_backend_lazy_single_answer(self, example22_db, rs_query):
        db, _ = example22_db
        lazy = BatchExplainer(rs_query, db, backend="sqlite").explain(("a4",))
        assert ranking(lazy) == ranking(explain(rs_query, db, answer=("a4",)))

    def test_sqlite_backend_process_pool(self, example22_db, rs_query):
        db, _ = example22_db
        explainer = BatchExplainer(rs_query, db, backend="sqlite")
        serial = explainer.explain_all()
        pooled = explainer.explain_all(workers=2)
        assert list(serial) == list(pooled)
        for answer in serial:
            assert ranking(serial[answer]) == ranking(pooled[answer])

    def test_unknown_backend_rejected(self, example22_db, rs_query):
        db, _ = example22_db
        with pytest.raises(CausalityError):
            BatchExplainer(rs_query, db, backend="postgres")

    def test_explain_via_backend_keyword(self, example22_db, rs_query):
        db, _ = example22_db
        assert ranking(explain(rs_query, db, answer=("a4",),
                               backend="sqlite")) == \
            ranking(explain(rs_query, db, answer=("a4",)))


class TestLineageCache:
    def test_minimum_contingency_memoizes(self, monkeypatch):
        calls = []
        solve = CodedLineage.minimum_contingency

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(CodedLineage, "minimum_contingency", counting)
        t = Tuple("R", (1,))
        cache = LineageCache()
        # Equal formulas share an entry, whichever coded lineage carries them.
        assert cache.minimum_contingency(
            CodedLineage(PositiveDNF([{t}])), t) == frozenset()
        assert cache.minimum_contingency(
            CodedLineage(PositiveDNF([{t}])), t) == frozenset()
        assert len(calls) == 1 and (cache.hits, cache.misses) == (1, 1)

    def test_failed_compute_is_not_a_miss(self, monkeypatch):
        # A solver that raises stores nothing, so it must not skew stats.
        def boom(*args, **kwargs):
            raise RuntimeError("lineage solver exploded")

        t = Tuple("R", (1,))
        phi = CodedLineage(PositiveDNF([{t}]))
        cache = LineageCache()
        monkeypatch.setattr(CodedLineage, "minimum_contingency", boom)
        with pytest.raises(RuntimeError):
            cache.minimum_contingency(phi, t)
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)
        assert cache._tuple_keys == {}
        monkeypatch.undo()
        assert cache.minimum_contingency(phi, t) == frozenset()
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)

    def test_minimum_contingency_counterfactual(self):
        t = Tuple("R", (1,))
        phi = CodedLineage(PositiveDNF([{t}]))
        cache = LineageCache()
        assert cache.minimum_contingency(phi, t) == frozenset()
        assert cache.minimum_contingency(phi, Tuple("R", (2,))) is None
