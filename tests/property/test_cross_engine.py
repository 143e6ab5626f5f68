"""Cross-engine agreement on random weakly-linear queries and instances.

Three independent responsibility engines exist: Algorithm 1 (max-flow, PTIME
on weakly linear queries), the exact hitting-set engine over the n-lineage,
and the definitional brute force.  Theorem 4.5 says they must agree on
(weakly) linear queries; these tests pin that down on random instances drawn
from :mod:`repro.workloads.generators`, and additionally check that the batch
engine reproduces the per-answer ``explain()`` output exactly.

Instance sizes are deliberately tiny in the default tier (full unbounded
brute force stays feasible); the ``slow`` tier sweeps more seeds and larger
instances with the flow/exact pair only.
"""

import pytest

from repro.core import (
    brute_force_responsibility,
    exact_responsibility,
    explain,
    flow_responsibility_value,
    whyno_causes_with_responsibility,
)
from repro.engine import BatchExplainer, WhyNoBatchExplainer
from repro.lineage import (
    build_whyno_instance,
    candidate_missing_tuples,
    n_lineage,
)
from repro.relational import (
    Atom,
    ConjunctiveQuery,
    QueryEvaluator,
    SQLiteEvaluator,
    evaluate,
    evaluate_boolean,
)
from repro.workloads import chain_query, random_database_for_query, star_query

WEAKLY_LINEAR_QUERIES = [
    chain_query(2),
    chain_query(3),
    star_query(2),
]


def lineage_endogenous(query, database):
    """The only tuples whose responsibility can be positive."""
    relevant = n_lineage(query, database, simplify=False).variables()
    return sorted(t for t in relevant if database.is_endogenous(t))


def tiny_instance(query, seed):
    return random_database_for_query(query, tuples_per_relation=3,
                                     domain_size=2, seed=seed)


class TestEngineAgreement:
    @pytest.mark.parametrize("query", WEAKLY_LINEAR_QUERIES,
                             ids=lambda q: q.name)
    @pytest.mark.parametrize("seed", range(4))
    def test_flow_exact_and_bruteforce_agree(self, query, seed):
        db = tiny_instance(query, seed)
        if not evaluate_boolean(query, db):
            pytest.skip("random instance does not satisfy the query")
        for t in lineage_endogenous(query, db):
            flow = flow_responsibility_value(query, db, t)
            exact = exact_responsibility(query, db, t).responsibility
            brute = brute_force_responsibility(query, db, t)
            assert flow == exact == brute, (query.name, seed, t)

    @pytest.mark.slow
    @pytest.mark.parametrize("query", WEAKLY_LINEAR_QUERIES,
                             ids=lambda q: q.name)
    @pytest.mark.parametrize("seed", range(10))
    def test_flow_and_exact_agree_on_larger_instances(self, query, seed):
        db = random_database_for_query(query, tuples_per_relation=6,
                                       domain_size=3, seed=seed)
        if not evaluate_boolean(query, db):
            pytest.skip("random instance does not satisfy the query")
        for t in lineage_endogenous(query, db):
            assert flow_responsibility_value(query, db, t) == \
                exact_responsibility(query, db, t).responsibility, \
                (query.name, seed, t)


class TestBatchMatchesPerAnswer:
    @pytest.mark.parametrize("length", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_batch_explainer_matches_explain(self, length, seed):
        boolean = chain_query(length)
        open_query = ConjunctiveQuery(boolean.atoms, head=["x0"],
                                      name="chain_open")
        db = random_database_for_query(open_query, tuples_per_relation=5,
                                       domain_size=3, seed=seed)
        explainer = BatchExplainer(open_query, db)
        answers = explainer.answers()
        if not answers:
            pytest.skip("random instance yields no answers")
        batch = explainer.explain_all()
        for answer in answers:
            single = explain(open_query, db, answer=answer)
            assert [(c.tuple, c.responsibility) for c in batch[answer].ranked()] == \
                [(c.tuple, c.responsibility) for c in single.ranked()], \
                (length, seed, answer)

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_responsibilities_match_bruteforce(self, seed):
        boolean = chain_query(2)
        open_query = ConjunctiveQuery(boolean.atoms, head=["x0"],
                                      name="chain_open")
        db = tiny_instance(open_query, seed)
        explainer = BatchExplainer(open_query, db)
        for answer, explanation in explainer.explain_all().items():
            bound = open_query.bind(answer)
            for cause in explanation:
                assert cause.responsibility == \
                    brute_force_responsibility(bound, db, cause.tuple), \
                    (seed, answer, cause.tuple)


def open_chain(length):
    return ConjunctiveQuery(chain_query(length).atoms, head=["x0"],
                            name="chain_open")


def open_star(rays):
    return ConjunctiveQuery(star_query(rays).atoms, head=["x1"],
                            name="star_open")


class TestSQLiteBackendMatchesMemory:
    """The SQL valuation pass is valuation-, answer- and explanation-identical.

    This is the acceptance gate of the SQLite backend: on random weakly-linear
    instances, ``BatchExplainer(backend="sqlite")`` must reproduce the
    in-memory engine bit for bit — same valuations, same answers, same
    n-lineages, same ranked causes with the same contingencies.
    """

    @staticmethod
    def valuation_key(valuation):
        return (
            tuple(sorted((var.name, repr(value))
                         for var, value in valuation.assignment.items())),
            valuation.atom_tuples,
        )

    @pytest.mark.parametrize("make_query", [open_chain, open_star],
                             ids=["chain", "star"])
    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_valuations_answers_and_explanations_match(self, make_query,
                                                       size, seed):
        query = make_query(size)
        db = random_database_for_query(query, tuples_per_relation=5,
                                       domain_size=3, seed=seed)
        memory_vals = sorted(map(self.valuation_key,
                                 QueryEvaluator(db).valuations(query)))
        sqlite_vals = sorted(map(self.valuation_key,
                                 SQLiteEvaluator(db).valuations(query)))
        assert memory_vals == sqlite_vals, (query.name, size, seed)

        memory = BatchExplainer(query, db)
        sqlite_ = BatchExplainer(query, db, backend="sqlite")
        assert memory.answers() == sqlite_.answers()
        memory_all = memory.explain_all()
        sqlite_all = sqlite_.explain_all()
        assert list(memory_all) == list(sqlite_all)
        for answer in memory_all:
            assert memory.n_lineage_of(answer) == sqlite_.n_lineage_of(answer)
            assert [(c.tuple, c.responsibility, c.contingency)
                    for c in memory_all[answer].ranked()] == \
                [(c.tuple, c.responsibility, c.contingency)
                 for c in sqlite_all[answer].ranked()], (query.name, answer)

    @pytest.mark.parametrize("seed", range(2))
    def test_methods_agree_across_backends(self, seed):
        query = open_chain(2)
        db = random_database_for_query(query, tuples_per_relation=5,
                                       domain_size=3, seed=seed)
        baseline = BatchExplainer(query, db).explain_all()
        for method in ("exact", "flow"):
            got = BatchExplainer(query, db, method=method,
                                 backend="sqlite").explain_all()
            assert list(got) == list(baseline)
            for answer in baseline:
                assert [(c.tuple, c.responsibility)
                        for c in got[answer].ranked()] == \
                    [(c.tuple, c.responsibility)
                     for c in baseline[answer].ranked()], (method, answer)

    @pytest.mark.slow
    @pytest.mark.parametrize("size", [3, 4])
    @pytest.mark.parametrize("seed", range(10))
    def test_larger_instances(self, size, seed):
        query = open_chain(size)
        db = random_database_for_query(query, tuples_per_relation=8,
                                       domain_size=3, seed=seed)
        memory_all = BatchExplainer(query, db).explain_all()
        sqlite_all = BatchExplainer(query, db,
                                    backend="sqlite").explain_all()
        assert list(memory_all) == list(sqlite_all)
        for answer in memory_all:
            assert [(c.tuple, c.responsibility)
                    for c in memory_all[answer].ranked()] == \
                [(c.tuple, c.responsibility)
                 for c in sqlite_all[answer].ranked()]


class TestWhyNoBatchMatchesPerNonAnswer:
    """The batched Why-No engine reproduces ``explain(mode="why-no")`` bit
    for bit — same causes, responsibilities *and* contingencies — on random
    instances, for both backends and through the legacy per-instance pipeline
    (candidates → combined instance → n-lineage causes)."""

    @staticmethod
    def non_answers_of(query, db):
        answers = evaluate(query, db)
        return [(value,) for value in sorted(db.active_domain(), key=repr)
                if (value,) not in answers]

    @staticmethod
    def whyno_ranking(explanation):
        return [(c.tuple, c.responsibility, c.contingency)
                for c in explanation.ranked()]

    @pytest.mark.parametrize("make_query", [open_chain, open_star],
                             ids=["chain", "star"])
    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_batched_whyno_equals_per_non_answer_loop(self, make_query, size,
                                                      seed):
        query = make_query(size)
        db = random_database_for_query(query, tuples_per_relation=3,
                                       domain_size=4, seed=seed)
        non_answers = self.non_answers_of(query, db)
        if not non_answers:
            pytest.skip("random instance leaves no answer missing")
        for backend in ("memory", "sqlite"):
            batch = WhyNoBatchExplainer(query, db, non_answers=non_answers,
                                        backend=backend)
            explanations = batch.explain_all()
            assert list(explanations) == non_answers
            for na in non_answers:
                single = explain(query, db, answer=na, mode="why-no",
                                 backend=backend)
                assert self.whyno_ranking(explanations[na]) == \
                    self.whyno_ranking(single), (query.name, seed, backend, na)

    @pytest.mark.parametrize("seed", range(4))
    def test_self_join_queries_agree(self, seed):
        # Self-joins are the adversarial case for the shared combined
        # instance: a head-free R atom matches every R candidate in the
        # union, so per-non-answer candidate isolation is load-bearing here.
        query = ConjunctiveQuery(
            [Atom("R", ["x0", "x1"]), Atom("R", ["x1", "x2"])],
            head=["x0"], name="selfjoin_open")
        db = random_database_for_query(query, tuples_per_relation=3,
                                       domain_size=3, seed=seed)
        non_answers = self.non_answers_of(query, db)
        if not non_answers:
            pytest.skip("random instance leaves no answer missing")
        for backend in ("memory", "sqlite"):
            batch = WhyNoBatchExplainer(query, db, non_answers=non_answers,
                                        backend=backend).explain_all()
            for na in non_answers:
                single = explain(query, db, answer=na, mode="why-no",
                                 backend=backend)
                assert self.whyno_ranking(batch[na]) == \
                    self.whyno_ranking(single), (seed, backend, na)

    @pytest.mark.parametrize("seed", range(3))
    def test_batched_whyno_equals_legacy_pipeline(self, seed):
        query = open_chain(2)
        db = random_database_for_query(query, tuples_per_relation=3,
                                       domain_size=4, seed=seed)
        non_answers = self.non_answers_of(query, db)
        if not non_answers:
            pytest.skip("random instance leaves no answer missing")
        batch = WhyNoBatchExplainer(query, db,
                                    non_answers=non_answers).explain_all()
        for na in non_answers:
            bound = query.bind(na)
            combined = build_whyno_instance(
                db, candidate_missing_tuples(bound, db))
            legacy = whyno_causes_with_responsibility(bound, combined)
            per_call = [exact_responsibility(bound, combined, t,
                                             mode="why-no")
                        for t in sorted(combined.endogenous_tuples())]
            assert all(r.method == "why-no" for r in per_call)
            per_call = sorted((r for r in per_call if r.responsibility > 0),
                              key=lambda r: (-r.responsibility, r.tuple))
            assert [(c.tuple, c.responsibility, c.contingency)
                    for c in batch[na].causes] == \
                [(c.tuple, c.responsibility, c.contingency)
                 for c in legacy] == \
                [(r.tuple, r.responsibility, r.min_contingency)
                 for r in per_call], (seed, na)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(6))
    def test_larger_whyno_instances(self, seed):
        query = open_chain(3)
        db = random_database_for_query(query, tuples_per_relation=5,
                                       domain_size=4, seed=seed)
        non_answers = self.non_answers_of(query, db)
        if not non_answers:
            pytest.skip("random instance leaves no answer missing")
        memory_all = WhyNoBatchExplainer(
            query, db, non_answers=non_answers).explain_all()
        sqlite_all = WhyNoBatchExplainer(
            query, db, non_answers=non_answers,
            backend="sqlite").explain_all()
        for na in non_answers:
            assert self.whyno_ranking(memory_all[na]) == \
                self.whyno_ranking(sqlite_all[na]) == \
                self.whyno_ranking(explain(query, db, answer=na,
                                           mode="why-no")), (seed, na)


