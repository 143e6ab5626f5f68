"""Parallel ≡ serial: the fan-out equivalence contract.

For random instances, both modes (Why-So / Why-No), both backends and worker
counts in {1, 2, 3, 7}, ``explain_all`` must be **bit-identical** to the
serial path — causes, responsibilities, contingencies, ranked-cause
tiebreaks, result key order, *and* the parent engine's state after the merge
(explanation memos and :class:`~repro.engine.cache.LineageCache` contents).
The suite also pins the reporting contract: the
:class:`~repro.engine._pool.FanOutResult` must say which transport ran and
how many workers actually did (the pool shrinks to ``min(workers, targets)``
— historically a silent fallback).

The default tier keeps instances tiny and samples the transport matrix; the
``slow`` tier sweeps more seeds.  ``REPRO_TEST_WORKERS`` (see
``suite_workers`` in the top-level conftest) adds the CI dimension.
"""

import multiprocessing
import random

import pytest

from repro.engine import BatchExplainer, WhyNoBatchExplainer
from repro.engine._pool import effective_pool_size, resolve_transport
from repro.exceptions import CausalityError
from repro.relational import Database, evaluate, parse_query
from repro.workloads import sharded_fanout_instance

QUERY = parse_query("q(x) :- R(x, y), S(y)")
BACKENDS = ("memory", "sqlite")
WORKER_COUNTS = (1, 2, 3, 7)
# fork is POSIX-only; shared-memory (spawn) works everywhere.
PROCESS_TRANSPORTS = tuple(
    t for t in ("fork", "shared-memory")
    if t != "fork" or "fork" in multiprocessing.get_all_start_methods()
)


def ranking(explanation):
    return [(c.tuple, c.responsibility, c.contingency)
            for c in explanation.ranked()]


def random_instance(rng: random.Random) -> Database:
    db = Database()
    for _ in range(rng.randint(6, 16)):
        db.add_fact("R", f"a{rng.randint(0, 5)}", f"b{rng.randint(0, 3)}",
                    endogenous=rng.random() < 0.8)
    for _ in range(rng.randint(2, 5)):
        db.add_fact("S", f"b{rng.randint(0, 3)}",
                    endogenous=rng.random() < 0.8)
    return db


def assert_same_explanations(parallel, serial, context=""):
    assert list(parallel) == list(serial), context
    for key in serial:
        assert ranking(parallel[key]) == ranking(serial[key]), (context, key)


class TestWhySoEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_across_worker_counts(self, seed, workers):
        rng = random.Random(7000 + seed)
        db = random_instance(rng)
        serial = BatchExplainer(QUERY, db).explain_all()
        if len(serial) < 2:
            pytest.skip("random instance too small to fan out")
        pooled = BatchExplainer(QUERY, db).explain_all(workers=workers)
        assert_same_explanations(pooled, serial, (seed, workers))
        if workers > 1:
            assert pooled.transport == resolve_transport("auto", workers,
                                                         len(serial))
            assert pooled.effective_workers == \
                effective_pool_size(len(serial), workers)
        assert pooled.requested_workers == workers

    @pytest.mark.parametrize("transport", PROCESS_TRANSPORTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_transports_and_backends(self, backend, transport):
        rng = random.Random(42)
        db = random_instance(rng)
        serial = BatchExplainer(QUERY, db, backend=backend).explain_all()
        if len(serial) < 2:
            pytest.skip("random instance too small to fan out")
        explainer = BatchExplainer(QUERY, db, backend=backend)
        pooled = explainer.explain_all(workers=3, transport=transport)
        assert_same_explanations(pooled, serial, (backend, transport))
        assert pooled.transport == transport

    @pytest.mark.parametrize("transport", PROCESS_TRANSPORTS)
    def test_parent_state_after_merge_equals_serial(self, transport):
        """Explanation memos and cache contents match a serial run exactly.

        ``method="exact"`` forces the hitting-set engine, so the
        :class:`LineageCache` actually fills; the fan-out must leave the
        parent cache with the same entries a serial run computes (hit/miss
        counters are local by design and excluded).
        """
        rng = random.Random(11)
        db = random_instance(rng)
        serial_explainer = BatchExplainer(QUERY, db, method="exact")
        serial = serial_explainer.explain_all()
        if len(serial) < 2:
            pytest.skip("random instance too small to fan out")
        parallel_explainer = BatchExplainer(QUERY, db, method="exact")
        pooled = parallel_explainer.explain_all(workers=2,
                                                transport=transport)
        assert_same_explanations(pooled, serial, transport)
        assert dict(parallel_explainer.cache.export_entries()) == \
            dict(serial_explainer.cache.export_entries())
        assert set(parallel_explainer._explanations) == \
            set(serial_explainer._explanations)
        # The merged memos keep serving: a follow-up explain() is identical.
        for key in serial:
            assert ranking(parallel_explainer.explain(key)) == \
                ranking(serial_explainer.explain(key))

        # An explicit subset, out of order and with repeats: both paths keep
        # the requested order and explain and count each target once.
        keys = list(serial)
        requested = keys[::-1] + keys[:1] + keys[-1:]
        serial_explainer = BatchExplainer(QUERY, db, method="exact")
        parallel_explainer = BatchExplainer(QUERY, db, method="exact")
        subset = serial_explainer.explain_all(requested)
        pooled = parallel_explainer.explain_all(requested, workers=2,
                                                transport=transport)
        assert list(subset) == keys[::-1]
        assert_same_explanations(pooled, subset, (transport, "subset"))
        assert pooled.transport == transport
        assert (parallel_explainer.memo_hits,
                parallel_explainer.memo_misses) == \
            (serial_explainer.memo_hits, serial_explainer.memo_misses) == \
            (0, len(keys))

    def test_suite_workers_dimension(self, suite_workers):
        """The CI dimension: the whole contract at REPRO_TEST_WORKERS."""
        rng = random.Random(3)
        db = random_instance(rng)
        serial = BatchExplainer(QUERY, db).explain_all()
        pooled = BatchExplainer(QUERY, db).explain_all(workers=suite_workers)
        assert_same_explanations(pooled, serial, suite_workers)


class TestWhyNoEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_across_worker_counts(self, seed, workers):
        rng = random.Random(8000 + seed)
        db = random_instance(rng)
        actual = evaluate(QUERY, db)
        # a0..a5 occur in the instance, a6..a8 never do — so at least three
        # non-answers always exist and the batch is never degenerate.
        targets = [(f"a{i}",) for i in range(9) if (f"a{i}",) not in actual]
        assert len(targets) >= 2
        domains = {"y": [f"b{j}" for j in range(4)]} if seed % 2 else None
        serial = WhyNoBatchExplainer(QUERY, db, non_answers=targets,
                                     domains=domains).explain_all()
        pooled = WhyNoBatchExplainer(
            QUERY, db, non_answers=targets,
            domains=domains).explain_all(workers=workers)
        assert_same_explanations(pooled, serial, (seed, workers))
        if workers > 1:
            assert pooled.effective_workers == \
                effective_pool_size(len(targets), workers)

    @pytest.mark.parametrize("transport", PROCESS_TRANSPORTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_transports_and_backends(self, backend, transport):
        rng = random.Random(19)
        db = random_instance(rng)
        actual = evaluate(QUERY, db)
        targets = [(f"a{i}",) for i in range(9) if (f"a{i}",) not in actual]
        assert len(targets) >= 2
        serial = WhyNoBatchExplainer(QUERY, db,
                                     non_answers=targets).explain_all()
        explainer = WhyNoBatchExplainer(QUERY, db, non_answers=targets,
                                        backend=backend)
        pooled = explainer.explain_all(workers=2, transport=transport)
        assert_same_explanations(pooled, serial, (backend, transport))
        assert pooled.transport == transport
        # Memoized like serial: the next explain() serves the merged result.
        for key in targets:
            assert ranking(explainer.explain(key)) == ranking(serial[key])

        # Repeated targets are explained and counted once on both paths.
        requested = targets[::-1] + targets[:1]
        serial_explainer = WhyNoBatchExplainer(QUERY, db, non_answers=targets,
                                               backend=backend)
        explainer = WhyNoBatchExplainer(QUERY, db, non_answers=targets,
                                        backend=backend)
        subset = serial_explainer.explain_all(requested)
        pooled = explainer.explain_all(requested, workers=2,
                                       transport=transport)
        assert list(subset) == targets[::-1]
        assert_same_explanations(pooled, subset, (backend, transport))
        assert (explainer.memo_hits, explainer.memo_misses) == \
            (serial_explainer.memo_hits, serial_explainer.memo_misses) == \
            (0, len(targets))

    def test_self_join_candidate_restriction_survives_fanout(self):
        """Self-joined queries exercise the per-target candidate filter.

        The union combined instance lets a head-free atom match candidates
        another non-answer contributed; the fan-out workers must apply the
        same restriction the serial path does.
        """
        db = Database()
        db.add_fact("R", "a", "b")
        db.add_fact("R", "b", "c")
        query = parse_query("q(x) :- R(x, y), R(y, z)")
        domains = {"y": ["b", "c"], "z": ["c", "d"]}
        serial = WhyNoBatchExplainer(query, db, non_answers=[("c",), ("d",)],
                                     domains=domains).explain_all()
        pooled = WhyNoBatchExplainer(
            query, db, non_answers=[("c",), ("d",)],
            domains=domains).explain_all(workers=2)
        assert_same_explanations(pooled, serial, "self-join")

    def test_suite_workers_dimension(self, suite_workers):
        db = Database()
        for x, y in [("a", "b"), ("c", "d")]:
            db.add_fact("R", x, y)
        db.add_fact("S", "b")
        targets = [("c",), ("e",), ("f",)]
        kwargs = dict(non_answers=targets, domains={"y": ["b", "d", "e"]})
        serial = WhyNoBatchExplainer(QUERY, db, **kwargs).explain_all()
        pooled = WhyNoBatchExplainer(QUERY, db, **kwargs).explain_all(
            workers=suite_workers)
        assert_same_explanations(pooled, serial, suite_workers)


class TestReporting:
    """The satellite fix: what ran is visible on the result."""

    def test_serial_paths_report_themselves(self):
        rng = random.Random(5)
        db = random_instance(rng)
        result = BatchExplainer(QUERY, db).explain_all()
        assert (result.transport, result.requested_workers,
                result.effective_workers) == ("serial", 1, 1)
        forced = BatchExplainer(QUERY, db).explain_all(workers=4,
                                                       transport="serial")
        assert (forced.transport, forced.requested_workers,
                forced.effective_workers) == ("serial", 4, 1)

    def test_pool_shrinkage_is_reported(self):
        db = Database()
        for x, y in [("a2", "a1"), ("a4", "a3")]:
            db.add_fact("R", x, y)
        for y, z in [("a1", "c"), ("a3", "c")]:
            db.add_fact("S", y, z)
        query = parse_query("q(x) :- R(x, y), S(y, z)")
        result = BatchExplainer(query, db).explain_all(workers=7)
        assert len(result) == 2
        assert result.requested_workers == 7
        assert result.effective_workers == 2  # one worker per chunk, visibly

    def test_balanced_chunking_uses_every_requested_worker(self):
        """Regression: ceil-division chunking ran only 3 workers for (5, 4).

        Balanced chunks (floor + remainder split) mean a request is never
        shrunk while targets outnumber workers.
        """
        assert effective_pool_size(5, 4) == 4
        db = Database()
        for x in ["a1", "a2", "a3", "a4", "a5"]:
            db.add_fact("R", x, "b")
        db.add_fact("S", "b", "c")
        query = parse_query("q(x) :- R(x, y), S(y, z)")
        result = BatchExplainer(query, db).explain_all(workers=4)
        assert len(result) == 5
        assert result.requested_workers == 4
        assert result.effective_workers == 4  # chunks of 2,1,1,1

    def test_memoized_targets_are_served_from_the_parent(self):
        """A second explain_all ships nothing: every memo is still valid.

        This is what keeps refresh + parallel cheap — answers a refresh
        kept are never re-fanned out, so the pool only sees stale work.
        """
        rng = random.Random(23)
        db = random_instance(rng)
        explainer = BatchExplainer(QUERY, db)
        first = explainer.explain_all(workers=2)
        assert first.transport != "serial"
        again = explainer.explain_all(workers=2)
        assert again.transport == "serial"  # nothing left to ship
        assert_same_explanations(again, first, "memoized")
        for key in first:
            assert again[key] is explainer._explanations[key]

    def test_single_target_falls_back_to_serial(self):
        db = Database()
        db.add_fact("R", "a2", "a1")
        db.add_fact("S", "a1")
        result = BatchExplainer(QUERY, db).explain_all(workers=4)
        assert result.transport == "serial"
        assert result.effective_workers == 1


class TestStealingEquivalence:
    """``chunking="stealing"``: workers claim fine chunks from a shared index.

    The parent still finishes the valuation pass and the workers inherit
    it; only the order in which targets reach the workers changes.  However
    the claims land, the merged result must be bit-identical to the serial
    path — causes, rankings, key order, memos and merged cache contents.
    """

    @pytest.mark.parametrize("transport", PROCESS_TRANSPORTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_whyso_stealing_matches_serial(self, backend, transport):
        rng = random.Random(31)
        db = random_instance(rng)
        serial = BatchExplainer(QUERY, db, backend=backend).explain_all()
        if len(serial) < 2:
            pytest.skip("random instance too small to fan out")
        explainer = BatchExplainer(QUERY, db, backend=backend)
        pooled = explainer.explain_all(workers=2, transport=transport,
                                       chunking="stealing")
        assert_same_explanations(pooled, serial, (backend, transport))
        assert pooled.transport == transport
        # The merged memos keep serving exactly what serial computed.
        for key in serial:
            assert ranking(explainer.explain(key)) == ranking(serial[key])

    @pytest.mark.parametrize("transport", PROCESS_TRANSPORTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_whyno_stealing_matches_serial(self, backend, transport):
        rng = random.Random(47)
        db = random_instance(rng)
        actual = evaluate(QUERY, db)
        targets = [(f"a{i}",) for i in range(9) if (f"a{i}",) not in actual]
        assert len(targets) >= 2
        serial = WhyNoBatchExplainer(QUERY, db,
                                     non_answers=targets).explain_all()
        explainer = WhyNoBatchExplainer(QUERY, db, non_answers=targets,
                                        backend=backend)
        pooled = explainer.explain_all(workers=2, transport=transport,
                                       chunking="stealing")
        assert_same_explanations(pooled, serial, (backend, transport))
        assert pooled.transport == transport
        for key in targets:
            assert ranking(explainer.explain(key)) == ranking(serial[key])

    @pytest.mark.parametrize("workers", (2, 3))
    def test_whyso_stealing_worker_counts(self, workers):
        rng = random.Random(53)
        db = random_instance(rng)
        serial = BatchExplainer(QUERY, db).explain_all()
        if len(serial) < 2:
            pytest.skip("random instance too small to fan out")
        pooled = BatchExplainer(QUERY, db).explain_all(workers=workers,
                                                       chunking="stealing")
        assert_same_explanations(pooled, serial, workers)

    def test_stealing_explicit_subset_and_validation(self):
        """Explicit targets are claimed too, and bad targets raise like serial."""
        rng = random.Random(61)
        db = random_instance(rng)
        serial_explainer = BatchExplainer(QUERY, db)
        serial = serial_explainer.explain_all()
        if len(serial) < 3:
            pytest.skip("random instance too small for a subset")
        subset = sorted(serial)[:3]
        explainer = BatchExplainer(QUERY, db)
        pooled = explainer.explain_all(answers=subset, workers=2,
                                       chunking="stealing")
        assert list(pooled) == subset
        for key in subset:
            assert ranking(pooled[key]) == ranking(serial[key])
        with pytest.raises(CausalityError) as stealing_err:
            BatchExplainer(QUERY, db).explain_all(
                answers=[("nope",)], workers=2, chunking="stealing",
                transport=PROCESS_TRANSPORTS[0])
        with pytest.raises(CausalityError) as serial_err:
            BatchExplainer(QUERY, db).explain_all(answers=[("nope",)])
        assert str(stealing_err.value) == str(serial_err.value)

    def test_stealing_cache_merge_equals_serial(self):
        """``method="exact"`` fills the cache; stolen-chunk merges match serial."""
        rng = random.Random(11)
        db = random_instance(rng)
        serial_explainer = BatchExplainer(QUERY, db, method="exact")
        serial = serial_explainer.explain_all()
        if len(serial) < 2:
            pytest.skip("random instance too small to fan out")
        explainer = BatchExplainer(QUERY, db, method="exact")
        pooled = explainer.explain_all(workers=2, chunking="stealing")
        assert_same_explanations(pooled, serial, "stealing cache")
        assert dict(explainer.cache.export_entries()) == \
            dict(serial_explainer.cache.export_entries())


class TestPathologicalSkew:
    """One answer's lineage is ~100× the rest: stealing must absorb it.

    With contiguous chunking the worker that owns the heavy answer
    serialises the whole pass; work-stealing re-balances — but however
    the chunks land, the explanations and their ranked order must not
    change with the worker count (no ordering or worker-count leak).
    """

    SKEW_QUERY = parse_query("q(x) :- R(x, y), S(y, z)")

    def test_skewed_lineage_is_bit_identical_across_worker_counts(self):
        db = sharded_fanout_instance(n_answers=12, witnesses_per_answer=2,
                                     seed=5, skew_factor=100)
        serial = BatchExplainer(self.SKEW_QUERY, db).explain_all()
        assert len(serial) == 12
        heavy = max(serial.values(), key=lambda e: len(e.causes))
        light = min(serial.values(), key=lambda e: len(e.causes))
        assert len(heavy.causes) >= 50 * len(light.causes)
        for workers in (2, 3, 7):
            explainer = BatchExplainer(self.SKEW_QUERY, db)
            pooled = explainer.explain_all(workers=workers,
                                           chunking="stealing")
            assert_same_explanations(pooled, serial, workers)
            assert list(pooled) == list(serial)  # no ordering leak

    def test_skewed_lineage_with_contiguous_chunks(self):
        """Contiguous chunks leave the heavy answer on one worker; same output."""
        db = sharded_fanout_instance(n_answers=8, witnesses_per_answer=2,
                                     seed=7, skew_factor=100)
        serial = BatchExplainer(self.SKEW_QUERY, db).explain_all()
        for workers in (2, 3):
            pooled = BatchExplainer(self.SKEW_QUERY, db).explain_all(
                workers=workers, chunking="contiguous")
            assert_same_explanations(pooled, serial, workers)


@pytest.mark.slow
class TestParallelSweep:
    """Larger randomized sweep (deselected by default)."""

    @pytest.mark.parametrize("transport", PROCESS_TRANSPORTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(10))
    def test_whyso_sweep(self, seed, backend, transport):
        rng = random.Random(9000 + seed)
        db = random_instance(rng)
        serial = BatchExplainer(QUERY, db, backend=backend).explain_all()
        if len(serial) < 2:
            pytest.skip("random instance too small to fan out")
        for workers in WORKER_COUNTS:
            pooled = BatchExplainer(QUERY, db, backend=backend).explain_all(
                workers=workers, transport=transport)
            assert_same_explanations(pooled, serial,
                                     (seed, backend, transport, workers))

    @pytest.mark.parametrize("transport", PROCESS_TRANSPORTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(10))
    def test_whyno_sweep(self, seed, backend, transport):
        rng = random.Random(9500 + seed)
        db = random_instance(rng)
        actual = evaluate(QUERY, db)
        targets = [(f"a{i}",) for i in range(9) if (f"a{i}",) not in actual]
        assert len(targets) >= 2
        serial = WhyNoBatchExplainer(QUERY, db, non_answers=targets,
                                     backend=backend).explain_all()
        for workers in WORKER_COUNTS:
            pooled = WhyNoBatchExplainer(
                QUERY, db, non_answers=targets,
                backend=backend).explain_all(workers=workers,
                                             transport=transport)
            assert_same_explanations(pooled, serial,
                                     (seed, backend, transport, workers))
