"""Delta streams: ``refresh_all`` ≡ one-at-a-time ``refresh`` ≡ from-scratch.

The lineage inverted index lets a whole stream of deltas land with one
batched probe and one re-derivation pass; this suite pins that the shortcut
is invisible.  For random instances and random 3-delta streams, on both
backends and for both engines:

* applying the stream via ``refresh_all`` yields bit-identical explanations
  to applying its deltas one ``refresh`` at a time, and to an engine built
  from scratch on the final database;
* the maintained inverted index ends up *equal* (same postings) to the index
  a from-scratch full pass builds — including after a parallel
  ``explain_all``;
* the cache's per-tuple key index stays exactly in sync with the live
  entries through parent-side computes, fan-outs and refreshes.

Why-No is monotone about dropped targets (a target answered at *any*
intermediate state is gone for good under sequential refresh, while the
stream only consults the final state), so there the sequential survivors are
a subset of the stream's and every survivor must match from-scratch.
"""

import random

import pytest

from repro.engine import BatchExplainer, WhyNoBatchExplainer
from repro.relational import evaluate

from test_incremental import (
    BACKENDS,
    QUERY,
    random_delta,
    random_instance,
    ranking,
)


def random_stream(rng, db, length=3):
    """A stream of deltas, each valid against the state its predecessors left.

    Generated against a probe copy so the caller's instance is untouched.
    """
    probe = db.copy()
    deltas = []
    for _ in range(length):
        delta = random_delta(rng, probe)
        delta.apply_to(probe)
        deltas.append(delta)
    return deltas


def assert_cache_index_consistent(cache):
    """The per-tuple key index is exactly the inverse of the live entries.

    A key is (simplified n-lineage, inspected tuple) and mentions the
    lineage's variables plus the inspected tuple.
    """
    expected = {}
    for key in cache._entries:
        phi_n, inspected = key
        for tup in phi_n.variables() | {inspected}:
            expected.setdefault(tup, set()).add(key)
    assert cache._tuple_keys == expected


class TestWhySoStreams:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_stream_equals_sequential_equals_scratch(self, seed, backend):
        rng = random.Random(9000 + seed)
        db = random_instance(rng)
        db_seq = db.copy()
        deltas = random_stream(rng, db)

        stream = BatchExplainer(QUERY, db, backend=backend)
        stream.explain_all()
        report = stream.refresh_all(deltas)
        expected_changed = set()
        sequential = BatchExplainer(QUERY, db_seq, backend=backend)
        sequential.explain_all()
        for delta in deltas:
            expected_changed |= sequential.refresh(delta).changed_tuples
        assert report.changed_tuples == frozenset(expected_changed)

        scratch = BatchExplainer(QUERY, db.copy(), backend=backend)
        streamed = stream.explain_all()
        stepped = sequential.explain_all()
        rebuilt = scratch.explain_all()
        assert set(streamed) == set(stepped) == set(rebuilt)
        for answer in rebuilt:
            assert ranking(streamed[answer]) == ranking(rebuilt[answer])
            assert ranking(stepped[answer]) == ranking(rebuilt[answer])

        # The incrementally maintained postings equal a from-scratch build.
        assert stream.lineage_index.snapshot() == \
            scratch.lineage_index.snapshot()
        assert sequential.lineage_index.snapshot() == \
            scratch.lineage_index.snapshot()

    @pytest.mark.parametrize("method", ["auto", "exact"])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_stream_after_fanout(self, seed, backend, method, suite_workers):
        """Serial work, a fan-out, then a stream: the parent's cache entries
        and its index both stay exact (``method="exact"`` fills the cache)."""
        rng = random.Random(9500 + seed)
        db = random_instance(rng)
        explainer = BatchExplainer(QUERY, db, method=method, backend=backend)
        workers = max(2, suite_workers)
        answers = explainer.answers()
        explainer.explain_all(answers[::2])  # serial: fills the parent cache
        explainer.explain_all(workers=workers)  # workers return explanations
        assert_cache_index_consistent(explainer.cache)
        deltas = random_stream(rng, db)
        explainer.refresh_all(deltas)
        assert_cache_index_consistent(explainer.cache)
        explainer.explain_all(explainer.answers()[::2])  # stale: recomputed
        refreshed = explainer.explain_all(workers=workers)
        scratch = BatchExplainer(QUERY, db.copy(), method=method,
                                 backend=backend)
        rebuilt = scratch.explain_all()
        assert list(refreshed) == list(rebuilt)
        for answer in rebuilt:
            assert ranking(refreshed[answer]) == ranking(rebuilt[answer])
        assert explainer.lineage_index.snapshot() == \
            scratch.lineage_index.snapshot()
        assert_cache_index_consistent(explainer.cache)


class TestWhyNoStreams:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_stream_survivors_match_scratch(self, seed, backend):
        rng = random.Random(9200 + seed)
        db = random_instance(rng)
        actual = evaluate(QUERY, db)
        targets = [(f"a{i}",) for i in range(5) if (f"a{i}",) not in actual]
        if not targets:
            pytest.skip("random instance answers every candidate head")
        domains = {"y": [f"b{j}" for j in range(4)]}
        db_seq = db.copy()
        deltas = random_stream(rng, db)

        stream = WhyNoBatchExplainer(QUERY, db, non_answers=targets,
                                     domains=domains, backend=backend)
        stream.explain_all()
        stream.refresh_all(deltas)
        sequential = WhyNoBatchExplainer(QUERY, db_seq, non_answers=targets,
                                         domains=domains, backend=backend)
        sequential.explain_all()
        for delta in deltas:
            sequential.refresh(delta)

        # Dropping is monotone under sequential application (see module doc).
        assert set(sequential.non_answers) <= set(stream.non_answers)
        final_answers = evaluate(QUERY, db)
        for key in stream.non_answers:
            assert key not in final_answers

        streamed = stream.explain_all()
        stepped = sequential.explain_all()
        if stream.non_answers:
            scratch = WhyNoBatchExplainer(
                QUERY, db.copy(), non_answers=list(stream.non_answers),
                domains=domains, backend=backend).explain_all()
            for key in stream.non_answers:
                assert ranking(streamed[key]) == ranking(scratch[key])
            for key in sequential.non_answers:
                assert ranking(stepped[key]) == ranking(scratch[key])


class TestSessionStreams:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_session_refresh_all_drives_both_engines(self, backend):
        from repro.core.api import ExplanationSession

        rng = random.Random(97)
        db = random_instance(rng)
        session = ExplanationSession(QUERY, db, backend=backend)
        session.explain_all()
        deltas = random_stream(rng, db)
        reports = session.refresh_all(deltas)
        assert reports["why-so"] is not None
        refreshed = session.explain_all()
        rebuilt = BatchExplainer(QUERY, db.copy(),
                                 backend=backend).explain_all()
        assert list(refreshed) == list(rebuilt)
        for answer in rebuilt:
            assert ranking(refreshed[answer]) == ranking(rebuilt[answer])

    def test_session_applies_stream_once_with_no_engines(self):
        from repro.core.api import ExplanationSession

        rng = random.Random(98)
        db = random_instance(rng)
        expected = db.copy()
        deltas = random_stream(rng, db)
        for delta in deltas:
            delta.apply_to(expected)
        session = ExplanationSession(QUERY, db)
        reports = session.refresh_all(deltas)
        assert reports == {"why-so": None, "why-no": None}
        assert set(db.all_tuples()) == set(expected.all_tuples())
