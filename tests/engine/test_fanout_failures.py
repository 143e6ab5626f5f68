"""Failure injection for the fan-out pool.

A worker that raises must surface as a typed
:class:`~repro.exceptions.FanOutWorkerError` in the parent, *naming the
offending target*; a worker process that dies outright must surface the same
typed error naming its chunk — never a hang, never a partially merged cache.
After a failed fan-out the parent engine must remain fully usable.

The compute/setup functions live at module level so every transport
(including spawn-based shared-memory) can pickle them by reference.
"""

import multiprocessing
import os

import pytest

from repro.engine import BatchExplainer
from repro.engine import batch as batch_module
from repro.engine._pool import CHUNKINGS, FanOutSpec, _chunk_targets, fan_out
from repro.exceptions import CausalityError, FanOutError, FanOutWorkerError
from repro.relational import Database, parse_query

QUERY = parse_query("q(x) :- R(x, y), S(y)")
HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
TRANSPORTS = ("serial",) + (("fork",) if HAS_FORK else ()) + ("shared-memory",)

POISON = "t2"


def _compute_or_raise(state, target):
    if target == POISON:
        raise ValueError(f"injected failure for {target}")
    return state + target


def _compute_or_die(state, target):
    if target == POISON:
        os._exit(13)  # simulate a worker killed mid-chunk
    return state + target


def _setup_that_raises(state):
    raise RuntimeError("injected setup failure")


def _explode_on_marked_answer(explainer, answer):
    if answer == ("a4",):
        raise RuntimeError("injected per-answer failure")
    return batch_module._whyso_worker_explain(explainer, answer)


def _exit_on_marked_answer(explainer, answer):
    if answer == ("a4",):
        os._exit(7)
    return batch_module._whyso_worker_explain(explainer, answer)


def failed_chunk(targets, transport, chunking):
    """The chunk holding ``POISON`` when 2 workers split ``targets``."""
    chunks = [targets] if transport == "serial" \
        else _chunk_targets(targets, 2, chunking)
    return next(chunk for chunk in chunks if POISON in chunk)


def example_db() -> Database:
    db = Database()
    for x, y in [("a1", "a5"), ("a2", "a1"), ("a3", "a3"), ("a4", "a3"),
                 ("a4", "a2")]:
        db.add_fact("R", x, y)
    for y in ["a1", "a2", "a3", "a4", "a6"]:
        db.add_fact("S", y)
    return db


@pytest.mark.parametrize("chunking", CHUNKINGS)
class TestPoolFailures:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_raising_worker_names_the_target(self, transport, chunking):
        spec = FanOutSpec(compute=_compute_or_raise)
        with pytest.raises(FanOutWorkerError) as excinfo:
            fan_out(["t1", "t2", "t3", "t4"], "state-", spec, workers=2,
                    transport=transport, chunking=chunking)
        error = excinfo.value
        assert error.target == POISON
        assert error.targets == (POISON,)
        assert error.transport == transport
        assert "ValueError" in error.detail
        assert POISON in str(error)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_setup_failure_names_the_chunk(self, transport, chunking):
        spec = FanOutSpec(compute=_compute_or_raise,
                          setup=_setup_that_raises)
        with pytest.raises(FanOutWorkerError) as excinfo:
            fan_out(["t1", "t3"], "state-", spec, workers=2,
                    transport=transport, chunking=chunking)
        error = excinfo.value
        assert error.target is None or len(error.targets) == 1
        assert set(error.targets) <= {"t1", "t3"}
        assert "RuntimeError" in error.detail

    @pytest.mark.skipif(not HAS_FORK, reason="fork transport is POSIX-only")
    def test_dying_worker_process_is_a_typed_error_not_a_hang(self,
                                                              chunking):
        spec = FanOutSpec(compute=_compute_or_die)
        with pytest.raises(FanOutWorkerError) as excinfo:
            fan_out(["t1", "t2", "t3", "t4"], "state-", spec, workers=2,
                    transport="fork", chunking=chunking)
        error = excinfo.value
        # The process died without reporting, so the whole chunk is named.
        assert POISON in error.targets
        assert error.transport == "fork"

    @pytest.mark.parametrize("transport,workers", [
        ("carrier-pigeon", 2), ("auto", 0), ("auto", -3), ("serial", 0),
        ("fork" if HAS_FORK else "shared-memory", -2)])
    def test_unknown_transport_is_typed(self, transport, workers, chunking):
        """Unknown transports and worker counts below 1 are typed errors."""
        with pytest.raises(FanOutError) as excinfo:
            fan_out(["t1", "t3"], "s", FanOutSpec(compute=_compute_or_raise),
                    workers=workers, transport=transport, chunking=chunking)
        assert not isinstance(excinfo.value, FanOutWorkerError)

    def test_successful_run_keeps_all_targets(self, chunking):
        spec = FanOutSpec(compute=_compute_or_raise)
        result = fan_out(["t1", "t3", "t4"], "s-", spec, workers=2,
                         transport="fork" if HAS_FORK else "shared-memory",
                         chunking=chunking)
        assert dict(result) == {"t1": "s-t1", "t3": "s-t3", "t4": "s-t4"}


@pytest.mark.parametrize("chunking", CHUNKINGS)
class TestStreamingChunks:
    """The ``on_chunk`` streaming seam: complete, ordered, never silent.

    The invariant mirrors the failure contract of the pool: every requested
    target is delivered in exactly one chunk on success, a failed chunk is
    *never* delivered, and after a failure the typed error plus its
    ``requested`` list account for every target — delivered, failed or
    missing — so a consumer can always mark a shortened ranking as partial.
    """

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_pool_streams_each_successful_chunk_once(self, transport,
                                                     chunking):
        spec = FanOutSpec(compute=_compute_or_raise)
        chunks = []
        result = fan_out(["t1", "t3", "t4", "t5"], "s-", spec, workers=2,
                         transport=transport, chunking=chunking,
                         on_chunk=lambda t, r: chunks.append((t, r)))
        delivered = [t for targets, _ in chunks for t in targets]
        assert sorted(delivered) == ["t1", "t3", "t4", "t5"]
        merged = {}
        for _, results in chunks:
            merged.update(results)
        assert merged == dict(result)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_pool_never_streams_a_failed_chunk(self, transport, chunking):
        spec = FanOutSpec(compute=_compute_or_raise)
        targets = ["t1", "t2", "t3", "t4"]
        chunks = []
        with pytest.raises(FanOutWorkerError):
            fan_out(targets, "s-", spec, workers=2,
                    transport=transport, chunking=chunking,
                    on_chunk=lambda t, r: chunks.append(list(t)))
        delivered = [t for chunk in chunks for t in chunk]
        # The poisoned chunk as a whole is withheld, not just the target.
        assert not set(failed_chunk(targets, transport, chunking)) \
            & set(delivered)

    @pytest.mark.skipif(not HAS_FORK, reason="fork transport is POSIX-only")
    def test_pool_streams_survivor_chunks_when_a_worker_dies(self,
                                                             chunking):
        spec = FanOutSpec(compute=_compute_or_die)
        targets = ["t1", "t2", "t3", "t4"]
        chunks = []
        with pytest.raises(FanOutWorkerError):
            fan_out(targets, "s-", spec, workers=2,
                    transport="fork", chunking=chunking,
                    on_chunk=lambda t, r: chunks.append(list(t)))
        delivered = [t for chunk in chunks for t in chunk]
        assert not set(failed_chunk(targets, "fork", chunking)) \
            & set(delivered)

    @pytest.mark.parametrize("workers,transport",
                             [(None, "serial"), (2, "shared-memory")]
                             + ([(2, "fork")] if HAS_FORK else []))
    def test_engine_streams_every_answer_exactly_once(self, workers,
                                                      transport, chunking):
        explainer = BatchExplainer(QUERY, example_db(), method="exact")
        chunks = []
        result = explainer.explain_all(
            workers=workers, transport=transport, chunking=chunking,
            on_chunk=lambda t, r: chunks.append((list(t), dict(r))))
        delivered = [t for targets, _ in chunks for t in targets]
        assert sorted(delivered) == sorted(result)
        assert len(delivered) == len(set(delivered))
        merged = {}
        for _, results in chunks:
            merged.update(results)
        assert {k: [(c.tuple, c.responsibility) for c in v.ranked()]
                for k, v in merged.items()} == \
               {k: [(c.tuple, c.responsibility) for c in v.ranked()]
                for k, v in result.items()}

    @pytest.mark.skipif(not HAS_FORK, reason="fork transport is POSIX-only")
    def test_engine_streams_memoized_answers_first(self, chunking):
        explainer = BatchExplainer(QUERY, example_db(), method="exact")
        warm = ("a2",)
        explainer.explain(warm)
        chunks = []
        explainer.explain_all(workers=2, transport="fork", chunking=chunking,
                              on_chunk=lambda t, r: chunks.append(list(t)))
        assert warm in chunks[0]
        delivered = [t for targets in chunks for t in targets]
        assert len(delivered) == len(set(delivered))

    @pytest.mark.skipif(not HAS_FORK, reason="fork transport is POSIX-only")
    @pytest.mark.parametrize("compute", [_explode_on_marked_answer,
                                         _exit_on_marked_answer])
    def test_engine_failure_accounts_for_every_target(self, compute,
                                                      monkeypatch, chunking):
        """delivered + failed + missing == requested; no silent shrink."""
        explainer = BatchExplainer(QUERY, example_db(), method="exact")
        monkeypatch.setattr(
            batch_module, "_WHYSO_SPEC",
            FanOutSpec(compute=compute,
                       setup=batch_module._whyso_worker_setup))
        chunks = []
        with pytest.raises(FanOutWorkerError) as excinfo:
            explainer.explain_all(workers=2, transport="fork",
                                  chunking=chunking,
                                  on_chunk=lambda t, r: chunks.append(list(t)))
        error = excinfo.value
        delivered = [t for targets in chunks for t in targets]
        assert ("a4",) in error.targets
        assert ("a4",) not in delivered
        # The error names the full batch; everything is accounted for.
        assert sorted(error.requested) == sorted(explainer.answers())
        accounted = set(delivered) | set(error.targets)
        missing = set(error.requested) - accounted
        assert accounted | missing == set(error.requested)
        assert len(delivered) == len(set(delivered))


class TestEngineFailures:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_non_answer_target_rejected_identically(self, workers):
        """Serial and fan-out validate targets with the same error, and
        both reject the batch before streaming any of it."""
        explainer = BatchExplainer(QUERY, example_db())
        chunks = []
        with pytest.raises(CausalityError, match="not an answer") as error:
            explainer.explain_all(answers=[("a2",), ("a3",), ("zz",)],
                                  workers=workers,
                                  on_chunk=lambda t, r: chunks.append(t))
        assert str(error.value) == \
            "('zz',) is not an answer on this database; use mode='why-no'"
        assert chunks == []

    @pytest.mark.skipif(not HAS_FORK, reason="fork transport is POSIX-only")
    @pytest.mark.parametrize("compute", [_explode_on_marked_answer,
                                         _exit_on_marked_answer])
    def test_failed_fanout_leaves_parent_usable(self, compute, monkeypatch):
        """A failed fan-out merges nothing and the engine keeps working."""
        db = example_db()
        expected = BatchExplainer(QUERY, db, method="exact").explain_all()

        explainer = BatchExplainer(QUERY, db, method="exact")
        monkeypatch.setattr(
            batch_module, "_WHYSO_SPEC",
            FanOutSpec(compute=compute,
                       setup=batch_module._whyso_worker_setup))
        with pytest.raises(FanOutWorkerError) as excinfo:
            explainer.explain_all(workers=2, transport="fork")
        assert ("a4",) in excinfo.value.targets

        # Nothing was merged: no memoized explanations, no cache entries.
        assert explainer._explanations == {}
        assert len(explainer.cache) == 0

        # The parent engine is still fully usable — serial and parallel.
        monkeypatch.undo()
        serial_after = explainer.explain_all()
        assert {k: [(c.tuple, c.responsibility) for c in v.ranked()]
                for k, v in serial_after.items()} == \
               {k: [(c.tuple, c.responsibility) for c in v.ranked()]
                for k, v in expected.items()}
        parallel_after = explainer.explain_all(workers=2)
        assert list(parallel_after) == list(expected)
