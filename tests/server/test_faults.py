"""Fault injection against a live server: failures are typed, never hangs.

Three families, per the service contract:

* a fan-out worker dying mid-stream surfaces a typed ``worker-failed``
  error frame with the partial-result marker — and the session keeps
  serving afterwards;
* a client that disconnects (or times out) has its work abandoned without
  poisoning the session — the worker thread serializes everything, in
  arrival order, and a read's timeout counts its wait behind a delta;
* admission control rejects cheaply and typed: full queue, unbounded
  Why-No cost, oversized frames.

The worker thread is blocked *deterministically* with events (no sleeps):
the resident session's ``explain`` is wrapped so the test controls exactly
when the thread is stuck and when it is released.
"""

import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro.engine import batch as batch_module
from repro.engine._pool import FanOutSpec
from repro.exceptions import AdmissionError, RequestTimeout, ServerError
from repro.server import AdmissionPolicy, SessionConfig, running_server
from repro.server.protocol import decode_frame, encode_frame

from .conftest import QUERY_TEXT, example_payload

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Removes answer a3 and one of a4's two witnesses.
DELETE_S3 = {"delete": {"relations": {"S": [["a3"]]}}}


def _exit_on_marked_answer(explainer, answer):
    """Kill the worker process outright when it reaches the marked answer."""
    if answer == ("a4",):
        os._exit(7)
    return batch_module._whyso_worker_explain(explainer, answer)


def _config(**policy_knobs):
    return SessionConfig("mem", QUERY_TEXT, example_payload(),
                         policy=AdmissionPolicy(**policy_knobs))


def _block_worker(harness, name="mem", method="explain"):
    """Make the session's ``method`` park on an event; returns the controls.

    ``entered`` fires when the worker thread is inside the blocked call;
    ``release`` lets it proceed (the wrapper then behaves normally, so the
    session is usable for the rest of the test).
    """
    session = harness.server.registry.get(name)._session
    original = getattr(session, method)
    entered = threading.Event()
    release = threading.Event()

    def blocking_call(*args, **kwargs):
        entered.set()
        assert release.wait(timeout=30), "test never released the worker"
        return original(*args, **kwargs)

    setattr(session, method, blocking_call)
    return entered, release


def _poll(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestWorkerDeathMidStream:
    @pytest.mark.skipif(not HAS_FORK, reason="fork transport is POSIX-only")
    def test_dead_worker_is_a_typed_partial_error_frame(self, monkeypatch):
        configs = [SessionConfig("mem", QUERY_TEXT, example_payload(),
                                 workers=2, transport="fork")]
        with running_server(configs) as harness:
            monkeypatch.setattr(
                batch_module, "_WHYSO_SPEC",
                FanOutSpec(compute=_exit_on_marked_answer,
                           setup=batch_module._whyso_worker_setup))
            with harness.client() as client:
                all_answers = client.answers("mem")["answers"]
                chunks, terminal = client.stream("explain-batch",
                                                 session="mem")
                assert terminal["type"] == "error"
                assert terminal["code"] == "worker-failed"
                assert terminal["partial"] is True
                assert ["a4"] in terminal["failed"]
                # Every requested answer is accounted for — no silent shrink.
                accounted = (terminal["delivered"] + terminal["failed"]
                             + terminal["missing"])
                assert sorted(map(tuple, accounted)) == \
                    sorted(map(tuple, all_answers))
                streamed = [w["answer"] for chunk in chunks
                            for w in chunk["explanations"]]
                assert streamed == terminal["delivered"]
                assert ["a4"] not in streamed

                # Non-streaming hits the same typed error (nothing partial
                # was sent, so the marker is off).
                with pytest.raises(ServerError) as excinfo:
                    client.explain_batch("mem")
                assert excinfo.value.code == "worker-failed"
                assert excinfo.value.frame["partial"] is False

                # The session is not poisoned: with the real spec back,
                # the very same session answers in full.
                monkeypatch.undo()
                chunks, end = client.stream("explain-batch", session="mem")
                assert end["type"] == "end"
                assert end["partial"] is False
                delivered = [w["answer"] for chunk in chunks
                             for w in chunk["explanations"]]
                assert sorted(map(tuple, delivered)) == \
                    sorted(map(tuple, all_answers))


class TestAbandonedClients:
    def test_disconnect_cancels_queued_work_without_poisoning(self):
        with running_server([_config(max_pending=8)]) as harness:
            entered, release = _block_worker(harness)
            doomed = harness.client()
            doomed.send_raw({"id": 1, "op": "explain", "session": "mem",
                             "answer": ["a4"]})
            assert entered.wait(timeout=10)
            # The request is in the worker; the client walks away.
            doomed.close()
            gate = harness.server.registry.get("mem").gate
            assert _poll(lambda: gate.pending == 0), \
                "disconnect did not release the admission slot"
            release.set()
            with harness.client() as client:
                assert client.ping() is True
                frame = client.explain("mem", ["a4"])
                assert frame["explanation"]["answer"] == ["a4"]
                assert frame["epoch"] == 0

    def test_request_timeout_is_typed_and_session_survives(self):
        with running_server([_config(max_pending=8,
                                     request_timeout=0.3)]) as harness:
            entered, release = _block_worker(harness)
            with harness.client() as client:
                with pytest.raises(RequestTimeout) as excinfo:
                    client.explain("mem", ["a4"])
                assert excinfo.value.code == "timeout"
                assert "abandoned" in str(excinfo.value)
                release.set()
                # The abandoned job drains on the worker thread; the
                # session then serves the same request normally.
                frame = client.explain("mem", ["a4"])
                assert frame["explanation"]["answer"] == ["a4"]
                stats = client.stats()["mem"]
                assert stats["admission"]["rejections"]["timeout"] == 1


class TestWorkerQueueOrder:
    """The worker thread's FIFO queue is the session's one serializer."""

    def test_read_after_a_delta_sees_the_delta(self):
        with running_server([_config(max_pending=8)]) as harness:
            entered, release = _block_worker(harness)
            pipelined = harness.client()
            # A read holds the worker; a delta and a second read queue
            # behind it, in arrival order.
            pipelined.send_raw({"id": 1, "op": "explain", "session": "mem",
                                "answer": ["a4"]})
            pipelined.send_raw({"id": 2, "op": "delta", "session": "mem",
                                "changes": DELETE_S3})
            pipelined.send_raw({"id": 3, "op": "explain", "session": "mem",
                                "answer": ["a4"]})
            assert entered.wait(timeout=10)
            gate = harness.server.registry.get("mem").gate
            assert _poll(lambda: gate.pending == 3)
            release.set()
            frames = [pipelined.recv() for _ in range(3)]
            pipelined.close()
            assert all(f["type"] == "result" for f in frames), frames
            assert {f["id"]: f["epoch"] for f in frames} == {1: 0, 2: 1, 3: 1}

    @pytest.mark.parametrize("stream", [False, True])
    def test_batch_then_delta_keep_frame_order(self, stream):
        """A streaming op queues its job in frame order, like ``explain``."""
        with running_server([_config(max_pending=8)]) as harness:
            entered, release = _block_worker(harness)
            blocker = harness.client()
            blocker.send_raw({"id": 0, "op": "explain", "session": "mem",
                              "answer": ["a4"]})
            assert entered.wait(timeout=10)
            # Both frames in one write, so the server reads them in one go.
            with socket.create_connection((harness.host, harness.port),
                                          timeout=10) as sock:
                sock.sendall(
                    encode_frame({"id": 1, "op": "explain-batch",
                                  "session": "mem", "stream": stream})
                    + encode_frame({"id": 2, "op": "delta", "session": "mem",
                                    "changes": DELETE_S3}))
                gate = harness.server.registry.get("mem").gate
                assert _poll(lambda: gate.pending == 3)
                release.set()
                epochs = {}
                with sock.makefile("rb") as lines:
                    while len(epochs) < 2:
                        frame = decode_frame(lines.readline())
                        if frame["type"] != "chunk":
                            epochs[frame["id"]] = frame["epoch"]
            assert blocker.recv()["epoch"] == 0
            blocker.close()
            assert epochs == {1: 0, 2: 1}

    def test_request_timeout_counts_the_wait_behind_a_delta(self):
        with running_server([_config(max_pending=8,
                                     request_timeout=0.3)]) as harness:
            entered, release = _block_worker(harness, method="refresh_all")
            writer = harness.client()
            writer.send_raw({"id": 1, "op": "delta", "session": "mem",
                             "changes": DELETE_S3})
            try:
                assert entered.wait(timeout=10)
                with harness.client(timeout=10) as reader:
                    with pytest.raises(RequestTimeout) as excinfo:
                        reader.explain("mem", ["a4"])
                assert excinfo.value.code == "timeout"
            finally:
                release.set()
            frame = writer.recv()
            writer.close()
            assert frame["type"] == "result" and frame["epoch"] == 1
            with harness.client() as client:
                frame = client.explain("mem", ["a4"])
                assert frame["epoch"] == 1
                assert frame["explanation"]["answer"] == ["a4"]


class TestAdmissionRejections:
    def test_full_queue_is_a_typed_429(self):
        with running_server([_config(max_pending=2)]) as harness:
            entered, release = _block_worker(harness)
            pipelined = harness.client()
            # Two pipelined requests fill the queue: one stuck in the
            # worker, one queued behind it — both hold admission slots.
            pipelined.send_raw({"id": 1, "op": "explain", "session": "mem",
                                "answer": ["a4"]})
            pipelined.send_raw({"id": 2, "op": "explain", "session": "mem",
                                "answer": ["a2"]})
            assert entered.wait(timeout=10)
            gate = harness.server.registry.get("mem").gate
            assert _poll(lambda: gate.pending == 2)
            with harness.client() as client:
                with pytest.raises(AdmissionError) as excinfo:
                    client.explain("mem", ["a3"])
                assert excinfo.value.code == "queue-full"
                assert "retry later" in str(excinfo.value)
            release.set()
            # The queued requests were never lost: both complete.
            got = {pipelined.recv()["id"], pipelined.recv()["id"]}
            assert got == {1, 2}
            pipelined.close()
            with harness.client() as client:
                rejections = client.stats()["mem"]["admission"]["rejections"]
                assert rejections["queue-full"] == 1

    def test_whyno_cost_cap(self):
        with running_server([_config(max_pending=8,
                                     max_candidates_cap=8)]) as harness:
            with harness.client() as client:
                with pytest.raises(AdmissionError) as unbounded:
                    client.whyno("mem", domains={"y": ["a3"]})
                assert unbounded.value.code == "cost-cap"
                with pytest.raises(AdmissionError) as over:
                    client.whyno("mem", domains={"y": ["a3"]},
                                 max_candidates=100)
                assert over.value.code == "cost-cap"
                frame = client.whyno("mem", domains={"y": ["a3"]},
                                     max_candidates=8)
                assert frame["count"] == len(frame["explanations"])

    def test_oversized_frame_is_rejected_then_closed(self):
        with running_server([_config(max_pending=8)],
                            max_frame_bytes=2048) as harness:
            with harness.client() as client:
                client.send_raw({"id": 1, "op": "explain", "session": "mem",
                                 "answer": ["a4"], "padding": "x" * 10_000})
                frame = client.recv()
                assert frame["type"] == "error"
                assert frame["code"] == "oversized-request"
                # The stream cannot be resynchronized: the server closes it.
                with pytest.raises(ServerError) as excinfo:
                    client.recv()
                assert excinfo.value.code == "connection-closed"
            # Other clients are unaffected.
            with harness.client() as client:
                assert client.ping() is True
