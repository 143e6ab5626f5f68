"""The explanation service end to end: a real server, real sockets.

Every test drives the full stack — asyncio front-end, admission gate,
worker thread, engines — through blocking clients, and
checks results bit-exactly against the direct library API (responsibilities
compare as exact fraction strings, never floats).
"""

import threading

import pytest

from repro.core.api import ExplanationSession
from repro.exceptions import ProtocolError
from repro.relational import parse_query
from repro.server import (
    SessionConfig,
    ServerHarness,
    explanations_to_wire,
    explanation_to_wire,
)

from .conftest import QUERY_TEXT, example_db, example_payload

SESSIONS = ("mem", "lite")


def direct_session(backend: str) -> ExplanationSession:
    return ExplanationSession(parse_query(QUERY_TEXT), example_db(),
                              backend=backend)


class TestBasicOps:
    def test_ping_and_sessions(self, harness):
        with harness.client() as client:
            assert client.ping() is True
            assert client.sessions() == ["lite", "mem"]

    def test_answers_matches_direct_api(self, harness):
        expected = [list(a) for a in direct_session("memory").answers()]
        with harness.client() as client:
            for name in SESSIONS:
                frame = client.answers(name)
                assert frame["answers"] == expected
                assert frame["epoch"] == 0

    def test_stats_reports_sessions_and_admission(self, harness):
        with harness.client() as client:
            client.explain("mem", ["a4"])
            stats = client.stats()
            assert set(stats) == {"mem", "lite"}
            mem = stats["mem"]
            assert mem["session"]["backend"] == "memory"
            assert stats["lite"]["session"]["backend"] == "sqlite"
            assert mem["admission"]["pending"] == 0
            assert mem["admission"]["admitted"] >= 1
            assert mem["requests_served"] >= 1
            assert "cache_hits" in mem["engines"]

    @pytest.mark.parametrize("name,backend", [("mem", "memory"),
                                              ("lite", "sqlite")])
    def test_explain_matches_direct_api(self, harness, name, backend):
        session = direct_session(backend)
        with harness.client() as client:
            for answer in session.answers():
                frame = client.explain(name, list(answer))
                expected = explanation_to_wire(list(answer),
                                               session.explain(answer))
                assert frame["explanation"] == expected

    def test_explain_whyno_mode(self, harness):
        session = direct_session("memory")
        expected = explanation_to_wire(
            ["a6"], session.explain(("a6",), mode="why-no"))
        with harness.client() as client:
            frame = client.explain("mem", ["a6"], mode="why-no")
        assert frame["explanation"] == expected


class TestBatchAndStreaming:
    @pytest.mark.parametrize("name,backend", [("mem", "memory"),
                                              ("lite", "sqlite")])
    def test_batch_result_matches_direct_api(self, harness, name, backend):
        session = direct_session(backend)
        expected = explanations_to_wire(session.explain_all())
        with harness.client() as client:
            frame = client.explain_batch(name)
        assert frame["count"] == len(expected)
        assert frame["partial"] is False
        assert sorted(frame["explanations"], key=lambda w: w["answer"]) == \
            sorted(expected, key=lambda w: w["answer"])
        assert frame["transport"] in ("serial", "fork", "shared-memory")

    @pytest.mark.parametrize("name,backend", [("mem", "memory"),
                                              ("lite", "sqlite")])
    def test_stream_delivers_every_answer_exactly_once(self, harness, name,
                                                       backend):
        session = direct_session(backend)
        expected = {tuple(w["answer"]): w
                    for w in explanations_to_wire(session.explain_all())}
        with harness.client() as client:
            chunks, end = client.stream("explain-batch", session=name)
        assert end["type"] == "end"
        assert end["partial"] is False
        streamed = [w for chunk in chunks for w in chunk["explanations"]]
        assert end["count"] == len(streamed)
        keys = [tuple(w["answer"]) for w in streamed]
        assert len(keys) == len(set(keys))
        assert {k: w for k, w in zip(keys, streamed)} == expected

    def test_subset_batch(self, harness):
        session = direct_session("memory")
        expected = explanations_to_wire(
            session.explain_all(answers=[("a2",), ("a4",)]))
        with harness.client() as client:
            frame = client.explain_batch("mem", answers=[["a2"], ["a4"]])
        assert frame["explanations"] == expected

    @pytest.mark.parametrize("name,backend", [("mem", "memory"),
                                              ("lite", "sqlite")])
    @pytest.mark.parametrize("stream", [False, True])
    def test_whyno_matches_direct_api(self, harness, name, backend, stream):
        domains = {"y": ["a3", "a6", "zz"]}
        session = direct_session(backend)
        expected = {tuple(w["answer"]): w for w in explanations_to_wire(
            session.for_missing_answers(domains=domains, max_candidates=64))}
        with harness.client() as client:
            if stream:
                chunks, end = client.stream("whyno", session=name,
                                            domains=domains,
                                            max_candidates=64)
                assert end["type"] == "end"
                streamed = [w for chunk in chunks
                            for w in chunk["explanations"]]
            else:
                streamed = client.whyno(name, domains=domains,
                                        max_candidates=64)["explanations"]
        assert {tuple(w["answer"]): w for w in streamed} == expected


class TestConcurrentClients:
    def test_eight_clients_mixed_ops_all_exact(self, harness):
        """Concurrent explains across sessions return bit-exact results."""
        per_backend = {name: direct_session(backend)
                       for name, backend in (("mem", "memory"),
                                             ("lite", "sqlite"))}
        expected = {
            name: {a: explanation_to_wire(list(a), session.explain(a))
                   for a in session.answers()}
            for name, session in per_backend.items()
        }
        errors = []

        def worker(index: int) -> None:
            name = SESSIONS[index % len(SESSIONS)]
            try:
                with harness.client() as client:
                    for _ in range(3):
                        for answer, wire in expected[name].items():
                            frame = client.explain(name, list(answer))
                            assert frame["explanation"] == wire
                        chunks, end = client.stream("explain-batch",
                                                    session=name)
                        assert end["type"] == "end"
                        streamed = {tuple(w["answer"]): w for chunk in chunks
                                    for w in chunk["explanations"]}
                        assert streamed == {k: v
                                            for k, v in expected[name].items()}
            except BaseException as error:  # noqa: BLE001 - collected
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors


class TestDeltas:
    def test_delta_refresh_and_epoch(self):
        configs = [SessionConfig(name, QUERY_TEXT, example_payload(),
                                 backend=backend)
                   for name, backend in (("mem", "memory"),
                                         ("lite", "sqlite"))]
        delete_s3 = {"delete": {"relations": {"S": [["a3"]]}}}
        with ServerHarness(configs) as live:
            with live.client() as client:
                for name, backend in (("mem", "memory"), ("lite", "sqlite")):
                    before = client.answers(name)
                    assert before["epoch"] == 0
                    frame = client.delta(name, delete_s3)
                    assert frame["epoch"] == 1
                    report = frame["refreshed"]["why-so"]
                    assert report["full_reset"] is False
                    assert report["removed_answers"] == [["a3"]]
                    assert ["a4"] in report["stale"]  # lost one witness

                    session = direct_session(backend)
                    session.refresh_all([_delta_of(delete_s3)])
                    after = client.answers(name)
                    assert after["epoch"] == 1
                    assert after["answers"] == \
                        [list(a) for a in session.answers()]
                    expected = explanations_to_wire(session.explain_all())
                    got = client.explain_batch(name)["explanations"]
                    assert sorted(got, key=lambda w: w["answer"]) == \
                        sorted(expected, key=lambda w: w["answer"])

    def test_delta_stream_applies_in_order(self):
        configs = [SessionConfig("mem", QUERY_TEXT, example_payload())]
        stream = [
            {"insert": {"relations": {"S": [["a5"]]}}},
            {"delete": {"relations": {"S": [["a5"]]}}},
            {"insert": {"relations": {"S": [["a5"]]}}},
        ]
        with ServerHarness(configs) as live:
            with live.client() as client:
                frame = client.delta("mem", stream)
                assert frame["epoch"] == 1  # one stream, one epoch
                answers = client.answers("mem")["answers"]
                assert ["a1"] in answers  # R(a1, a5) now witnessed


def _delta_of(payload):
    from repro.relational.delta import DatabaseDelta

    return DatabaseDelta.from_dict(payload)


class TestTypedErrors:
    def test_unknown_op(self, harness):
        with harness.client() as client:
            with pytest.raises(ProtocolError) as excinfo:
                client.request("warp")
            assert excinfo.value.code == "unknown-op"

    def test_unknown_session(self, harness):
        with harness.client() as client:
            with pytest.raises(ProtocolError) as excinfo:
                client.explain("nope", ["a4"])
            assert excinfo.value.code == "unknown-session"

    def test_malformed_json_line(self, harness):
        with harness.client() as client:
            client._file.write(b"this is not json\n")
            client._file.flush()
            frame = client.recv()
            assert frame["type"] == "error"
            assert frame["code"] == "bad-request"
            # The connection survives a malformed line.
            assert client.ping() is True

    def test_non_answer_explain_is_a_typed_error(self, harness):
        with harness.client() as client:
            with pytest.raises(Exception, match="not an answer"):
                client.explain("mem", ["zz"])
            assert client.ping() is True

