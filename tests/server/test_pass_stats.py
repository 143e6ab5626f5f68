"""PassStats lifetime in resident sessions: the most recent pass, not a total.

A server session lives across many requests, so its ``engine_stats()``
``pass_*`` counters are scraped repeatedly.  The historical bug: the
evaluator's :class:`~repro.relational.columnar.PassStats` never reset, so a
long-lived session accumulated counters across passes and every scrape
reported a meaningless running total.  The contract now is that each
``valuations_blocks`` call resets the counters first — whatever a monitor
reads describes exactly one pass, the engine's most recent.
"""

import pytest

from repro.core.api import ExplanationSession
from repro.relational import DatabaseDelta, Tuple, parse_query
from repro.server import AdmissionPolicy, SessionConfig, ServerHarness

from .conftest import QUERY_TEXT, example_db, example_payload


def pass_counters(stats):
    return {key: value for key, value in stats.items()
            if key.startswith("pass_")}


class TestSessionPassStats:
    """The library session the server embeds."""

    def test_counters_describe_exactly_one_pass(self):
        session = ExplanationSession(parse_query(QUERY_TEXT), example_db())
        session.explain_all()
        stats = session.engine_stats()
        assert stats["pass_columnar_passes"] == 1
        fresh = ExplanationSession(parse_query(QUERY_TEXT), example_db())
        fresh.explain_all()
        assert pass_counters(stats) == pass_counters(fresh.engine_stats())

    def test_a_later_pass_overwrites_instead_of_accumulating(self):
        """The regression: pass N's counters must not include pass N-1."""
        session = ExplanationSession(parse_query(QUERY_TEXT), example_db())
        session.answers()
        first = pass_counters(session.engine_stats())
        assert first["pass_columnar_passes"] == 1
        # Algorithm 1's bound-query passes run on the session evaluator and
        # count as residual runs inside the window the pass opened.
        session.explain_all()
        explained = pass_counters(session.engine_stats())
        assert explained["pass_columnar_passes"] == 1
        assert explained["pass_plans_built"] > first["pass_plans_built"]
        # A resident engine can run the pass again (e.g. after a refresh
        # that resets its lazy state); re-run it directly on the same
        # evaluator — the scraped counters must describe only this pass.
        evaluator = session._whyso.session.evaluator
        evaluator.valuations_blocks(session.query)
        second = pass_counters(session.engine_stats())
        assert second == first  # same pass over the same data, same counts

    def test_refresh_then_explain_keeps_single_pass_semantics(self):
        session = ExplanationSession(parse_query(QUERY_TEXT), example_db())
        session.explain_all()
        delta = DatabaseDelta(inserts=[Tuple("R", ("a9", "a1"))])
        session.refresh_all([delta])
        session.explain_all()
        assert session.engine_stats()["pass_columnar_passes"] == 1


class TestServerPassStats:
    """The wire surface: ``stats`` frames scraped from a live server."""

    @pytest.fixture()
    def resident(self):
        config = SessionConfig("mem", QUERY_TEXT, example_payload(),
                               backend="memory", workers=2,
                               policy=AdmissionPolicy(max_pending=16))
        with ServerHarness([config]) as live:
            yield live

    def test_stats_frames_never_accumulate_passes(self, resident):
        with resident.client() as client:
            client.explain_batch("mem")
            first = client.stats("mem")["mem"]["engines"]
            assert first["pass_columnar_passes"] == 1
            # A delta cycle and a re-explain later, the scrape still
            # describes one pass — not a total over the session's life.
            client.delta("mem",
                         {"insert": {"relations": {"R": [["a9", "a1"]]}}})
            client.explain_batch("mem")
            later = client.stats("mem")["mem"]["engines"]
            assert later["pass_columnar_passes"] == 1
