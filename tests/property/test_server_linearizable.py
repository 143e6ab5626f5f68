"""Linearizability of the explanation service under concurrent deltas.

Random interleavings of delta writes with streaming ``explain-batch`` and
``whyno`` reads must be indistinguishable from *some* serial order — and the
service names that order: every response carries the epoch it was computed
on, captured on the session's single worker thread where it is totally
ordered with the deltas.  So the check is direct and exact:

* run a writer thread applying a random toggle sequence while two reader
  threads stream explanations and why-not results through real sockets;
* for every response, rebuild the database *from scratch* at the prefix its
  epoch names and compare the wire payloads bit-for-bit (responsibilities
  are exact fraction strings, so equality is equality);
* per connection, observed epochs must be monotone (reads on one
  connection are issued sequentially and the epoch never decreases).

The toggles flip distinct tuples, so any subsequence is applicable in any
order and invertible — each example restores the resident session by
applying the inverse toggles, which keeps one warm server per backend for
the whole module (that residency is the point of the service).  Examples
are seeded and shrinkable like any hypothesis test: a failure replays from
the printed blob and shrinks toward fewer toggles and reads.  The default
tier runs 10 examples per backend; the ``slow`` variant runs 100 and also
draws how many requests each reader sends.
"""

import functools
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.api import ExplanationSession
from repro.relational import database_from_dict, parse_query
from repro.server import (
    AdmissionPolicy,
    ServerHarness,
    SessionConfig,
    explanations_to_wire,
)

QUERY_TEXT = "q(x) :- R(x, y), S(y)"

BASE_RELATIONS = {
    "R": [("a1", "a5"), ("a2", "a1"), ("a3", "a3"), ("a4", "a3"),
          ("a4", "a2")],
    "S": [("a1",), ("a2",), ("a3",), ("a4",), ("a6",)],
}

WHYNO_DOMAINS = {"y": ["a1", "a3", "a5"]}
MAX_CANDIDATES = 32

#: Each toggle flips one distinct tuple, so every subsequence is applicable
#: in every order, and the inverse sequence restores the base state.
TOGGLES = (
    ("insert", "S", ("a5",)),   # gives a1 its witness R(a1, a5)
    ("delete", "S", ("a3",)),   # removes answer a3, makes a4 stale
    ("delete", "S", ("a1",)),   # removes answer a2
    ("insert", "R", ("a5", "a1")),  # new head value a5
)


def delta_payload(action, relation, values):
    return {action: {"relations": {relation: [list(values)]}}}


def inverse_payload(action, relation, values):
    flipped = "delete" if action == "insert" else "insert"
    return delta_payload(flipped, relation, values)


@functools.lru_cache(maxsize=None)
def oracle(prefix):
    """From-scratch ground truth at a toggle prefix, in wire form.

    Deliberately *not* the refresh path: a fresh database and a fresh
    session, so the serial replay is an independent oracle for what the
    resident (delta-refreshed, cache-warm) session must serve.
    """
    rows = {name: set(values) for name, values in BASE_RELATIONS.items()}
    for action, relation, values in prefix:
        if action == "insert":
            rows[relation].add(values)
        else:
            rows[relation].discard(values)
    database = database_from_dict(
        {name: sorted(values) for name, values in rows.items()})
    session = ExplanationSession(parse_query(QUERY_TEXT), database)
    try:
        whyso = {tuple(w["answer"]): w
                 for w in explanations_to_wire(session.explain_all())}
        whyno = {tuple(w["answer"]): w
                 for w in explanations_to_wire(session.for_missing_answers(
                     domains=WHYNO_DOMAINS, max_candidates=MAX_CANDIDATES))}
        return {"whyso": whyso, "whyno": whyno,
                "answers": [list(a) for a in session.answers()]}
    finally:
        session.close()


@pytest.fixture(scope="module", params=["memory", "sqlite"])
def live(request):
    """One warm server per backend for the whole module."""
    config = SessionConfig(
        "live", QUERY_TEXT,
        {"relations": {name: [list(v) for v in values]
                       for name, values in BASE_RELATIONS.items()}},
        backend=request.param,
        policy=AdmissionPolicy(max_pending=32))
    with ServerHarness([config]) as harness:
        yield harness


def assert_reads_observe_a_serial_prefix(live, order, count, reads=2):
    """Race ``count`` toggles against two readers of ``reads`` requests each;
    replay every response against the oracle."""
    prefix = [TOGGLES[i] for i in order[:count]]
    with live.client() as probe:
        e0 = probe.answers("live")["epoch"]

    per_thread = {"writer": [], "whyso": [], "whyno": []}
    errors = []

    def writer():
        try:
            with live.client() as client:
                for toggle in prefix:
                    frame = client.delta("live", delta_payload(*toggle))
                    per_thread["writer"].append(frame["epoch"])
        except BaseException as error:  # noqa: BLE001 - collected
            errors.append(error)

    def reader(kind):
        try:
            with live.client() as client:
                for _ in range(reads):
                    if kind == "whyso":
                        chunks, end = client.stream("explain-batch",
                                                    session="live")
                        assert end["type"] == "end", end
                        got = {tuple(w["answer"]): w for chunk in chunks
                               for w in chunk["explanations"]}
                        assert end["count"] == len(got)
                        per_thread[kind].append((end["epoch"], got))
                    else:
                        frame = client.whyno(
                            "live", domains=WHYNO_DOMAINS,
                            max_candidates=MAX_CANDIDATES)
                        got = {tuple(w["answer"]): w
                               for w in frame["explanations"]}
                        per_thread[kind].append((frame["epoch"], got))
        except BaseException as error:  # noqa: BLE001 - collected
            errors.append(error)

    threads = [threading.Thread(target=writer),
               threading.Thread(target=reader, args=("whyso",)),
               threading.Thread(target=reader, args=("whyno",))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)

    try:
        assert not errors, errors
        # Writes landed in order: epochs e0+1 .. e0+count.
        assert per_thread["writer"] == \
            [e0 + k for k in range(1, count + 1)]
        for kind in ("whyso", "whyno"):
            epochs = [epoch for epoch, _ in per_thread[kind]]
            assert epochs == sorted(epochs)  # monotone per connection
            for epoch, got in per_thread[kind]:
                version = epoch - e0
                assert 0 <= version <= count
                assert got == oracle(tuple(prefix[:version]))[kind]
    finally:
        # Invert the example's toggles so the next example (and the
        # other reader of this warm session) starts from base state.
        with live.client() as client:
            for toggle in reversed(prefix):
                client.delta("live", inverse_payload(*toggle))

    with live.client() as probe:
        assert probe.answers("live")["answers"] == oracle(())["answers"]


toggle_orders = st.permutations(range(len(TOGGLES)))
toggle_counts = st.integers(min_value=0, max_value=3)
relaxed = settings(max_examples=10, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])
thorough = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestServerLinearizable:
    @relaxed
    @given(order=toggle_orders, count=toggle_counts)
    def test_concurrent_reads_observe_a_serial_prefix(self, live, order,
                                                      count):
        assert_reads_observe_a_serial_prefix(live, order, count)

    @pytest.mark.slow
    @thorough
    @given(order=toggle_orders, count=toggle_counts,
           reads=st.integers(min_value=1, max_value=3))
    def test_concurrent_reads_observe_a_serial_prefix_thorough(
            self, live, order, count, reads):
        assert_reads_observe_a_serial_prefix(live, order, count, reads)
