"""Admission control: bounded queues and cost caps for resident sessions.

A long-lived service must refuse work it cannot absorb, and refuse it
*cheaply* — before any evaluation starts.  Each session owns one
:class:`AdmissionGate` built from an :class:`AdmissionPolicy`:

* ``max_pending`` bounds the per-session queue depth (requests admitted but
  not yet finished, including those queued on the session's worker
  thread).  Beyond it, requests are rejected with the typed code
  ``queue-full`` — the 429 of this protocol — instead of growing an
  unbounded backlog.
* ``max_candidates_cap`` bounds the Why-No candidate generation, the one
  knob whose cost is data-dependent and potentially explosive.  When a cap
  is configured, a request must bound itself at or below it (code
  ``cost-cap`` otherwise).
* ``request_timeout`` bounds wall-clock per read request (code
  ``timeout``), counted from admission: the wait behind the jobs queued
  before it (reads and deltas alike) plus its own computation.

Request size is a server setting, not a session one: the front-end refuses
an oversized line before any session is named (code ``oversized-request``;
see :class:`~repro.server.app.ExplanationServer`).

Everything here runs on the event-loop thread, so plain counters suffice.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, Optional

from ..exceptions import AdmissionError


class AdmissionPolicy:
    """The admission knobs of one session (all optional, all explicit).

    Examples
    --------
    >>> policy = AdmissionPolicy(max_pending=2, max_candidates_cap=100)
    >>> policy.max_pending, policy.max_candidates_cap
    (2, 100)
    """

    __slots__ = ("max_pending", "max_candidates_cap", "request_timeout")

    def __init__(self, max_pending: int = 8,
                 max_candidates_cap: Optional[int] = None,
                 request_timeout: Optional[float] = None) -> None:
        if max_pending < 1:
            raise AdmissionError(
                f"max_pending must be at least 1 (got {max_pending})")
        self.max_pending = max_pending
        self.max_candidates_cap = max_candidates_cap
        self.request_timeout = request_timeout

    def __repr__(self) -> str:
        return (f"AdmissionPolicy(max_pending={self.max_pending}, "
                f"max_candidates_cap={self.max_candidates_cap}, "
                f"request_timeout={self.request_timeout})")


class AdmissionGate:
    """Admission state of one session: pending count + rejection counters.

    Examples
    --------
    >>> gate = AdmissionGate(AdmissionPolicy(max_pending=1))
    >>> with gate.admit():
    ...     with gate.admit():
    ...         pass
    Traceback (most recent call last):
        ...
    repro.exceptions.AdmissionError: session queue is full (1 request(s) \
pending, max_pending=1); retry later
    >>> gate.pending, gate.rejections["queue-full"]
    (0, 1)
    """

    def __init__(self, policy: AdmissionPolicy) -> None:
        self.policy = policy
        self.pending = 0
        self.admitted = 0
        self.rejections: Dict[str, int] = {
            "queue-full": 0, "cost-cap": 0, "timeout": 0}

    def reject(self, code: str, message: str) -> AdmissionError:
        """Count and build (not raise) a typed rejection."""
        self.rejections[code] = self.rejections.get(code, 0) + 1
        return AdmissionError(message, code=code)

    @contextlib.contextmanager
    def admit(self) -> Iterator[None]:
        """Hold one slot of the bounded queue for the duration of a request."""
        if self.pending >= self.policy.max_pending:
            raise self.reject(
                "queue-full",
                f"session queue is full ({self.pending} request(s) pending, "
                f"max_pending={self.policy.max_pending}); retry later")
        self.pending += 1
        self.admitted += 1
        try:
            yield
        finally:
            self.pending -= 1

    def check_candidates(self, requested: Optional[int]) -> Optional[int]:
        """Enforce the Why-No cost cap; returns the effective bound.

        With no cap configured the request's own bound (or unbounded)
        passes through.  With a cap, an unbounded or over-cap request is
        rejected — the client must state a budget the operator allows.

        Examples
        --------
        >>> gate = AdmissionGate(AdmissionPolicy(max_candidates_cap=10))
        >>> gate.check_candidates(5)
        5
        >>> gate.check_candidates(None)
        Traceback (most recent call last):
            ...
        repro.exceptions.AdmissionError: request must bound max_candidates \
(cap is 10)
        """
        cap = self.policy.max_candidates_cap
        if cap is None:
            return requested
        if requested is None:
            raise self.reject(
                "cost-cap",
                f"request must bound max_candidates (cap is {cap})")
        if requested > cap:
            raise self.reject(
                "cost-cap",
                f"max_candidates={requested} exceeds the session cap {cap}")
        return requested

    def timed_out(self, op: str) -> AdmissionError:
        """Count and build the typed timeout rejection for ``op``."""
        return self.reject(
            "timeout",
            f"{op} exceeded the request timeout "
            f"({self.policy.request_timeout:.3g}s) and was abandoned")

    def stats(self) -> Dict[str, object]:
        """Counters for the ``stats`` op."""
        return {
            "pending": self.pending,
            "admitted": self.admitted,
            "rejections": dict(self.rejections),
            "max_pending": self.policy.max_pending,
        }
