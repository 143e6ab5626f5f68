"""Resident sessions: one loaded database, one worker thread, one epoch.

A :class:`ServerSession` keeps a
:class:`~repro.core.api.ExplanationSession` alive across requests so the
warm lineage cache, the lineage inverted index and the memoized
explanations amortize.  Two pieces make it safe under concurrency:

* **One worker thread per session.**  All engine work — including building
  the session and closing it — runs on a dedicated single-thread executor.
  This keeps the event loop free, gives the SQLite backend its required
  thread affinity (the connection is created and only ever used on that
  thread), and totally orders every computation of the session even when a
  request is abandoned mid-flight.
* **An epoch counter**, incremented on the worker thread as each delta
  lands and captured on the worker thread as each read begins.  Every
  response reports the epoch it was computed on, which is what the
  linearizability property test replays against.

The executor's FIFO queue is the only ordering mechanism, and it is
enough: :meth:`ServerSession._run_job` submits its job before its first
``await``, so jobs queue in the order their requests reach the session.  A
read that arrives after a delta runs after it and sees the delta's epoch
(writers are never overtaken), a delta that arrives after a read waits for
it, and reads never interleave with a delta's refresh because the thread
runs one job at a time.  An abandoned read frees its admission slot at
once while its job drains on the thread.  ``request_timeout`` therefore
counts everything a read waits for on the thread — other reads and deltas
alike — plus its own computation.

Parallel fan-out still happens *inside* the worker thread: the engine's
``explain_all(workers=...)`` forks its worker pool from there, and chunk
completions are marshalled back to the event loop with
``call_soon_threadsafe`` (see :meth:`ServerSession.explain_batch`).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional
from typing import Tuple as TypingTuple

from ..core.api import Explanation, ExplanationSession
from ..exceptions import ProtocolError, ServerError
from ..relational import database_from_dict, parse_query
from ..relational.delta import DatabaseDelta
from .admission import AdmissionGate, AdmissionPolicy

#: A chunk callback as the engines deliver it (targets, explanations).
ChunkCallback = Callable[[List[Any], Dict[Any, Explanation]], None]


class SessionConfig:
    """Everything needed to build one resident session.

    ``database`` is either an already-built
    :class:`~repro.relational.database.Database` (tests) or the JSON-shaped
    payload ``{"relations": ..., "endogenous_relations": ...}`` (the CLI),
    which is materialized once, on the session's worker thread.
    """

    __slots__ = ("name", "query_text", "database", "backend", "method",
                 "workers", "transport", "policy")

    def __init__(self, name: str, query_text: str, database: Any,
                 backend: str = "memory", method: str = "auto",
                 workers: Optional[int] = None, transport: str = "auto",
                 policy: Optional[AdmissionPolicy] = None) -> None:
        self.name = name
        self.query_text = query_text
        self.database = database
        self.backend = backend
        self.method = method
        self.workers = workers
        self.transport = transport
        self.policy = policy if policy is not None else AdmissionPolicy()

    def __repr__(self) -> str:
        return (f"SessionConfig({self.name!r}, {self.query_text!r}, "
                f"backend={self.backend!r})")


class ServerSession:
    """One resident explanation session behind the service.

    All public coroutines must run on the server's event loop; they route
    CPU work to the session's worker thread and return
    ``(epoch, payload)`` pairs.
    """

    def __init__(self, config: SessionConfig) -> None:
        self.config = config
        self.name = config.name
        self.gate = AdmissionGate(config.policy)
        self.epoch = 0
        self.requests_served = 0
        self._session: Optional[ExplanationSession] = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-serve-{config.name}")
        self._closed = False

    # -- lifecycle --------------------------------------------------------- #
    def _build(self) -> ExplanationSession:
        """Build the resident session (runs on the worker thread)."""
        database = self.config.database
        if isinstance(database, Mapping):
            relations = database.get("relations", {})
            database = database_from_dict(
                {name: [tuple(row) for row in rows]
                 for name, rows in relations.items()},
                endogenous_relations=database.get("endogenous_relations"))
        session = ExplanationSession(
            parse_query(self.config.query_text), database,
            method=self.config.method, backend=self.config.backend)
        # Warm the open-query pass now so the first request doesn't pay it.
        session.answers()
        return session

    async def start(self) -> None:
        """Load the database and warm the engine, once, on the worker thread."""
        loop = asyncio.get_running_loop()
        self._session = await loop.run_in_executor(self._executor, self._build)

    async def aclose(self) -> None:
        """Release engine resources on the worker thread, then the thread."""
        if self._closed:
            return
        self._closed = True
        session, self._session = self._session, None
        if session is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(self._executor, session.close)
        self._executor.shutdown(wait=True)

    def _live(self) -> ExplanationSession:
        if self._session is None:
            raise ServerError(f"session {self.name!r} is not started",
                              code="session-not-ready")
        return self._session

    # -- executor plumbing -------------------------------------------------- #
    async def _run_job(self, fn: Callable[[], Any], op: str,
                       abandonable: bool) -> Any:
        """Run ``fn`` on the worker thread; optionally abandon on timeout.

        An abandoned job (timeout or caller cancelled) keeps running to
        completion on the worker thread — it cannot be interrupted — but
        its result is discarded and the caller's admission slot is
        released.  Because the thread is the one serializer, later jobs
        simply queue behind it; the session is never left poisoned.  The
        job is submitted before the first ``await``, so jobs run in the
        order their requests reach the session.  Write jobs are *not*
        abandonable: they mutate, so the caller always waits.
        """
        future = self._executor.submit(fn)
        wrapped = asyncio.wrap_future(future)
        timeout = self.config.policy.request_timeout
        if not abandonable:
            return await asyncio.shield(wrapped)
        # Consume a discarded job's exception so it never logs as unretrieved.
        wrapped.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None)
        try:
            return await asyncio.wait_for(asyncio.shield(wrapped), timeout)
        except asyncio.TimeoutError:
            future.cancel()
            raise self.gate.timed_out(op) from None
        except asyncio.CancelledError:
            future.cancel()
            raise

    async def _read(self, fn: Callable[[], Any], op: str) -> Any:
        """One admitted, epoch-stamped job on the worker thread.

        The epoch is captured *on the worker thread*, where it is totally
        ordered with every delta's increment, so even an abandoned read
        that later completes would have reported a consistent epoch.
        """

        def job() -> TypingTuple[int, Any]:
            return (self.epoch, fn())

        with self.gate.admit():
            epoch, payload = await self._run_job(job, op, abandonable=True)
        self.requests_served += 1
        return epoch, payload

    # -- operations --------------------------------------------------------- #
    async def explain(self, answer: Optional[List[Any]],
                      mode: str = "why-so"
                      ) -> TypingTuple[int, Explanation]:
        """Explain one (non-)answer; ``mode`` is ``why-so`` or ``why-no``."""
        session = self._live()
        key = None if answer is None else tuple(answer)
        return await self._read(
            lambda: session.explain(key, mode=mode), "explain")

    async def explain_batch(self, answers: Optional[List[List[Any]]] = None,
                            on_chunk: Optional[ChunkCallback] = None
                            ) -> TypingTuple[int, Dict[Any, Explanation]]:
        """Why-So for every (or the given) answers, optionally streaming.

        ``on_chunk`` is invoked on the *worker thread* as each fan-out
        chunk completes; callers that feed an event loop must marshal with
        ``call_soon_threadsafe`` (the app layer does).
        """
        session = self._live()
        keys = None if answers is None else [tuple(a) for a in answers]
        return await self._read(
            lambda: session.explain_all(
                keys, workers=self.config.workers,
                transport=self.config.transport, on_chunk=on_chunk),
            "explain-batch")

    async def whyno(self, domains: Optional[Mapping[str, List[Any]]] = None,
                    max_candidates: Optional[int] = None,
                    on_chunk: Optional[ChunkCallback] = None
                    ) -> TypingTuple[int, Dict[Any, Explanation]]:
        """Why-No for every missing answer the domains allow (streamable)."""
        session = self._live()
        effective = self.gate.check_candidates(max_candidates)
        return await self._read(
            lambda: session.for_missing_answers(
                domains=domains, max_candidates=effective,
                workers=self.config.workers,
                transport=self.config.transport, on_chunk=on_chunk),
            "whyno")

    async def apply_deltas(self, changes: Any
                           ) -> TypingTuple[int, Dict[str, Any]]:
        """Apply a delta (or list of deltas); bump the epoch.

        The epoch increment runs on the worker thread, immediately after
        the refresh, so reads queued behind the delta (on the same thread)
        observe the new epoch atomically with the new state.
        """
        session = self._live()
        payloads = changes if isinstance(changes, list) else [changes]
        try:
            deltas = [DatabaseDelta.from_dict(p) for p in payloads]
        except (TypeError, AttributeError) as error:
            raise ProtocolError(
                f"malformed delta payload: {error}") from error

        def job() -> TypingTuple[int, Dict[str, Any]]:
            reports = session.refresh_all(deltas)
            self.epoch += 1
            return self.epoch, reports

        with self.gate.admit():
            epoch, reports = await self._run_job(job, "delta",
                                                 abandonable=False)
        self.requests_served += 1
        summary = {
            side: None if report is None else {
                "changed": len(report.changed_tuples),
                "stale": sorted(map(list, report.stale)),
                "new_answers": sorted(map(list, report.new_answers)),
                "removed_answers": sorted(map(list, report.removed_answers)),
                "full_reset": report.full_reset,
            }
            for side, report in reports.items()
        }
        return epoch, summary

    async def answers(self) -> TypingTuple[int, List[Any]]:
        """The current answer set (deterministically ordered by the engine)."""
        session = self._live()
        return await self._read(
            lambda: [list(a) for a in session.answers()], "answers")

    def stats(self) -> Dict[str, Any]:
        """Counters and description of this session (no worker-thread trip)."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "epoch": self.epoch,
            "requests_served": self.requests_served,
            "admission": self.gate.stats(),
        }
        if self._session is not None:
            payload["session"] = self._session.describe()
            payload["engines"] = self._session.engine_stats()
        return payload

    def __repr__(self) -> str:
        return (f"ServerSession({self.name!r}, epoch={self.epoch}, "
                f"pending={self.gate.pending})")


class SessionRegistry:
    """The named resident sessions of one server."""

    def __init__(self, configs: Iterable[SessionConfig] = ()) -> None:
        self._sessions: Dict[str, ServerSession] = {}
        for config in configs:
            self.add(config)

    def add(self, config: SessionConfig) -> ServerSession:
        if config.name in self._sessions:
            raise ServerError(f"duplicate session name {config.name!r}",
                              code="duplicate-session")
        session = ServerSession(config)
        self._sessions[config.name] = session
        return session

    def get(self, name: Any) -> ServerSession:
        if not isinstance(name, str) or name not in self._sessions:
            raise ProtocolError(
                f"unknown session {name!r} (have: "
                f"{sorted(self._sessions) or 'none'})", code="unknown-session")
        return self._sessions[name]

    def names(self) -> List[str]:
        return sorted(self._sessions)

    async def start_all(self) -> None:
        for name in self.names():
            await self._sessions[name].start()

    async def aclose(self) -> None:
        for name in self.names():
            await self._sessions[name].aclose()

    def __len__(self) -> int:
        return len(self._sessions)
