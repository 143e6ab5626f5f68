"""The asyncio front-end: accept connections, dispatch frames, stream results.

One :class:`ExplanationServer` owns a :class:`~repro.server.registry.\
SessionRegistry` and listens on a local TCP socket for NDJSON frames
(:mod:`repro.server.protocol`).  The request lifecycle:

1. a connection's reader task reads one line and spawns a per-request task,
   so requests pipeline on one connection and run concurrently across
   connections (responses interleave by ``id``; frames are written atomically
   under a per-connection lock);
2. the request is admitted (or rejected with a typed ``error`` frame) and
   its job queued, in arrival order, on its session's worker thread;
3. CPU work runs on that thread, one job at a time; for streaming requests
   each completed fan-out chunk is marshalled back with
   ``call_soon_threadsafe`` and written as a ``chunk`` frame immediately;
4. the terminal frame is ``result`` (non-streaming), ``end`` (stream
   success) or a typed ``error`` — a mid-stream worker failure carries
   ``partial: true`` plus ``delivered``/``failed``/``missing`` answer lists,
   so a shortened ranking is always marked.

A client that disconnects has its per-request tasks cancelled; queued work
drains (abandoned jobs cannot poison the session — the worker thread
serializes everything) and the admission slots free up.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Dict, List, Optional, Set

from ..exceptions import FanOutWorkerError, ProtocolError, ReproError
from .protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_frame,
    explanation_to_wire,
    explanations_to_wire,
)
from .registry import ServerSession, SessionRegistry

#: Ops that take a session name and may stream.
_STREAMING_OPS = frozenset({"explain-batch", "whyno"})

#: Stream sentinel: the batch coroutine finished (result or error).
_DONE = object()


class _Connection:
    """Per-connection state: serialized writes, live request tasks."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.tasks: Set["asyncio.Task[None]"] = set()

    async def send(self, frame: Dict[str, Any]) -> None:
        async with self.write_lock:
            self.writer.write(encode_frame(frame))
            await self.writer.drain()


class ExplanationServer:
    """The explanation service over one session registry.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start`.  The server object is also an async context manager.
    """

    def __init__(self, registry: SessionRegistry, host: str = "127.0.0.1",
                 port: int = 0,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.registry = registry
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self._server: Optional[asyncio.AbstractServer] = None
        self.connections_served = 0

    async def start(self) -> None:
        """Start the resident sessions, then listen."""
        await self.registry.start_all()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port,
            limit=self.max_frame_bytes)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.registry.aclose()

    async def __aenter__(self) -> "ExplanationServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    # -- connection lifecycle ---------------------------------------------- #
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self.connections_served += 1
        conn = _Connection(reader, writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line longer than the frame limit: typed rejection,
                    # then close (the stream cannot be resynchronized).
                    with contextlib.suppress(ConnectionError):
                        await conn.send(error_frame(
                            None, "oversized-request",
                            f"frame exceeds {self.max_frame_bytes} bytes"))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(self._handle_line(conn, line))
                conn.tasks.add(task)
                task.add_done_callback(conn.tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            # Abrupt disconnect: fall through to cancellation of the
            # client's queued work.
            pass
        finally:
            for task in list(conn.tasks):
                task.cancel()
            if conn.tasks:
                await asyncio.gather(*conn.tasks, return_exceptions=True)
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    # -- request dispatch --------------------------------------------------- #
    async def _handle_line(self, conn: _Connection, line: bytes) -> None:
        request_id: Any = None
        try:
            frame = decode_frame(line)
            request_id = frame.get("id")
            await self._dispatch(conn, request_id, frame)
        except asyncio.CancelledError:
            raise
        except ReproError as error:
            code = getattr(error, "code", "error")
            with contextlib.suppress(ConnectionError):
                await conn.send(error_frame(request_id, code, str(error)))
        except Exception as error:  # noqa: BLE001 - the service must answer
            with contextlib.suppress(ConnectionError):
                await conn.send(error_frame(
                    request_id, "internal-error", repr(error)))

    async def _dispatch(self, conn: _Connection, request_id: Any,
                        frame: Dict[str, Any]) -> None:
        op = frame.get("op")
        if op == "ping":
            await conn.send({"id": request_id, "type": "result",
                             "pong": True})
            return
        if op == "sessions":
            await conn.send({"id": request_id, "type": "result",
                             "sessions": self.registry.names()})
            return
        if op == "stats":
            names = ([frame["session"]] if "session" in frame
                     else self.registry.names())
            payload = {name: self.registry.get(name).stats()
                       for name in names}
            await conn.send({"id": request_id, "type": "result",
                             "stats": payload})
            return
        if op == "answers":
            session = self.registry.get(frame.get("session"))
            epoch, answers = await session.answers()
            await conn.send({"id": request_id, "type": "result",
                             "epoch": epoch, "answers": answers})
            return
        if op == "explain":
            session = self.registry.get(frame.get("session"))
            epoch, explanation = await session.explain(
                frame.get("answer"), mode=frame.get("mode", "why-so"))
            await conn.send({
                "id": request_id, "type": "result", "epoch": epoch,
                "explanation": explanation_to_wire(
                    frame.get("answer"), explanation)})
            return
        if op == "delta":
            session = self.registry.get(frame.get("session"))
            epoch, summary = await session.apply_deltas(
                frame.get("changes", {}))
            await conn.send({"id": request_id, "type": "result",
                             "epoch": epoch, "refreshed": summary})
            return
        if op in _STREAMING_OPS:
            await self._run_batch(conn, request_id, frame, op)
            return
        raise_unknown_op(op)

    # -- batch / streaming -------------------------------------------------- #
    async def _run_batch(self, conn: _Connection, request_id: Any,
                         frame: Dict[str, Any], op: str) -> None:
        session = self.registry.get(frame.get("session"))
        stream = bool(frame.get("stream"))
        loop = asyncio.get_running_loop()
        chunks: "asyncio.Queue[Any]" = asyncio.Queue()
        delivered: List[Any] = []

        def on_chunk(targets: List[Any], results: Dict[Any, Any]) -> None:
            # Runs on the session's worker thread.
            loop.call_soon_threadsafe(chunks.put_nowait, (targets, results))

        async def pump() -> None:
            while True:
                item = await chunks.get()
                if item is _DONE:
                    return
                targets, results = item
                delivered.extend(targets)
                if stream:
                    await conn.send({
                        "id": request_id, "type": "chunk",
                        "explanations": explanations_to_wire(
                            results, order=targets)})

        # The session call is awaited here, in the request task, so its job
        # is queued before this task first yields — in frame order, like
        # every other op.  Chunks are written from a sub-task meanwhile.
        pumper = asyncio.ensure_future(pump())
        try:
            try:
                if op == "explain-batch":
                    epoch, results = await session.explain_batch(
                        frame.get("answers"),
                        on_chunk=on_chunk if stream else None)
                else:
                    epoch, results = await session.whyno(
                        domains=frame.get("domains"),
                        max_candidates=frame.get("max_candidates"),
                        on_chunk=on_chunk if stream else None)
            finally:
                chunks.put_nowait(_DONE)
            await pumper
        except asyncio.CancelledError:
            pumper.cancel()
            await asyncio.gather(pumper, return_exceptions=True)
            raise
        except FanOutWorkerError as error:
            await pumper
            await conn.send(_partial_error_frame(
                request_id, error, delivered, stream))
            return
        except Exception:
            # Chunks delivered before the failure precede its error frame.
            await pumper
            raise
        terminal = {
            "id": request_id, "type": "end" if stream else "result",
            "epoch": epoch, "count": len(results), "partial": False,
        }
        if not stream:
            terminal["explanations"] = explanations_to_wire(results)
        if hasattr(results, "transport"):
            terminal["transport"] = results.transport
            terminal["workers"] = results.effective_workers
        await conn.send(terminal)


def _partial_error_frame(request_id: Any, error: FanOutWorkerError,
                         delivered: List[Any],
                         stream: bool) -> Dict[str, Any]:
    """The partial-result marker for a mid-stream worker failure.

    Names what arrived (``delivered``), what provably failed (``failed``)
    and what was requested but never delivered (``missing``, from the
    ``requested`` set the engine attaches to the error) — a shortened
    ranking is never silent.
    """
    failed = [list(t) for t in error.targets]
    seen = set(map(tuple, delivered)) | set(error.targets)
    requested = getattr(error, "requested", ())
    missing = [list(t) for t in requested if tuple(t) not in seen]
    return error_frame(
        request_id, "worker-failed", str(error), partial=stream,
        delivered=[list(t) for t in delivered], failed=failed,
        missing=missing, transport=error.transport)


def raise_unknown_op(op: Any) -> None:
    """Reject an unknown/missing op with the typed ``bad-request`` error."""
    known = ("ping", "sessions", "stats", "answers", "explain",
             "explain-batch", "whyno", "delta")
    raise ProtocolError(f"unknown op {op!r} (known: {', '.join(known)})",
                        code="unknown-op")
