"""Shared-memory parallel fan-out for the batch explainers.

Both :class:`~repro.engine.batch.BatchExplainer` and
:class:`~repro.engine.whyno_batch.WhyNoBatchExplainer` parallelise the same
way: the parent finishes the expensive shared work (the open-query valuation
pass, candidate generation, the combined instance), and only the cheap
per-target explanation step is fanned out.  Workers therefore *inherit* the
parent's shared state instead of re-deriving it — the historical pool
shipped each worker a bound query and had it re-run everything.

The seam has three pieces:

* :class:`FanOutSpec` — what a worker does: an optional per-worker ``setup``
  turning the shared state into a worker context, and a per-target
  ``compute``.  Both must be module-level functions so they pickle by
  reference.  The fan-out is one-way: workers send back per-target results
  and nothing else.
* a **transport** — how the shared state reaches the worker processes:

  =================  ========================================================
  ``serial``         no processes; one chunk runs in the parent (also the
                     automatic fallback for one worker or one target)
  ``fork``           POSIX: workers are forked *after* the shared state is
                     staged, so they inherit it copy-on-write — nothing is
                     pickled but the chunk keys and the results
  ``shared-memory``  spawn-safe fallback: the shared state is pickled
                     **once** into a :mod:`multiprocessing.shared_memory`
                     segment; every worker attaches and unpickles it once
  ``auto``           ``fork`` where available, else ``shared-memory``
  =================  ========================================================

* :class:`FanOutResult` — a plain dict of per-target results (keyed in the
  serial target order, independent of the worker count) that additionally
  reports what actually ran: :attr:`~FanOutResult.transport`,
  :attr:`~FanOutResult.requested_workers` and
  :attr:`~FanOutResult.effective_workers` (the pool shrinks to
  ``min(workers, len(targets))`` only when targets are scarcer than
  workers; the result makes the actual count visible so benchmarks and
  tests can assert on it).

On top of the transport, callers pick a **chunking**.  It only sets how many
chunks the targets split into; every transport runs them through the same
claim loop:

=================  =========================================================
``contiguous``     the default: one balanced chunk per worker.  Fewest
                   claims, but a skewed target (one answer with 100× the
                   lineage) serialises its whole chunk behind it.
``stealing``       ``_STEAL_CHUNK_FACTOR`` chunks per worker (at most one
                   target each), so fast workers drain what slow ones never
                   reach and the makespan tracks total work, not the worst
                   chunk.
=================  =========================================================

The chunks sit behind a shared claim index — a :mod:`multiprocessing`
counter shipped through the pool initializer.  Each worker loops: lock,
read-and-increment the index, run the claimed chunk, until the index runs
off the end.  ``setup`` runs on a worker's first claim, so a worker that
claims nothing never runs ``setup``.  The serial transport runs the same
loop in the parent, over one chunk.

Either chunking yields the *same* :class:`FanOutResult`: results are
re-keyed in serial target order, so outputs stay independent of which
worker claimed what.

Failures are typed, never hung and never half-merged: a worker that raises
surfaces as a :class:`~repro.exceptions.FanOutWorkerError` naming the
offending target; a worker *process* that dies surfaces the same error
naming the chunks no worker finished.  A failing chunk aborts its own
remaining targets immediately and its worker stops claiming; the sibling
workers drain the remaining chunks, so the wait is bounded by the remaining
work.  On any failure no result is handed to the caller, so the parent's
memos stay exactly as they were.

**Streaming**: ``fan_out(..., on_chunk=...)`` reports each *successful*
chunk as soon as the worker that ran it returns — ``on_chunk(chunk_targets,
chunk_results)`` runs in the parent, in worker completion order — instead
of making the consumer wait for the full merged dict.  The failure contract
extends to the stream: a failed chunk is **never** delivered through
``on_chunk`` (no partial chunks, no silently shorter stream) and the run
still raises its typed :class:`~repro.exceptions.FanOutWorkerError`, so a
streaming consumer can mark the delivered prefix as partial — every target
is accounted for as either delivered, named by the error, or undelivered
(= requested minus the other two).  Successful sibling chunks completing
after a failure are still delivered before the raise.

Examples
--------
The serial transport runs in-process, so it also serves as the reference
semantics for the parallel ones:

>>> spec = FanOutSpec(compute=lambda state, target: state * target)
>>> result = fan_out([1, 2, 3], 10, spec, workers=1)
>>> dict(result)
{1: 10, 2: 20, 3: 30}
>>> result.transport, result.requested_workers, result.effective_workers
('serial', 1, 1)

``setup`` runs once per worker, before its first target:

>>> spec = FanOutSpec(setup=lambda state: {"base": state},
...                   compute=lambda ctx, t: ctx["base"] + t)
>>> dict(fan_out(["a", "b"], "!", spec, workers=1))
{'a': '!a', 'b': '!b'}
"""

from __future__ import annotations

import concurrent.futures
import itertools
import multiprocessing
import pickle
import traceback
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar
from typing import Tuple as TypingTuple

from ..exceptions import FanOutError, FanOutWorkerError

Key = TypeVar("Key")

#: Parent-side streaming callback: ``on_chunk(chunk_targets, chunk_results)``
#: per successfully completed chunk, in completion order.  Never pickled and
#: never shipped to a worker, so any callable works on every transport.
OnChunk = Callable[[List[Any], Dict[Any, Any]], None]

#: The transports a caller may request (``auto`` resolves to a concrete one).
TRANSPORTS = ("auto", "serial", "fork", "shared-memory")

#: The chunking disciplines a caller may request (see the module docstring).
CHUNKINGS = ("contiguous", "stealing")

#: Fine-grained chunks per worker under work-stealing.  Higher values level
#: skew better but pay one claim-lock round-trip per chunk; 4 keeps the
#: slowest worker's tail at ~1/4 of an even share while the lock stays cold.
_STEAL_CHUNK_FACTOR = 4


class FanOutSpec:
    """What each fan-out worker runs, as two module-level functions.

    Parameters
    ----------
    compute:
        ``compute(context, target) -> value`` — the per-target work.
    setup:
        Optional ``setup(shared_state) -> context``, run once per worker
        before its first target (build the worker-side explainer here).
        When omitted the shared state itself is the context.

    For the process transports both must be importable module-level
    functions (they are pickled by reference); the serial transport also
    accepts lambdas, which keeps doctests and tests lightweight.
    """

    __slots__ = ("compute", "setup")

    def __init__(self, compute: Callable[[Any, Any], Any],
                 setup: Optional[Callable[[Any], Any]] = None) -> None:
        self.compute = compute
        self.setup = setup


class FanOutResult(Dict[Any, Any]):
    """Per-target results plus a report of what actually ran.

    A plain ``dict`` (key order = serial target order), extended with:

    Attributes
    ----------
    transport:
        The concrete transport that ran (``"serial"``, ``"fork"`` or
        ``"shared-memory"`` — never ``"auto"``).
    requested_workers:
        The worker count the caller asked for (1 when unspecified).
    effective_workers:
        The pool size: the number of worker processes that ran the claim
        loop, ``min(requested_workers, len(targets))`` (see
        :func:`effective_pool_size`; a request is only ever shrunk when
        there are fewer targets than workers).  Under either chunking a
        worker may claim several chunks, or none.  The serial transport
        always reports 1.
    state_bytes:
        Pickled size of the staged ``(spec, shared_state)`` pair, reported
        on **every** transport so the CLI's ``fan-out:`` lines stay
        comparable: the shared-memory transport reports the segment payload
        it actually shipped, while fork (which stages the same state
        copy-on-write) and serial (which stages it in-process) measure the
        identical pickle without shipping it.  ``None`` only when the state is unpicklable
        (e.g. lambda specs on the serial transport) — or on engine fast
        paths that never stage state for a pool at all.
    """

    def __init__(self, results: Dict[Any, Any], transport: str,
                 requested_workers: int, effective_workers: int,
                 state_bytes: Optional[int] = None) -> None:
        super().__init__(results)
        self.transport = transport
        self.requested_workers = requested_workers
        self.effective_workers = effective_workers
        self.state_bytes = state_bytes

    def __repr__(self) -> str:
        return (f"FanOutResult({len(self)} target(s), "
                f"transport={self.transport!r}, "
                f"workers={self.effective_workers}/{self.requested_workers})")


def resolve_transport(transport: str, workers: Optional[int],
                      n_targets: int) -> str:
    """The concrete transport a request resolves to.

    Every batch fan-out resolves its transport here, so this is also where
    a worker count below 1 is rejected.

    Examples
    --------
    >>> resolve_transport("auto", None, 10)
    'serial'
    >>> resolve_transport("auto", 4, 1)
    'serial'
    >>> import multiprocessing
    >>> expected = "fork" if "fork" in multiprocessing.get_all_start_methods() \
        else "shared-memory"
    >>> resolve_transport("auto", 4, 10) == expected
    True
    >>> resolve_transport("auto", 0, 10)
    Traceback (most recent call last):
    ...
    repro.exceptions.FanOutError: workers must be a positive integer (got 0)
    """
    if transport not in TRANSPORTS:
        raise FanOutError(
            f"unknown transport {transport!r} (choose from {TRANSPORTS})"
        )
    if workers is not None and workers < 1:
        raise FanOutError(
            f"workers must be a positive integer (got {workers!r})")
    if transport == "serial" or workers is None or workers <= 1 \
            or n_targets <= 1:
        return "serial"
    if transport == "auto":
        return "fork" if "fork" in multiprocessing.get_all_start_methods() \
            else "shared-memory"
    if transport == "fork" \
            and "fork" not in multiprocessing.get_all_start_methods():
        raise FanOutError(
            "the 'fork' transport is not available on this platform; "
            "use transport='shared-memory' (or 'auto')"
        )
    return transport


def effective_pool_size(n_targets: int, workers: int) -> int:
    """The pool size for a request: the worker processes that actually run.

    Chunks are balanced (floor size plus one extra target for the first
    ``n_targets % n_chunks`` chunks), so whenever there are at least as
    many targets as workers, every requested worker has a chunk to claim:
    ``effective == min(workers, n_targets)``.  The earlier ceil-division
    chunking silently wasted parallelism — 5 targets at 4 workers produced
    chunks of 2 and ran only 3 workers.  This is the number
    :attr:`FanOutResult.effective_workers` reports.

    Examples
    --------
    >>> effective_pool_size(5, 4)
    4
    >>> effective_pool_size(8, 4)
    4
    >>> effective_pool_size(2, 7)
    2
    >>> effective_pool_size(1, 4)
    1
    """
    if n_targets <= 1 or workers <= 1:
        return 1
    return min(workers, n_targets)


def _chunk_targets(targets: Sequence[Any], pool_size: int,
                   chunking: str) -> List[List[Any]]:
    """The balanced contiguous chunks a pool of ``pool_size`` workers claims.

    ``contiguous`` gives one chunk per worker; ``stealing`` gives
    ``_STEAL_CHUNK_FACTOR`` per worker, capped at one target per chunk.  The
    first ``len(targets) % n_chunks`` chunks carry one extra target (floor +
    remainder split), so chunk sizes differ by at most one and no worker is
    left without a chunk.  The merged result is re-keyed in the serial
    target order, so the output is independent of the chunking.

    >>> _chunk_targets(list(range(5)), 4, "contiguous")
    [[0, 1], [2], [3], [4]]
    >>> _chunk_targets(list(range(5)), 2, "contiguous")
    [[0, 1, 2], [3, 4]]
    >>> _chunk_targets(list(range(5)), 2, "stealing")
    [[0], [1], [2], [3], [4]]
    """
    n_chunks = pool_size if chunking == "contiguous" \
        else min(len(targets), pool_size * _STEAL_CHUNK_FACTOR)
    base, extra = divmod(len(targets), n_chunks)
    chunks: List[List[Any]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(list(targets[start:start + size]))
        start += size
    return chunks


def _run_chunks(spec: FanOutSpec, state: Any, chunks: List[List[Any]],
                claim: Callable[[], int]) -> Dict[str, Any]:
    """One worker's claim-run loop; never raises — failures return as data.

    The worker repeatedly calls ``claim()`` for the index of the next
    unclaimed chunk and runs it, until the index runs off the end.
    ``setup`` runs on the first claimed chunk only, so a worker its
    siblings starve out pays nothing.  The per-target try/except is what
    lets the parent name the *offending target*: on a failure the worker
    stops claiming and returns early, the siblings drain the remaining
    chunks, and the parent raises.
    """
    outcomes: List[TypingTuple[int, Dict[str, Any]]] = []
    index = claim()
    if index >= len(chunks):
        return {"outcomes": outcomes}
    try:
        context = state if spec.setup is None else spec.setup(state)
    except Exception as error:
        return {"outcomes": [(index, _failure(tuple(chunks[index]), error))]}
    while index < len(chunks):
        results: Dict[Any, Any] = {}
        for target in chunks[index]:
            try:
                results[target] = spec.compute(context, target)
            except Exception as error:
                outcomes.append((index, _failure((target,), error)))
                return {"outcomes": outcomes}
        outcomes.append((index, {"results": results}))
        index = claim()
    return {"outcomes": outcomes}


def _failure(targets: TypingTuple[Any, ...],
             error: Exception) -> Dict[str, Any]:
    return {"failed": targets,
            "detail": f"{type(error).__name__}: {error}\n"
                      + traceback.format_exc()}


# --------------------------------------------------------------------------- #
# worker processes (module-level so they pickle by reference)
# --------------------------------------------------------------------------- #
# The shared claim index: a multiprocessing.Value handed to every worker via
# the pool initializer (the only channel that reaches both fork and spawn
# workers — synchronized primitives refuse to travel through submit args).
_CLAIM: Any = None


def _claim_init(claim: Any) -> None:
    global _CLAIM
    _CLAIM = claim


def _claim_shared() -> int:
    with _CLAIM.get_lock():
        index: int = _CLAIM.value
        _CLAIM.value = index + 1
    return index


# fork: the parent stages (spec, state) here *before* the pool forks, so the
# children inherit it copy-on-write and the payload is just the chunk list.
_FORK_SHARED: Any = None


def _fork_worker(chunks: List[List[Any]]) -> Dict[str, Any]:
    spec, state = _FORK_SHARED
    return _run_chunks(spec, state, chunks, _claim_shared)


# shared-memory: (spec, state) is pickled once into a segment; each spawned
# worker attaches and unpickles it once, cached per process.
_SHM_CACHE: Dict[str, Any] = {}


def _attach_segment(name: str) -> Any:
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13 has no track parameter
        # Attaching would register the segment with the resource tracker,
        # which the *parent* already did at creation; a second registration
        # makes the tracker unlink (and warn about) a segment it does not
        # own when this worker exits.  Suppress registration for the
        # duration of the attach — the parent remains the sole owner.
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shared_memory(res_name: str, rtype: str) -> None:
            if rtype != "shared_memory":
                original(res_name, rtype)

        resource_tracker.register = _skip_shared_memory
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _shm_worker(payload: TypingTuple[str, int, List[List[Any]]]
                ) -> Dict[str, Any]:
    name, size, chunks = payload
    spec, state = _shm_shared(name, size)
    return _run_chunks(spec, state, chunks, _claim_shared)


def _shm_shared(name: str, size: int) -> Any:
    shared = _SHM_CACHE.get(name)
    if shared is None:
        segment = _attach_segment(name)
        try:
            shared = pickle.loads(bytes(segment.buf[:size]))
        finally:
            segment.close()
        _SHM_CACHE.clear()  # one pool per process lifetime; keep it bounded
        _SHM_CACHE[name] = shared
    return shared


def _collect(
    futures: Sequence[concurrent.futures.Future[Dict[str, Any]]],
    chunks: List[List[Any]],
    transport: str,
    on_chunk: Optional[OnChunk] = None,
) -> Dict[Any, Any]:
    """Gather worker payloads into one results dict; raise typed errors.

    Payloads are consumed lazily, in completion order.  Every future is
    drained before deciding what to raise: a dead worker process breaks the
    *whole* pool, failing innocent pending futures too, so a per-target
    failure report from any worker (precise attribution) wins over the
    broken-pool signal.  Accounting is per *claimed chunk*: each worker
    returns the ``(chunk_index, outcome)`` pairs it ran, and the chunks no
    worker reported (possible only when the pool broke) are what the
    broken-pool error names.  With ``on_chunk``, a worker's successful
    chunks stream the moment its future lands; failed chunks never stream.
    Nothing is returned on failure, so nothing merges.
    """
    ran: Dict[int, Dict[str, Any]] = {}
    broken_error: Optional[BaseException] = None
    for future in concurrent.futures.as_completed(futures):
        try:
            payload = future.result()
        except BrokenProcessPool as error:
            broken_error = error
            continue
        for index, outcome in payload["outcomes"]:
            ran[index] = outcome
            if on_chunk is not None and "failed" not in outcome:
                on_chunk(list(chunks[index]), dict(outcome["results"]))
    failures = sorted((index, outcome) for index, outcome in ran.items()
                      if "failed" in outcome)
    if failures:
        _, outcome = failures[0]
        raise FanOutWorkerError(
            f"a fan-out worker failed on target "
            f"{_describe_targets(outcome['failed'])}: "
            f"{outcome['detail'].splitlines()[0]}",
            targets=outcome["failed"], transport=transport,
            detail=outcome["detail"])
    # Chunk order, so the error message is worker-timing-independent.
    unfinished = [target for index, chunk in enumerate(chunks)
                  if index not in ran for target in chunk]
    if broken_error is not None:
        raise FanOutWorkerError(
            f"a fan-out worker process died; unfinished chunk(s): "
            f"{_describe_targets(unfinished)}",
            targets=unfinished, transport=transport,
            detail=repr(broken_error)) from broken_error
    if unfinished:  # invariant guard: no error, yet chunks went unrun
        raise FanOutError(
            f"the fan-out pool lost chunk(s) without reporting an error: "
            f"{_describe_targets(unfinished)}")
    results: Dict[Any, Any] = {}
    for index in sorted(ran):
        results.update(ran[index]["results"])
    return results


def _describe_targets(targets: Sequence[Any]) -> str:
    listed = ", ".join(repr(t) for t in list(targets)[:5])
    if len(targets) > 5:
        listed += f", ... ({len(targets)} targets)"
    return listed if len(targets) != 1 else repr(list(targets)[0])


def fan_out(targets: Sequence[Key], shared_state: Any, spec: FanOutSpec,
            workers: Optional[int] = None,
            transport: str = "auto",
            on_chunk: Optional[OnChunk] = None,
            chunking: str = "contiguous") -> FanOutResult:
    """Run ``spec`` over ``targets`` with workers sharing ``shared_state``.

    Each worker receives the *whole* shared state through its transport
    (fork inheritance or the pickle-once shared-memory segment — never one
    pickle per chunk) plus the chunk list, and claims chunks off the shared
    index until none are left; ``chunking`` only sets how many chunks there
    are (see the module docstring).  Results come back as a
    :class:`FanOutResult` keyed in the serial target order either way; the
    serial transport ignores ``chunking`` (one process, one chunk).

    ``on_chunk`` streams each successful chunk to the parent as soon as the
    worker that ran it returns (worker completion order); the serial
    transport reports its single chunk once it completes.  The callback
    runs in the parent and is never shipped to a worker; an exception it
    raises propagates to the caller.

    Raises :class:`~repro.exceptions.FanOutWorkerError` when a worker raises
    or dies; in that case nothing is merged, so the caller's state is
    untouched (sibling workers still drain the remaining chunks, and the
    successful ones are still streamed before the raise).
    """
    if chunking not in CHUNKINGS:
        raise FanOutError(
            f"unknown chunking {chunking!r} (choose from {CHUNKINGS})"
        )
    requested = 1 if workers is None else workers
    concrete = resolve_transport(transport, workers, len(targets))
    if concrete == "serial":
        pool_size, chunks = 1, [list(targets)]
        done: concurrent.futures.Future[Dict[str, Any]] = \
            concurrent.futures.Future()
        done.set_result(_run_chunks(spec, shared_state, chunks,
                                    itertools.count().__next__))
        results = _collect([done], chunks, concrete, on_chunk)
        state_bytes = _measure_staged_bytes(spec, shared_state)
    else:
        pool_size = effective_pool_size(len(targets), requested)
        chunks = _chunk_targets(targets, pool_size, chunking)
        results, state_bytes = _run_pool(
            chunks, shared_state, spec, concrete, pool_size, on_chunk)
    return FanOutResult({target: results[target] for target in targets},
                        concrete, requested, pool_size, state_bytes)


def _run_pool(chunks: List[List[Any]], shared_state: Any, spec: FanOutSpec,
              transport: str, pool_size: int,
              on_chunk: Optional[OnChunk] = None
              ) -> TypingTuple[Dict[Any, Any], Optional[int]]:
    """Run the claim loop in ``pool_size`` worker processes.

    The claim index is created from the pool's own multiprocessing context
    and shipped via the pool *initializer* — the one channel that reaches
    fork and spawn workers alike.  Returns the collected results and the
    staged state size.
    """
    global _FORK_SHARED
    context = multiprocessing.get_context(
        "fork" if transport == "fork" else "spawn")
    claim = context.Value("l", 0)

    def run(worker: Callable[[Any], Dict[str, Any]], payload: Any
            ) -> Dict[Any, Any]:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=pool_size, mp_context=context,
                initializer=_claim_init, initargs=(claim,)) as pool:
            futures: List[concurrent.futures.Future[Dict[str, Any]]] = []
            for _ in range(pool_size):
                try:
                    futures.append(pool.submit(worker, payload))
                except BrokenProcessPool:
                    # A worker died before the last submit; the collector
                    # names the chunks nobody finished.
                    break
            return _collect(futures, chunks, transport, on_chunk)

    if transport == "fork":
        # The pool forks its workers on first submit — after this staging,
        # so every worker inherits the shared state copy-on-write.
        _FORK_SHARED = (spec, shared_state)
        try:
            return run(_fork_worker, chunks), \
                _measure_staged_bytes(spec, shared_state)
        finally:
            _FORK_SHARED = None

    from multiprocessing import shared_memory

    blob = pickle.dumps((spec, shared_state),
                        protocol=pickle.HIGHEST_PROTOCOL)
    segment = shared_memory.SharedMemory(create=True, size=max(1, len(blob)))
    try:
        segment.buf[:len(blob)] = blob
        return run(_shm_worker, (segment.name, len(blob), chunks)), len(blob)
    finally:
        segment.close()
        segment.unlink()


def _measure_staged_bytes(spec: FanOutSpec, shared_state: Any
                          ) -> Optional[int]:
    """Pickled size of the staged state, without shipping it anywhere.

    What the shared-memory transport would put in its segment; measured
    explicitly for the serial and fork transports so
    :attr:`FanOutResult.state_bytes` is comparable across all three.
    Falls back to the state alone when the spec is unpicklable (the serial
    transport accepts lambda specs), and to ``None`` when even the state
    will not pickle.
    """
    try:
        return len(pickle.dumps((spec, shared_state),
                                protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        try:
            return len(pickle.dumps(shared_state,
                                    protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            return None
