"""In-memory spans and counters around the program's layer entry points.

The tracer wraps public functions and methods of :mod:`repro` *where their
callers look them up*: a module-level function is patched in the module
that imported it (``repro.core.flow_responsibility.max_flow``, not
``repro.flow.maxflow.max_flow``), a method is patched on its class.  Nothing
under ``src/`` changes; :meth:`Tracer.uninstall` restores every original.

Each wrapped call records one span ``[id, name, parent id, thread, start,
end, inside, child]`` (nanoseconds).  ``inside`` is the time spent in the
call — for a generator, the sum of its resumptions — and ``child`` the
part of it covered by nested spans, so a span's self time is
``inside - child``.  Spans live in a list until :meth:`Tracer.dump` writes
them out at the end of the run.  Counters are recorded at the same
boundaries, so ratios are measured where the work happens.

Spans recorded inside forked fan-out workers stay in the workers; the
parent measures the fan-out itself (wall time, staged bytes, and the
workers' CPU through ``RUSAGE_CHILDREN``).
"""

from __future__ import annotations

import importlib
import itertools
import json
import resource
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Span name -> layer: the part before the first dot, named after the
#: ``repro`` subpackage the wrapped function lives in.
LAYERS = ("relational", "lineage", "core", "flow", "engine", "server")

_ID, _NAME, _PARENT, _THREAD, _START, _END, _INSIDE, _CHILD, _NESTED = \
    range(9)

def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Spans and counters for one benchmark process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.recording = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- recording --------------------------------------------------------- #
    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, stack: List[list]) -> list:
        parent = stack[-1] if stack else None
        record = [next(self._ids), name,
                  parent[_ID] if parent is not None else None,
                  threading.get_ident(), 0, 0, 0, 0,
                  any(r[_NAME] == name for r in stack)]
        self.spans.append(record)
        return record

    def count(self, name: str, amount: float = 1) -> None:
        if self.recording:
            self.counters[name] += amount

    def wrap_call(self, original: Callable, name: str,
                  before: Optional[Callable[[tuple, dict], Any]] = None,
                  after: Optional[Callable[..., None]] = None) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return original(*args, **kwargs)
            stack = tracer._stack()
            record = tracer._open(name, stack)
            token = before(args, kwargs) if before is not None else None
            stack.append(record)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                record[_START], record[_END] = start, end
                record[_INSIDE] = end - start
                if stack:
                    stack[-1][_CHILD] += end - start
            if after is not None:
                after(tracer, args, kwargs, result, token)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    def wrap_generator(self, original: Callable, name: str) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            if not tracer.recording:
                yield from original(*args, **kwargs)
                return
            stack = tracer._stack()
            record = tracer._open(name, stack)
            iterator = original(*args, **kwargs)
            while True:
                stack = tracer._stack()
                stack.append(record)
                start = time.perf_counter_ns()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end = time.perf_counter_ns()
                    stack.pop()
                    if not record[_START]:
                        record[_START] = start
                    record[_END] = end
                    record[_INSIDE] += end - start
                    if stack:
                        stack[-1][_CHILD] += end - start
                yield item

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    # -- installation ------------------------------------------------------ #
    def patch(self, owner: Any, attribute: str, replacement: Callable) -> None:
        original = owner.__dict__[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every layer entry point the benchmark measures."""
        for owner, attribute, name, kind, before, after in _targets():
            original = owner.__dict__[attribute]
            if kind == "gen":
                wrapped = self.wrap_generator(original, name)
            else:
                wrapped = self.wrap_call(original, name, before, after)
            self.patch(owner, attribute, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- summaries --------------------------------------------------------- #
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive ms (outermost spans only), self ms."""
        out: Dict[str, Dict[str, float]] = {}
        for record in self.spans:
            entry = out.setdefault(record[_NAME],
                                   {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            if not record[_NESTED]:
                entry["ms"] += record[_INSIDE] / 1e6
            entry["self_ms"] += (record[_INSIDE] - record[_CHILD]) / 1e6
        return out

    def layer_self_ms(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for record in self.spans:
            layer = record[_NAME].split(".", 1)[0]
            totals[layer] += (record[_INSIDE] - record[_CHILD]) / 1e6
        return totals

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        """Write spans, counters and ``extra`` as one JSON document."""
        payload = {
            "fields": ["id", "name", "parent", "thread", "start_ns",
                       "end_ns", "inside_ns", "child_ns", "nested"],
            "spans": self.spans,
            "counters": dict(self.counters),
            "summary": self.summary(),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


# --------------------------------------------------------------------------- #
# counters recorded at the wrapped boundaries
# --------------------------------------------------------------------------- #
def _set_true_before(args: tuple, kwargs: dict) -> Any:
    formula, variables = args[0], args[1]
    passed = variables if isinstance(variables, (set, frozenset)) \
        else set(variables)
    useful = sum(1 for v in formula.variables() if v in passed)
    return len(passed), useful


def _set_true_after(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
                    token: Any) -> None:
    passed, useful = token
    tracer.count("lineage.set_true_vars", passed)
    tracer.count("lineage.set_true_useful_vars", useful)


def _network_after(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
                   token: Any) -> None:
    network = result[0]
    tracer.count("core.flow_edges", len(network.edges))


def _invalidate_after(tracer: Tracer, args: tuple, kwargs: dict,
                      result: Any, token: Any) -> None:
    tracer.count("engine.cache_invalidated", result)


def _refresh_after(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
                   token: Any) -> None:
    tracer.count("engine.refresh_stale", len(result.stale))


def _fanout_before(args: tuple, kwargs: dict) -> Any:
    return _children_cpu(), time.perf_counter()


def _fanout_after(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
                  token: Any) -> None:
    cpu_before, wall_before = token
    tracer.count("engine.fanout_child_cpu_s", _children_cpu() - cpu_before)
    tracer.count("engine.fanout_wall_s", time.perf_counter() - wall_before)
    tracer.count("engine.fanout_state_bytes", result.state_bytes or 0)
    tracer.count("engine.fanout_workers", result.effective_workers)


def _targets() -> List[tuple]:
    """``(owner, attribute, span name, kind, before, after)`` per entry point.

    Owners are the modules or classes the *callers* resolve the name in.
    """
    # import_module, not ``import a.b as c``: ``repro.core`` re-exports
    # functions that shadow its submodules' names as package attributes.
    flow_responsibility = importlib.import_module(
        "repro.core.flow_responsibility")
    hitting_set = importlib.import_module("repro.core.hitting_set")
    responsibility = importlib.import_module("repro.core.responsibility")
    batch = importlib.import_module("repro.engine.batch")
    from repro.core.api import ExplanationSession
    from repro.engine.cache import LineageCache
    from repro.engine.lineage_index import LineageIndex
    from repro.lineage.boolean_expr import PositiveDNF
    from repro.relational.evaluation import QueryEvaluator
    from repro.relational.session import BackendSession

    call, gen = "call", "gen"
    return [
        (batch, "open_session", "relational.load", call, None, None),
        (QueryEvaluator, "valuations_blocks", "relational.pass", call,
         None, None),
        (QueryEvaluator, "grouped_valuations", "relational.pass", gen,
         None, None),
        (QueryEvaluator, "valuations", "relational.valuations", gen,
         None, None),
        (BackendSession, "apply_delta", "relational.apply_delta", call,
         None, None),
        (PositiveDNF, "set_true", "lineage.set_true", call,
         _set_true_before, _set_true_after),
        (PositiveDNF, "remove_redundant", "lineage.remove_redundant", call,
         None, None),
        (flow_responsibility.FlowEngine, "responsibility",
         "core.flow_responsibility", call, None, None),
        (flow_responsibility, "build_flow_network", "core.flow_network_build",
         call, None, _network_after),
        (flow_responsibility, "max_flow", "flow.max_flow", call, None, None),
        (responsibility, "minimum_hitting_set", "core.hitting_set", call,
         None, None),
        (hitting_set, "greedy_hitting_set", "core.greedy", call, None, None),
        (LineageIndex, "rebuild", "engine.index_rebuild", call, None, None),
        (LineageIndex, "answers_with", "engine.index_probe", call,
         None, None),
        (batch.BatchExplainer, "refresh_all", "engine.refresh", call,
         None, _refresh_after),
        (LineageCache, "invalidate_tuples", "engine.cache_invalidate", call,
         None, _invalidate_after),
        (batch, "fan_out", "engine.fanout", call,
         _fanout_before, _fanout_after),
        (ExplanationSession, "explain", "server.engine", call, None, None),
        (ExplanationSession, "refresh_all", "server.engine", call,
         None, None),
    ]
