"""The workloads: inputs, set-up, measured phase, checks.

Every workload is a sequence of *rounds* over one generated instance.  A
round is

1. **set-up** (timed as ``setup_s``, between two reference measurements,
   see :mod:`reference`): load the generated rows into a
   :class:`~repro.relational.database.Database`, open the explainer or the
   server session, and finish the first pass and the lineage index;
2. **measured phase**: a fixed amount of work in fixed-size segments, each
   segment timed (``run_s`` / ``cpu_s``) and each operation timed on its
   own (``op_p50_ms`` / ``op_p90_ms``);
3. **checks**, outside every timed region: a sample of the results is
   compared against an independent path through the program.

The rows are derived from the seed alone, so the same seed gives the same
inputs on every commit; the program only ever sees the generated rows.
"""

from __future__ import annotations

import gc
import os
import random
import struct
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import BatchExplainer, Database, parse_query

from checks import Recorder, compare_rankings, explanation_ranking, \
    frame_ranking, wire_ranking
from reference import reference_level

Rows = Dict[str, List[Tuple[Any, ...]]]


def load_rows(rows: Rows, exogenous: Sequence[str] = ()) -> Database:
    db = Database()
    for relation in sorted(rows):
        endogenous = relation not in exogenous
        for row in rows[relation]:
            db.add_fact(relation, *row, endogenous=endogenous)
    return db


class Workload:
    """One named workload; subclasses fill in the four hooks."""

    name = ""
    #: Run the benchmark process on one CPU.  The reference chunks then
    #: time the CPU the work runs on (the two CPUs of a shared VM slow
    #: down at different times), and a closed loop's threads hand off on
    #: one CPU.  Off only where the work needs more than one CPU.
    one_cpu = True

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        self.rows = self.generate(random.Random(seed))

    def generate(self, rng: random.Random) -> Any:
        raise NotImplementedError

    def setup(self) -> Any:
        raise NotImplementedError

    def measure(self, state: Any, rec: Recorder) -> None:
        raise NotImplementedError

    def check(self, state: Any, rec: Recorder, rng: random.Random) -> None:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        pass

    def layer_counters(self, state: Any, tracer: Any) -> None:
        """Record engine-side counters (cache, memo) of a traced round.

        Runs after :meth:`check`, which must leave the measured engine's
        counters untouched (or snapshot them first, as serve-refresh does).
        """

    def run_round(self, rec: Recorder, tracer: Any = None,
                  round_index: int = 0) -> None:
        recording = tracer is not None
        gc.collect()
        before = reference_level()
        if recording:
            tracer.recording = True
        start = time.perf_counter()
        state = self.setup()
        rec.setups.append(time.perf_counter() - start)
        rec.setup_levels.append((before[0] + reference_level()[0]) / 2)
        gc.collect()
        try:
            self.measure(state, rec)
            if recording:
                tracer.recording = False
            self.check(state, rec,
                       random.Random(self.seed * 7919 + round_index))
            if recording:
                self.layer_counters(state, tracer)
        finally:
            if recording:
                tracer.recording = False
            self.teardown(state)


def timed(rec: Recorder, samples: List[float], operation: Callable[[], Any]
          ) -> Optional[Any]:
    """Run one operation; its latency (ms) goes to ``samples``.

    A raised exception counts as a failed operation and its latency is not
    recorded.
    """
    rec.attempted += 1
    start = time.perf_counter()
    try:
        result = operation()
    except Exception as error:  # the benchmark records, never masks, failures
        rec.fail(f"{type(error).__name__}: {error}")
        return None
    samples.append((time.perf_counter() - start) * 1e3)
    return result


# --------------------------------------------------------------------------- #
# whyso-flow: serial explain of the answers of a weakly linear query
# --------------------------------------------------------------------------- #
WHYSO_QUERY = parse_query("q(x) :- R(x, y), S(y, z)")


class WhySoFlow(Workload):
    """60 answers of ``q(x) :- R(x, y), S(y, z)``, one ``explain`` each.

    The instance has the shape of
    :func:`repro.workloads.generators.random_two_table_instance`: uniform
    random pairs over one domain, every tuple endogenous.  ``auto`` sends
    every tuple to Algorithm 1 (the flow engine).
    """

    name = "whyso-flow"
    n_r, n_s, domain = 200, 170, 100
    #: Answers explained per round.  The instance has 81 answers on average
    #: (standard deviation 3.5, fewest 64 over 20 000 seeds); a fixed count
    #: below that keeps a round the same amount of work whatever the seed.
    per_round = 60
    #: Operations per timed segment (``run_s`` / ``cpu_s`` are per segment).
    segment = 20

    def generate(self, rng: random.Random) -> Rows:
        n_r, n_s = int(self.n_r * self.scale), int(self.n_s * self.scale)
        domain = max(2, int(self.domain * self.scale))
        return {
            "R": [(rng.randrange(domain), rng.randrange(domain))
                  for _ in range(n_r)],
            "S": [(rng.randrange(domain), rng.randrange(domain))
                  for _ in range(n_s)],
        }

    def setup(self) -> Dict[str, Any]:
        db = load_rows(self.rows)
        explainer = BatchExplainer(WHYSO_QUERY, db)
        answers = explainer.answers()
        count = int(self.per_round * self.scale) or 1
        if len(answers) < count and self.scale == 1.0:
            raise RuntimeError(f"seed {self.seed}: {len(answers)} answers, "
                               f"a round explains {count}")
        picked = sorted(random.Random(self.seed).sample(
            range(len(answers)), min(count, len(answers))))
        return {"db": db, "explainer": explainer,
                "answers": [answers[i] for i in picked], "results": {}}

    def measure(self, state: Dict[str, Any], rec: Recorder) -> None:
        explainer, results = state["explainer"], state["results"]
        for segment in rec.segmented(state["answers"], self.segment):
            for answer in segment:
                results[answer] = timed(rec, rec.ops,
                                        lambda: explainer.explain(answer))

    def check(self, state: Dict[str, Any], rec: Recorder,
              rng: random.Random) -> None:
        # Theorem 4.5: where Algorithm 1 applies, the exact engine gives the
        # same responsibilities (contingencies may differ between engines).
        exact = BatchExplainer(WHYSO_QUERY, state["db"], method="exact")
        for answer, served in sample_results(state["results"], rng, 3):
            rec.check(answer, compare_rankings(
                explanation_ranking(exact.explain(answer), contingency=False),
                explanation_ranking(served, contingency=False)))

    def layer_counters(self, state: Dict[str, Any], tracer: Any) -> None:
        record_engine_counters(tracer, state["explainer"])


def sample_results(results: Dict[Any, Any], rng: random.Random, k: int
                   ) -> List[Tuple[Any, Any]]:
    """Up to ``k`` of the explained answers (failed operations are already
    counted as failures and have no result to check)."""
    explained = sorted(item for item in results.items()
                       if item[1] is not None)
    return rng.sample(explained, min(k, len(explained)))


def record_engine_counters(tracer: Any, explainer: BatchExplainer) -> None:
    cache = explainer.cache
    tracer.counters["engine.cache_hits"] += cache.hits
    tracer.counters["engine.cache_misses"] += cache.misses
    tracer.counters["engine.cache_entries"] += len(cache)
    tracer.counters["engine.memo_hits"] += explainer.memo_hits
    tracer.counters["engine.memo_misses"] += explainer.memo_misses


# --------------------------------------------------------------------------- #
# whyso-fanout: the whyso-flow instance through the fork pool
# --------------------------------------------------------------------------- #
class WhySoFanOut(WhySoFlow):
    """The whyso-flow round as one request through a 2-worker fork pool.

    The request is ``explain_all`` over the round's answers with
    ``workers=2, transport="fork", chunking="stealing"``.  One request for
    the whole batch is how every ``explain_all`` caller in the repository
    issues it (``benchmarks/bench_parallel_fanout.py``, the server's
    ``explain-batch``).  So the pool stages the state once, forks, steals
    over 8 chunks of 7-8 answers and merges the workers' cache shards.

    ``run_s`` / ``cpu_s`` are per request (a segment is one request, the
    workers' CPU included).  A request returns all its answers at once, so
    the per-answer latencies come from inside the workers:
    :class:`WorkerLatencies` times each worker-side ``explain``.
    """

    name = "whyso-fanout"
    one_cpu = False

    def measure(self, state: Dict[str, Any], rec: Recorder) -> None:
        explainer = state["explainer"]
        latencies = WorkerLatencies(rec.ops)
        for segment in rec.segmented([state["answers"]], 1):
            with latencies:
                out = timed(rec, [], lambda: explainer.explain_all(
                    segment[0], workers=2, transport="fork",
                    chunking="stealing"))
            for level in latencies.levels:
                rec.note_level(level)
            state["results"].update(out or {})
        state["latencies"] = latencies.count

    def check(self, state: Dict[str, Any], rec: Recorder,
              rng: random.Random) -> None:
        # Every answer was explained in a worker and timed there.
        rec.check("worker latencies", [] if state["latencies"] == len(
            state["results"]) else [f"{state['latencies']} worker-side "
                                    f"latencies for {len(state['results'])} "
                                    "answers"])
        # Parallel results must be bit-identical to serial, contingencies
        # included.
        serial = BatchExplainer(WHYSO_QUERY, state["db"])
        for answer, served in sample_results(state["results"], rng, 3):
            rec.check(answer, compare_rankings(
                explanation_ranking(serial.explain(answer)),
                explanation_ranking(served)))


class WorkerLatencies:
    """Time every ``BatchExplainer.explain`` run inside a fork worker.

    Fork workers inherit the parent's memory, so wrapping the method on its
    class before the pool forks reaches the workers' explainers.  Each
    worker writes one record per answer to a pipe; the parent drains it
    after the pool has shut down (a request's few hundred bytes fit in the
    pipe buffer, so no worker ever blocks on it).

    Before its first answer, each worker also measures the reference
    level (:func:`reference.reference_level`) on the CPU it runs on and
    writes it as a record of its own: the workers run on other CPUs than
    the parent's reference brackets, and their speeds differ.
    """

    #: (kind, value, value): ``T`` latency ms, or ``L`` level wall/CPU s.
    RECORD = struct.Struct("cdd")

    def __init__(self, samples: List[float]) -> None:
        self.samples = samples
        self.count = 0
        self.levels: List[Tuple[float, float]] = []

    def __enter__(self) -> "WorkerLatencies":
        parent = os.getpid()
        self.original = BatchExplainer.__dict__["explain"]
        self.read_fd, write_fd = os.pipe()
        self.write_fd = write_fd
        original, record = self.original, self.RECORD
        leveled = {parent}

        def explain(explainer: Any, *args: Any, **kwargs: Any) -> Any:
            pid = os.getpid()
            if pid == parent:
                return original(explainer, *args, **kwargs)
            if pid not in leveled:
                leveled.add(pid)
                os.write(write_fd, record.pack(b"L", *reference_level()))
            start = time.perf_counter()
            result = original(explainer, *args, **kwargs)
            os.write(write_fd, record.pack(
                b"T", (time.perf_counter() - start) * 1e3, 0.0))
            return result

        BatchExplainer.explain = explain  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: Any) -> None:
        BatchExplainer.explain = self.original  # type: ignore[method-assign]
        os.close(self.write_fd)
        os.set_blocking(self.read_fd, False)
        data = b""
        try:
            while True:
                chunk = os.read(self.read_fd, 65536)
                if not chunk:
                    break
                data += chunk
        except BlockingIOError:
            pass
        finally:
            os.close(self.read_fd)
        records = list(self.RECORD.iter_unpack(data))
        values = [v for kind, v, _ in records if kind == b"T"]
        self.levels = [(w, c) for kind, w, c in records if kind == b"L"]
        self.samples.extend(values)
        self.count = len(values)


# --------------------------------------------------------------------------- #
# serve-refresh: the interactive delta / re-explain loop through the server
# --------------------------------------------------------------------------- #
SERVE_QUERY_TEXT = "q(x) :- A(x, u), R(u, v), S(v, w), T(w, u)"
SERVE_QUERY = parse_query(SERVE_QUERY_TEXT)


class ServeRefresh(Workload):
    """One client, closed loop: send a delta, re-explain what it staled.

    ``R``, ``S``, ``T`` form an endogenous triangle (not weakly linear, so
    ``auto`` ends in the exact hitting-set engine); ``A`` is exogenous.
    Every hub ``u`` owns a ``grid`` of triangles ``(u, v_i, w_j)`` that
    share their ``R`` and ``T`` edges, and every hub has the same subjects:
    ``singles`` subjects on that hub alone and one subject shared with
    each of its two neighbours on a shuffled cycle of the hubs, whose
    lineage spans both hubs.  Hubs are isomorphic, so a round costs the
    same on every seed.

    Each delta deletes five of one hub's ``S`` edges and the next delta
    inserts them back, so the instance keeps its size and each delta
    stales the ``singles + 2`` subjects on that hub.

    The mix sets where the latency percentiles fall.  With a 4x4 grid, a
    single costs about 11 ms after a delete and 17 ms after an insert, a
    shared subject 50-85 ms (2-vCPU VM).  With one single and two shared
    subjects, 2 of every 6 re-explains are singles, so the median and the
    90th percentile both fall inside the shared subjects' cluster, where
    every request does tens of ms of exact-engine work.  A median on a
    cheap request (a lineage-cache hit, say) measures mostly the server's
    thread hand-offs, and a median between two clusters jumps between
    them; both spread far past the bound (see ``perfbench/README.md``).
    No two subjects share an n-lineage, so every re-explain misses the
    lineage cache.
    """

    name = "serve-refresh"
    hubs, grid, singles, noise = 40, (4, 4), 1, 150
    deltas_per_round = 24
    segment = 6

    def generate(self, rng: random.Random) -> Rows:
        hubs = max(2, int(self.hubs * self.scale) // 2 * 2)
        labels = rng.sample(range(10 * hubs), hubs)
        rows: Rows = {"A": [], "R": [], "S": [], "T": []}
        grid_s: List[List[Tuple[str, str]]] = []
        vs: List[str] = []
        for label in labels:
            u = f"u{label}"
            v = [f"v{label}_{i}" for i in range(self.grid[0])]
            w = [f"w{label}_{j}" for j in range(self.grid[1])]
            rows["R"] += [(u, vi) for vi in v]
            rows["T"] += [(wj, u) for wj in w]
            grid_s.append([(vi, wj) for vi in v for wj in w])
            rows["S"] += grid_s[-1]
            vs += v
        for k in range(int(self.noise * self.scale)):
            # S edges that close no triangle: they enlarge the relation and
            # the delta semi-join, never a lineage.
            rows["S"].append((rng.choice(vs), f"z{k}"))
        subject = 0
        for label in labels:
            for _ in range(self.singles):
                rows["A"].append((f"x{subject}", f"u{label}"))
                subject += 1
        order = list(range(hubs))
        rng.shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            rows["A"] += [(f"x{subject}", f"u{labels[a]}"),
                          (f"x{subject}", f"u{labels[b]}")]
            subject += 1
        # One round's deltas: hub by hub, delete five S edges, put them back.
        self.deltas: List[Dict[str, Any]] = []
        for k in range(self.deltas_per_round // 2):
            edges = [list(edge) for edge in grid_s[order[k % hubs]][:5]]
            body = {"S": edges}
            self.deltas.append({"delete": {"relations": body}})
            self.deltas.append({"insert": {"relations": body}})
        return rows

    def setup(self) -> Dict[str, Any]:
        from repro.server.registry import SessionConfig
        from repro.server.testing import ServerHarness

        db = load_rows(self.rows, exogenous=("A",))
        harness = ServerHarness([SessionConfig("bench", SERVE_QUERY_TEXT,
                                               db)]).start()
        return {"harness": harness, "client": harness.client(),
                "served": set()}

    def measure(self, state: Dict[str, Any], rec: Recorder) -> None:
        client, served = state["client"], state["served"]
        for segment in rec.segmented(self.deltas, self.segment):
            for delta in segment:
                reply = timed(rec, rec.writes,
                              lambda: client.delta("bench", delta))
                if reply is None:
                    continue
                for answer in reply["refreshed"]["why-so"]["stale"]:
                    if timed(rec, rec.ops,
                             lambda: client.explain("bench", answer)):
                        served.add(tuple(answer))

    def check(self, state: Dict[str, Any], rec: Recorder,
              rng: random.Random) -> None:
        # Served explanations must match a from-scratch batch engine on the
        # final state (every delete was followed by its re-insert, so the
        # final state is the generated instance).
        # A rejected request already failed in the loop (its error frame
        # raised); the stats frame is kept for the traced run's counters.
        client = state["client"]
        state["stats"] = client.stats("bench")["bench"]
        scratch = BatchExplainer(SERVE_QUERY, load_rows(self.rows,
                                                        exogenous=("A",)))
        answers = sorted(scratch.answers())
        live = sorted(tuple(a) for a in client.answers("bench")["answers"])
        rec.check("answers", [] if live == answers else
                  [f"served {len(live)} answers, scratch {len(answers)}"])
        keys = sorted(state["served"])
        sample = rng.sample(keys, min(4, len(keys))) + \
            rng.sample(answers, min(2, len(answers)))
        for answer in sample:
            frame = client.explain("bench", list(answer))["explanation"]
            rec.check(answer, compare_rankings(
                wire_ranking(scratch.explain(answer)), frame_ranking(frame)))

    def layer_counters(self, state: Dict[str, Any], tracer: Any) -> None:
        # The stats frame was fetched at the start of check(), before its
        # own requests could move the counters.
        engines = state["stats"]["engines"]
        tracer.counters["engine.cache_hits"] += engines["cache_hits"]
        tracer.counters["engine.cache_misses"] += engines["cache_misses"]
        tracer.counters["engine.cache_entries"] += engines["cache_entries"]
        tracer.counters["engine.memo_hits"] += engines["whyso_memo_hits"]
        tracer.counters["engine.memo_misses"] += engines["whyso_memo_misses"]
        tracer.counters["server.rejections"] += sum(
            state["stats"]["admission"]["rejections"].values())

    def teardown(self, state: Dict[str, Any]) -> None:
        state["client"].close()
        state["harness"].stop()


WORKLOADS = {cls.name: cls for cls in
             (WhySoFlow, ServeRefresh, WhySoFanOut)}
