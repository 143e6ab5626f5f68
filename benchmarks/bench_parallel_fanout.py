"""Shared-memory fan-out vs. the old re-derive pool (this PR's headline).

The historical process pool shipped each worker a *bound-query payload*: the
worker rebuilt its explainer from scratch — pickled database, fresh backend
load, per-answer bound-query evaluation, and (for Why-No) a full re-run of
candidate generation plus the combined-instance pass for its chunk.  The
:mod:`repro.engine._pool` fan-out instead finishes the shared work **once**
in the parent and lets workers inherit it (fork copy-on-write, or one
pickled shared-memory segment), so the per-worker cost is only the
per-target explanation step.

This module pins that difference on Fig. 2-scale ranking workloads
(thousands of tuples, hundreds of ranked targets), both modes:

* **Why-So** — a sparse two-table ranking instance where each answer's
  lineage is small (explanations are cheap, evaluation is the cost): the
  old pool pays four backend loads plus one bound-query evaluation per
  answer; the fan-out pays neither.
* **Why-No** — the ``bench_whyno_batch`` workload shape (a small query
  corner inside a large exogenous context): the old pool re-generates
  candidates, re-builds the combined instance and re-runs the valuation
  pass per chunk; the fan-out workers only restrict inherited groups.

Assertions: bit-identical explanations across serial / old pool / new
fan-out, and the fan-out at 4 workers is **≥ 2× faster than the old
re-derive pool** (≥ 1× in ``REPRO_BENCH_SMOKE=1`` mode, which also shrinks
the workload).  The speedup measures eliminated re-derivation, so it holds
on any core count; the serial row is printed for context — on a single-core
runner the fan-out cannot beat a serial loop (there is nothing to
parallelise *onto*), while the equivalence suite
(``tests/property/test_parallel_fanout.py``) pins its correctness
everywhere.

A **big tier** at 100x scale pins the same inherited-pass fan-out with
work-stealing chunks (``explain_all(chunking="stealing")``) on a
per-answer-disjoint lineage shape: bit-identity to serial in both modes and
on both backends, plus a printed stealing-vs-serial timing at 4 and 8
workers.  The timing carries no floor: the parent's single valuation pass
is a small share of the request, so the speedup tracks the core count, and
a floor for 4 or more workers cannot be checked on smaller runners.

The old pool is replicated verbatim at module level below — it no longer
exists in the library.  Run with
``pytest benchmarks/bench_parallel_fanout.py -s`` to see the tables.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import random
import time

import pytest

from repro.engine import BatchExplainer, WhyNoBatchExplainer
from repro.relational import Database, parse_query
from repro.workloads import sharded_fanout_instance

RANKING_QUERY = parse_query("q(x) :- R(x, y), S(y, z)")
WHYNO_QUERY = parse_query("q(x) :- R(x, y), S(y), T(y)")
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
MIN_SPEEDUP = 1.0 if SMOKE else 2.0
WORKERS = 4

# Why-So: sparse join — ~1 conjunct per answer, so evaluation dominates.
N_R = 800 if SMOKE else 4000
N_S = 1000 if SMOKE else 5000
Y_DOMAIN = 4000 if SMOKE else 20000
Z_DOMAIN = 20 if SMOKE else 50

# Why-No: the bench_whyno_batch shape, scaled so shared work dominates.
N_MISSING = 24 if SMOKE else 60
WHYNO_DOMAIN = 8 if SMOKE else 14
CONTEXT = 3000 if SMOKE else 20000

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="the legacy pool replica runs on the fork context")


def sparse_ranking_instance(seed: int = 3) -> Database:
    """R(x, y), S(y, z) with y drawn sparse: most answers have one witness."""
    rng = random.Random(seed)
    db = Database()
    for _ in range(N_R):
        db.add_fact("R", rng.randrange(N_R), rng.randrange(Y_DOMAIN))
    for _ in range(N_S):
        db.add_fact("S", rng.randrange(Y_DOMAIN), rng.randrange(Z_DOMAIN))
    return db


def whyno_workload():
    """R populated, S partial, T empty, inside a large exogenous context."""
    db = Database()
    for i in range(N_MISSING):
        db.add_fact("R", f"x{i}", f"b{i % WHYNO_DOMAIN}")
        db.add_fact("R", f"x{i}", f"b{(i + 1) % WHYNO_DOMAIN}")
    for j in range(0, WHYNO_DOMAIN, 2):
        db.add_fact("S", f"b{j}")
    for k in range(CONTEXT):
        db.add_fact("Log", f"x{k % N_MISSING}", f"event{k}",
                    endogenous=False)
    domains = {"y": [f"b{j}" for j in range(WHYNO_DOMAIN)]}
    return db, domains, [(f"x{i}",) for i in range(N_MISSING)]


# --------------------------------------------------------------------------- #
# the old re-derive pool, replicated verbatim (it is gone from the library)
# --------------------------------------------------------------------------- #
def _legacy_whyso_chunk(payload):
    """PR 1–4 worker: rebuild an explainer, re-derive each answer bound."""
    query, database, answers, method, backend = payload
    explainer = BatchExplainer(query, database, method=method,
                               backend=backend)
    return {tuple(answer): explainer.explain(answer) for answer in answers}


def _legacy_whyno_chunk(payload):
    """PR 3–4 worker: rebuild candidates, combined instance and pass."""
    query, database, chunk, domains, backend = payload
    explainer = WhyNoBatchExplainer(query, database, non_answers=chunk,
                                    domains=domains, backend=backend)
    return dict(explainer.explain_all())


def legacy_rederive_pool(targets, workers, make_payload, worker):
    """The old ``fan_out_chunks``: per-chunk payloads, per-worker re-derive."""
    pool_size = min(workers, len(targets))
    chunk_size = -(-len(targets) // pool_size)
    chunks = [list(targets[i:i + chunk_size])
              for i in range(0, len(targets), chunk_size)]
    payloads = [make_payload(chunk) for chunk in chunks]
    context = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=pool_size, mp_context=context) as pool:
        results = {}
        for chunk_result in pool.map(worker, payloads):
            results.update(chunk_result)
    return {target: results[target] for target in targets}


def ranking(explanation):
    return [(c.tuple, c.responsibility, c.contingency)
            for c in explanation.ranked()]


def report(table_printer, title, rows, serial_s, old_s, new_s, new_result):
    speedup_old = old_s / new_s if new_s else float("inf")
    table_printer(
        title,
        ("variant", "targets", "seconds"),
        rows + [
            ("fan-out vs old pool", "", f"{speedup_old:.1f}x"),
            ("fan-out vs serial", "", f"{serial_s / new_s:.1f}x"),
            ("transport / workers", new_result.transport,
             f"{new_result.effective_workers}/"
             f"{new_result.requested_workers}"),
        ],
    )
    return speedup_old


@needs_fork
def test_whyso_fanout_beats_rederive_pool(table_printer):
    db = sparse_ranking_instance()
    method, backend = "exact", "sqlite"

    start = time.perf_counter()
    serial = BatchExplainer(RANKING_QUERY, db, method=method,
                            backend=backend).explain_all()
    serial_s = time.perf_counter() - start
    answers = list(serial)
    assert len(answers) >= (100 if SMOKE else 400), \
        "workload too small to be meaningful"

    start = time.perf_counter()
    parent = BatchExplainer(RANKING_QUERY, db, method=method, backend=backend)
    old = legacy_rederive_pool(
        parent.answers(), WORKERS,
        lambda chunk: (RANKING_QUERY, db, chunk, method, backend),
        _legacy_whyso_chunk)
    old_s = time.perf_counter() - start

    start = time.perf_counter()
    explainer = BatchExplainer(RANKING_QUERY, db, method=method,
                               backend=backend)
    new = explainer.explain_all(workers=WORKERS)
    new_s = time.perf_counter() - start

    for answer in answers:
        assert ranking(serial[answer]) == ranking(old[answer]) \
            == ranking(new[answer]), answer

    speedup = report(
        table_printer, "Why-So fan-out vs. old re-derive pool",
        [("serial explain_all()", len(serial), f"{serial_s:.3f}"),
         (f"old re-derive pool ({WORKERS}w)", len(old), f"{old_s:.3f}"),
         (f"shared-state fan-out ({WORKERS}w)", len(new), f"{new_s:.3f}")],
        serial_s, old_s, new_s, new)
    assert new.effective_workers == WORKERS
    assert speedup >= MIN_SPEEDUP, (
        f"fan-out only {speedup:.1f}x over the re-derive pool "
        f"(wanted >= {MIN_SPEEDUP}x)"
    )


@needs_fork
def test_whyno_fanout_beats_rederive_pool(table_printer):
    db, domains, targets = whyno_workload()
    backend = "sqlite"

    start = time.perf_counter()
    serial = WhyNoBatchExplainer(WHYNO_QUERY, db, non_answers=targets,
                                 domains=domains,
                                 backend=backend).explain_all()
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    old = legacy_rederive_pool(
        targets, WORKERS,
        lambda chunk: (WHYNO_QUERY, db, chunk, domains, backend),
        _legacy_whyno_chunk)
    old_s = time.perf_counter() - start

    start = time.perf_counter()
    explainer = WhyNoBatchExplainer(WHYNO_QUERY, db, non_answers=targets,
                                    domains=domains, backend=backend)
    new = explainer.explain_all(workers=WORKERS)
    new_s = time.perf_counter() - start

    for target in targets:
        assert ranking(serial[target]) == ranking(old[target]) \
            == ranking(new[target]), target

    speedup = report(
        table_printer, "Why-No fan-out vs. old re-derive pool",
        [("serial explain_all()", len(serial), f"{serial_s:.3f}"),
         (f"old re-derive pool ({WORKERS}w)", len(old), f"{old_s:.3f}"),
         (f"shared-state fan-out ({WORKERS}w)", len(new), f"{new_s:.3f}")],
        serial_s, old_s, new_s, new)
    assert new.effective_workers == WORKERS
    assert speedup >= MIN_SPEEDUP, (
        f"fan-out only {speedup:.1f}x over the re-derive pool "
        f"(wanted >= {MIN_SPEEDUP}x)"
    )


# --------------------------------------------------------------------------- #
# the big tier: inherited pass + work-stealing on the 100x-scale workload
# --------------------------------------------------------------------------- #
BIG_ANSWERS = 12 if SMOKE else 80
BIG_WITNESSES = 4 if SMOKE else 20
BIG_WORKER_COUNTS = (4, 8)


def big_fanout_instance(skew_factor: int = 1) -> Database:
    """The 100x-scale fan-out shape: per-answer disjoint lineage."""
    return sharded_fanout_instance(BIG_ANSWERS, BIG_WITNESSES, seed=17,
                                   skew_factor=skew_factor)


@needs_fork
@pytest.mark.parametrize("workers", BIG_WORKER_COUNTS)
def test_big_tier_stealing_timings(table_printer, workers):
    """Inherited pass + stealing vs serial at bench scale: bit-identity is
    asserted, the timings are printed only (no speedup floor)."""
    db = big_fanout_instance()

    start = time.perf_counter()
    serial = BatchExplainer(RANKING_QUERY, db).explain_all()
    serial_s = time.perf_counter() - start
    assert len(serial) == BIG_ANSWERS

    start = time.perf_counter()
    explainer = BatchExplainer(RANKING_QUERY, db)
    pooled = explainer.explain_all(workers=workers, transport="fork",
                                   chunking="stealing")
    pooled_s = time.perf_counter() - start

    assert list(pooled) == list(serial)
    for answer in serial:
        assert ranking(pooled[answer]) == ranking(serial[answer]), answer

    speedup = serial_s / pooled_s if pooled_s else float("inf")
    table_printer(
        f"Big tier: inherited pass + stealing at {workers} workers",
        ("variant", "targets", "seconds"),
        [("serial explain_all()", len(serial), f"{serial_s:.3f}"),
         (f"inherited+stealing ({workers}w)", len(pooled), f"{pooled_s:.3f}"),
         ("stealing vs serial", f"{os.cpu_count() or 1} core(s)",
          f"{speedup:.1f}x"),
         ("staged state", "",
          "n/a" if pooled.state_bytes is None
          else f"{pooled.state_bytes} bytes")])


def test_big_tier_modes_and_backends():
    """Bit-identity of inherited pass + stealing at bench scale: both
    modes, both backends (the property suite covers the randomized space)."""
    db = big_fanout_instance()
    for backend in ("memory", "sqlite"):
        serial = BatchExplainer(RANKING_QUERY, db,
                                backend=backend).explain_all()
        pooled = BatchExplainer(RANKING_QUERY, db, backend=backend).explain_all(
            workers=2, chunking="stealing")
        assert list(pooled) == list(serial), backend
        for answer in serial:
            assert ranking(pooled[answer]) == ranking(serial[answer]), \
                (backend, answer)
    wdb, domains, targets = whyno_workload()
    for backend in ("memory", "sqlite"):
        serial = WhyNoBatchExplainer(WHYNO_QUERY, wdb, non_answers=targets,
                                     domains=domains,
                                     backend=backend).explain_all()
        pooled = WhyNoBatchExplainer(
            WHYNO_QUERY, wdb, non_answers=targets, domains=domains,
            backend=backend).explain_all(workers=2, chunking="stealing")
        assert list(pooled) == list(serial), backend
        for target in targets:
            assert ranking(pooled[target]) == ranking(serial[target]), \
                (backend, target)


def test_transports_agree_on_the_ranking_workload():
    """Cheap cross-transport parity at bench scale (the property suite
    covers the randomized space; this pins the actual bench workload)."""
    db = sparse_ranking_instance(seed=11)
    explainer = BatchExplainer(RANKING_QUERY, db, method="exact")
    serial = explainer.explain_all()
    subset = list(serial)[:40]
    transports = (("fork",) if HAS_FORK else ()) + ("shared-memory",)
    for transport in transports:
        pooled = BatchExplainer(RANKING_QUERY, db, method="exact").explain_all(
            answers=subset, workers=2, transport=transport)
        assert pooled.transport == transport
        for answer in subset:
            assert ranking(pooled[answer]) == ranking(serial[answer]), \
                (transport, answer)
