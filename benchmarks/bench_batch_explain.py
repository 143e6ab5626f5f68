"""Batch explanation vs. the per-answer pipeline (the engine PR's headline).

The seed computed every Fig. 2b-style ranking one (query, answer) pair at a
time: bind the answer, re-enumerate valuations, rebuild the lineage and run
the responsibility dispatcher per tuple.  The batch engine evaluates the open
query once, shares the valuation set and n-lineage across answers and
memoizes hitting-set results.  This module measures the gap on a generated
two-table workload with dozens of answers and asserts that

* both paths produce identical responsibilities for every answer, and
* the batch path is at least 3× faster than the per-answer loop.

Each side gets one untimed warm-up run and is then timed best-of-``REPEATS``,
so neither pays the process's first-call costs inside its measurement; every
batch run builds a fresh :class:`BatchExplainer`, so memo hits from an
earlier run never count.

Run with ``pytest benchmarks/bench_batch_explain.py -s`` to see the table.
"""

from __future__ import annotations

import time

import pytest

from repro.core.responsibility import responsibilities
from repro.engine import BatchExplainer
from repro.relational import parse_query
from repro.workloads import random_two_table_instance

QUERY = parse_query("q(x) :- R(x, y), S(y, z)")
MIN_ANSWERS = 20
MIN_SPEEDUP = 3.0
REPEATS = 3


def best_of(run, repeats: int = REPEATS):
    """``(result, seconds)``: one untimed warm call, then the fastest run."""
    result = run()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return result, best


def legacy_explain(query, database, answer, method="auto"):
    """The seed's per-answer pipeline: bind, evaluate, dispatch per tuple.

    This is exactly what ``explain()`` did before the batch engine: one
    bound-query evaluation for the membership check plus a full
    ``responsibilities()`` sweep that rebuilds the n-lineage per tuple.
    """
    bound = query.bind(answer)
    results = responsibilities(bound, database, method=method)
    return {r.tuple: r.responsibility for r in results if r.responsibility > 0}


@pytest.fixture(scope="module")
def workload():
    database = random_two_table_instance(n_r=150, n_s=100, domain_size=25, seed=3)
    return database


def test_batch_matches_and_beats_per_answer_loop(workload, table_printer):
    batch, batch_seconds = best_of(
        lambda: BatchExplainer(QUERY, workload).explain_all())
    assert len(batch) >= MIN_ANSWERS, "workload too small to be meaningful"

    legacy, legacy_seconds = best_of(
        lambda: {answer: legacy_explain(QUERY, workload, answer)
                 for answer in batch})

    # Identical responsibilities, answer by answer and tuple by tuple.
    for answer, explanation in batch.items():
        got = {c.tuple: c.responsibility for c in explanation}
        assert got == legacy[answer], f"responsibility mismatch for {answer!r}"

    speedup = legacy_seconds / batch_seconds if batch_seconds else float("inf")
    table_printer(
        "Batch explanation vs. per-answer loop",
        ("variant", "answers", "seconds"),
        [
            ("per-answer explain() loop", len(legacy), f"{legacy_seconds:.3f}"),
            ("BatchExplainer.explain_all()", len(batch), f"{batch_seconds:.3f}"),
            ("speedup", "", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batch path only {speedup:.1f}x faster (wanted >= {MIN_SPEEDUP}x)"
    )


def test_benchmark_batch_explain_all(benchmark, workload):
    """pytest-benchmark view of the batch path alone."""
    def run():
        return BatchExplainer(QUERY, workload).explain_all()

    result = benchmark(run)
    assert len(result) >= MIN_ANSWERS
