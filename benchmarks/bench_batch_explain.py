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
so neither pays the process's first-call costs inside its measurement.  The
timed runs alternate (batch, per-answer, batch, ...), so a slow phase of a
noisy host slows both sides rather than one.  Every batch run builds a fresh
:class:`BatchExplainer`, so memo hits from an earlier run never count.

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


def best_of_alternating(runs, repeats: int = REPEATS):
    """``(results, seconds)`` per run: one untimed warm call each, then
    ``repeats`` rounds that time every run once, in turn; the fastest wins."""
    results = [run() for run in runs]
    best = [float("inf")] * len(runs)
    for _ in range(repeats):
        for i, run in enumerate(runs):
            start = time.perf_counter()
            results[i] = run()
            best[i] = min(best[i], time.perf_counter() - start)
    return results, best


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
    answers = BatchExplainer(QUERY, workload).answers()
    (batch, legacy), (batch_seconds, legacy_seconds) = best_of_alternating([
        lambda: BatchExplainer(QUERY, workload).explain_all(),
        lambda: {answer: legacy_explain(QUERY, workload, answer)
                 for answer in answers},
    ])
    assert len(batch) >= MIN_ANSWERS, "workload too small to be meaningful"

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
