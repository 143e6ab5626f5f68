"""Lazy valuation blocks: ≥ 5× over materialised valuations on 10⁵ of them.

Every explanation mode funnels through one loop — enumerate the open
query's valuations, group them by head, rebuild the lineage inverted index
(Sect. 3 of the paper makes valuations the unit of all downstream work).
Both sides of this benchmark run the same columnar kernel
(`relational/columnar.py`: dictionary-encoded columns, block-at-a-time hash
joins along the greedy semi-join plan, head grouping on integer codes); they
differ in what they hand on:

* **materialised** — ``QueryEvaluator.valuations()``, the tuple-at-a-time
  API bound queries and delta residuals use: every block is turned into one
  ``Valuation`` object, one assignment dict and one conjunct ``frozenset``
  per valuation, then grouped by head in a dict;
* **blocks** — ``valuations_blocks()``, what the batch engines' full pass
  keeps: per-answer :class:`ValuationBlock`\\ s whose conjuncts materialise
  lazily, and a lineage index rebuilt off distinct row-ids without ever
  creating a frozenset.

Two claims, on the memory backend against the two-table open-query workload
(~1.2 · 10⁵ valuations at the full tier):

* the **pass** — enumerate + group by head — is **≥ 5×** faster as blocks
  (the blocks never build per-valuation structures);
* the **pipeline** — pass *plus* the lineage-index rebuild every
  first-explain pays — is **≥ 2×** faster.  The rebuild's postings map
  (one dict/set entry per distinct tuple–answer edge) is python-object
  work both sides share, so it bounds the end-to-end ratio; the block path
  feeds it distinct row-ids (``lineage_tuples``) instead of conjunct
  frozensets, which is where the remaining pipeline win comes from.
* both pipelines produce the identical grouping and identical index
  postings (asserted per run, untimed).

``REPRO_BENCH_SMOKE=1`` shrinks the workload (~10³ valuations) and keeps
nominal, timing-noise-proof bounds.  Run with
``pytest benchmarks/bench_columnar_pass.py -s`` to see the table.
"""

from __future__ import annotations

import os
import time

from repro.engine.lineage_index import LineageIndex
from repro.relational import parse_query
from repro.relational.evaluation import QueryEvaluator
from repro.relational.query import Variable
from repro.workloads import random_two_table_instance

QUERY = parse_query("q(x) :- R(x, y), S(y, z)")
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

# (n_r, n_s, domain): the full tier lands at ~1.2e5 valuations of QUERY.
BASE = (400, 300, 40) if SMOKE else (5000, 3800, 120)
REPEATS = 2 if SMOKE else 3
MIN_SPEEDUP = 0.2 if SMOKE else 5.0
MIN_PIPELINE_SPEEDUP = 0.1 if SMOKE else 2.0


def build_workload():
    n_r, n_s, domain = BASE
    return random_two_table_instance(n_r=n_r, n_s=n_s, domain_size=domain,
                                     seed=7)


def materialised_pass(database):
    """Enumerate ``valuations()``, project each head, group conjuncts.

    The kernel runs once; every valuation then becomes a ``Valuation``
    object and a conjunct ``frozenset`` in a per-head dict.
    """
    evaluator = QueryEvaluator(database)
    grouped = {}
    for valuation in evaluator.valuations(QUERY):
        head = tuple(
            valuation.assignment[term] if isinstance(term, Variable)
            else term.value
            for term in QUERY.head
        )
        grouped.setdefault(head, []).append(valuation.tuples())
    return grouped


def blocks_pass(database):
    """The kernel's blocks as they come: one lazy block per answer."""
    return QueryEvaluator(database).valuations_blocks(QUERY)


def lineage_index_of(grouped):
    index = LineageIndex()
    index.rebuild(grouped)
    return index


def materialised_pipeline(database):
    """Pass + lineage-index rebuild from conjunct frozensets."""
    grouped = materialised_pass(database)
    return grouped, lineage_index_of(grouped)


def blocks_pipeline(database):
    """Pass + lineage-index rebuild straight off the blocks' row ids."""
    blocks = blocks_pass(database)
    return blocks, lineage_index_of(blocks)


def best_of(fn, *args):
    best, result = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_columnar_pass_speedup(table_printer):
    database = build_workload()

    materialised_pass_s, grouped = best_of(materialised_pass, database)
    blocks_pass_s, blocks = best_of(blocks_pass, database)
    materialised_pipe_s, (_, materialised_index) = best_of(
        materialised_pipeline, database)
    blocks_pipe_s, (_, blocks_index) = best_of(blocks_pipeline, database)

    # Identical grouping (untimed): same answers, same conjunct multisets,
    # same index postings.
    assert set(blocks) == set(grouped)
    n_valuations = 0
    for head, group in grouped.items():
        block = blocks[head]
        n_valuations += len(group)
        assert len(block) == len(group)
        assert sorted(map(sorted, group)) \
            == sorted(map(sorted, block.conjuncts()))
    assert blocks_index.snapshot() == materialised_index.snapshot()

    pass_speedup = materialised_pass_s / blocks_pass_s if blocks_pass_s \
        else float("inf")
    pipe_speedup = materialised_pipe_s / blocks_pipe_s if blocks_pipe_s \
        else float("inf")
    table_printer(
        "Lazy valuation blocks vs materialised valuations() (memory backend)",
        ("stage", "valuations", "materialised ms", "blocks ms", "speedup"),
        [("pass", n_valuations,
          f"{materialised_pass_s * 1e3:.1f}",
          f"{blocks_pass_s * 1e3:.1f}",
          f"{pass_speedup:.1f}x"),
         ("pass+index", n_valuations,
          f"{materialised_pipe_s * 1e3:.1f}",
          f"{blocks_pipe_s * 1e3:.1f}",
          f"{pipe_speedup:.1f}x")],
    )
    if not SMOKE:
        assert n_valuations >= 100_000, (
            f"workload produced only {n_valuations} valuations; the claim "
            "is pinned at the 1e5-valuation scale"
        )
    assert pass_speedup >= MIN_SPEEDUP, (
        f"block pass only {pass_speedup:.1f}x faster than materialised "
        f"valuations (wanted >= {MIN_SPEEDUP}x)"
    )
    assert pipe_speedup >= MIN_PIPELINE_SPEEDUP, (
        f"block pipeline only {pipe_speedup:.1f}x faster than materialised "
        f"valuations (wanted >= {MIN_PIPELINE_SPEEDUP}x)"
    )
