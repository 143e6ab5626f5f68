"""Batched Why-No vs. the per-non-answer pipeline (this PR's headline).

``explain(mode="why-no")`` rebuilds the whole Why-No pipeline per missing
answer: generate candidates for the bound query, build the combined instance
``Dx ∪ Dn``, evaluate, read causes off the n-lineage.  The batched engine
(:class:`repro.engine.WhyNoBatchExplainer`) generates candidates for the
whole non-answer set in one pass, builds the combined instance once, and
groups one shared open-query valuation pass by head tuple.  This module
measures the gap on a generated workload with dozens of missing answers and
asserts that

* both paths produce identical causes, responsibilities and contingencies
  for every non-answer, and
* the batched path beats the per-non-answer loop (≥ 2× by default).

``REPRO_BENCH_SMOKE=1`` shrinks the workload and only requires parity plus a
nominal ≥ 1× speedup, so CI smoke stays timing-noise-proof.  Each variant
gets one untimed warm-up call and is then timed best-of-``REPEATS``, so
neither side pays the process's first-call costs (imports, code-object
warm-up) inside its measurement.

Run with ``pytest benchmarks/bench_whyno_batch.py -s`` to see the table.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import explain
from repro.engine import WhyNoBatchExplainer
from repro.relational import Database, parse_query

QUERY = parse_query("q(x) :- R(x, y), S(y), T(y)")
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
N_MISSING = 20 if SMOKE else 40
DOMAIN = 6 if SMOKE else 10
CONTEXT = 300 if SMOKE else 3500
MIN_SPEEDUP = 1.0 if SMOKE else 2.0
REPEATS = 5 if SMOKE else 3


def best_of(run, repeats: int = REPEATS):
    """``(result, seconds)``: one untimed warm call, then the fastest run."""
    result = run()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return result, best


def build_workload(n_missing: int = N_MISSING, domain: int = DOMAIN,
                   context: int = CONTEXT):
    """R populated, S partial, T empty — every R subject is a missing answer.

    ``context`` adds bystander tuples (a ``Log`` relation the query never
    touches), standing in for the realistic case where the query joins a
    small corner of a large database.  The per-non-answer loop pays for them
    anyway: every ``explain(mode="why-no")`` call re-materialises the *full*
    combined instance ``Dx ∪ Dn``, while the batched engine builds it once.
    """
    db = Database()
    for i in range(n_missing):
        db.add_fact("R", f"x{i}", f"b{i % domain}")
        db.add_fact("R", f"x{i}", f"b{(i + 1) % domain}")
    for j in range(0, domain, 2):
        db.add_fact("S", f"b{j}")
    for k in range(context):
        db.add_fact("Log", f"x{k % n_missing}", f"event{k}", endogenous=False)
    domains = {"y": [f"b{j}" for j in range(domain)]}
    non_answers = [(f"x{i}",) for i in range(n_missing)]
    return db, domains, non_answers


@pytest.fixture(scope="module")
def workload():
    return build_workload()


def ranking(explanation):
    return [(c.tuple, c.responsibility, c.contingency)
            for c in explanation.ranked()]


def test_batched_whyno_matches_and_beats_per_non_answer_loop(workload,
                                                             table_printer):
    db, domains, non_answers = workload
    assert len(non_answers) >= 20, "workload too small to be meaningful"

    def run_batched():
        explainer = WhyNoBatchExplainer(QUERY, db, non_answers=non_answers,
                                        domains=domains)
        return explainer, explainer.explain_all()

    def run_loop():
        return {
            na: explain(QUERY, db, answer=na, mode="why-no",
                        whyno_domains=domains)
            for na in non_answers
        }

    (explainer, batched), batched_seconds = best_of(run_batched)
    per_answer, loop_seconds = best_of(run_loop)

    # Identical explanations, non-answer by non-answer, cause by cause.
    for na in non_answers:
        assert ranking(batched[na]) == ranking(per_answer[na]), \
            f"explanation mismatch for {na!r}"

    speedup = loop_seconds / batched_seconds if batched_seconds \
        else float("inf")
    table_printer(
        "Batched Why-No vs. per-non-answer loop",
        ("variant", "non-answers", "|Dn| union", "seconds"),
        [
            ("per-non-answer explain() loop", len(per_answer), "-",
             f"{loop_seconds:.3f}"),
            ("WhyNoBatchExplainer.explain_all()", len(batched),
             len(explainer.candidate_union()), f"{batched_seconds:.3f}"),
            ("speedup", "", "", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched path only {speedup:.1f}x faster (wanted >= {MIN_SPEEDUP}x)"
    )


def test_sqlite_backend_agrees_on_the_workload(workload):
    db, domains, non_answers = workload
    subset = non_answers[: min(10, len(non_answers))]
    memory = WhyNoBatchExplainer(QUERY, db, non_answers=subset,
                                 domains=domains).explain_all()
    sqlite_ = WhyNoBatchExplainer(QUERY, db, non_answers=subset,
                                  domains=domains,
                                  backend="sqlite").explain_all()
    assert list(memory) == list(sqlite_)
    for na in subset:
        assert ranking(memory[na]) == ranking(sqlite_[na]), na


def test_benchmark_batched_whyno(benchmark, workload):
    """pytest-benchmark view of the batched path alone."""
    db, domains, non_answers = workload

    def run():
        return WhyNoBatchExplainer(
            QUERY, db, non_answers=non_answers, domains=domains).explain_all()

    result = benchmark(run)
    assert len(result) == len(non_answers)
