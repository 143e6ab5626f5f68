"""Lineage inverted index: refresh cost ∝ delta, not instance (this PR).

``bench_incremental`` pins refresh vs. *from-scratch*; this module pins the
next gap: the pre-index refresh still paid Θ(answers) per delta — a sweep
over every answer's valuation group to find the dirty ones, a tree-walk over
every cache entry to invalidate, and full exogenous-set / evaluator rebuilds.
The inverted index replaces all of that with O(k · fanout) postings probes
for a k-tuple delta, so refresh cost should be **flat across instance
sizes** for a fixed-size delta.

Two claims, both on both backends, against a 1× / 10× / 100× sweep of the
two-table workload (the domain scales with the instance so the delta's join
fan-out stays constant):

* at the largest tier, ``refresh_all`` beats ``legacy_refresh`` — a faithful
  re-implementation of the pre-index algorithm (group sweep,
  ``_key_mentions`` cache walk, full exogenous rebuild, evaluator
  column-store rebuild) run against the same engine state — by ≥ 5×;
* the indexed refresh time grows by at most 2× from the 1× tier to the
  100× tier, i.e. it tracks the delta, not the instance.

``REPRO_BENCH_SMOKE=1`` shrinks the sweep and keeps only nominal,
timing-noise-proof bounds.  Run with
``pytest benchmarks/bench_lineage_index.py -s`` to see the tables.
"""

from __future__ import annotations

import os
import time
from collections import Counter

import pytest

from repro.engine import BatchExplainer
from repro.lineage.boolean_expr import PositiveDNF
from repro.relational.columnar import materialize_conjuncts
from repro.relational import DatabaseDelta, evaluate, parse_query
from repro.relational.evaluation import QueryEvaluator
from repro.relational.tuples import Tuple
from repro.workloads import random_two_table_instance

QUERY = parse_query("q(x) :- R(x, y), S(y, z)")
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

# The domain scales with the instance so a fixed 5-tuple delta touches a
# constant number of valuations at every tier.
BASE = (30, 20, 9) if SMOKE else (60, 40, 18)
SCALES = (1, 2, 4) if SMOKE else (1, 10, 100)
REPEATS = 3 if SMOKE else 5
MIN_SPEEDUP = 0.2 if SMOKE else 5.0
FLAT_FACTOR = 10.0 if SMOKE else 2.0


def build_workload(scale: int):
    n_r, n_s, domain = BASE
    return random_two_table_instance(n_r=n_r * scale, n_s=n_s * scale,
                                     domain_size=domain * scale, seed=7)


def delta_and_inverse(db):
    """A 5-tuple change of *fixed join fan-out* and the delta undoing it.

    Flatness across instance sizes is only meaningful if the delta touches
    the same amount of lineage at every tier, so the change is built to a
    fixed shape rather than sampled: four fresh-value tuples forming two
    brand-new answers (three conjuncts of new lineage), plus the deletion
    of an S tuple *calibrated* to have ~3 R partners — picking, say, the
    lexicographically smallest S tuple instead would hand each tier a
    different, randomly sized dirty set.
    """
    partners = Counter(t.values[1] for t in db.tuples_of("R"))
    s_del = min(sorted(db.tuples_of("S")),
                key=lambda t: abs(partners.get(t.values[0], 0) - 3))
    fresh = [Tuple("R", ("fresh_x1", "fresh_y")),
             Tuple("R", ("fresh_x2", "fresh_y")),
             Tuple("S", ("fresh_y", "fresh_z1")),
             Tuple("S", ("fresh_y", "fresh_z2"))]
    delta = DatabaseDelta(deletes=[s_del], inserts=fresh)
    inverse = DatabaseDelta(deletes=fresh,
                            inserts=[(s_del, db.is_endogenous(s_del))])
    return delta, inverse


def _key_mentions(key, tuples):
    """Does a cache key reference any of the given database tuples?

    The pre-index invalidation's structural walk, kept here for the replay:
    keys are trees of hashables whose tuple-bearing leaves are
    :class:`~repro.relational.tuples.Tuple` values and :class:`PositiveDNF`
    formulas; anything else is opaque and treated as tuple-free.
    """
    if isinstance(key, Tuple):
        return key in tuples
    if isinstance(key, PositiveDNF):
        return bool(key.variables() & tuples)
    if isinstance(key, (tuple, frozenset)):
        return any(_key_mentions(part, tuples) for part in key)
    return False


def _drop_entry(cache, key):
    """Remove one entry and its per-tuple key postings."""
    del cache._entries[key]
    phi_n, tuple_ = key
    for tup in phi_n.variables() | {tuple_}:
        bucket = cache._tuple_keys[tup]
        bucket.discard(key)
        if not bucket:
            del cache._tuple_keys[tup]


def legacy_refresh(explainer, delta):
    """The pre-index refresh, replayed against a live engine.

    Group dirtiness by sweeping **every** answer, cache invalidation by
    walking **every** entry, plus the full exogenous-set rebuild and (memory
    backend) the evaluator column-store rebuild the old session forced — all
    Θ(instance) or Θ(answers), none of it delta-sized.  The engine state it
    leaves behind is exact (the property suite pins the algorithm), so a
    delta/inverse pair restores the starting state.
    """
    changed = explainer.session.apply_delta(delta)
    explainer._exogenous = set(explainer.database.exogenous_tuples())
    cache = explainer.cache
    doomed = [key for key in list(cache._entries)
              if _key_mentions(key, changed)]
    for key in doomed:
        _drop_entry(cache, key)
    if not changed:
        return
    if isinstance(explainer._evaluator, QueryEvaluator):
        # The legacy session rebuilt its evaluator wholesale per delta; the
        # next valuations() call pays the Θ(instance) column-store build.
        explainer._evaluator._stores = {}
    stale = set()
    for answer in list(explainer._conjuncts):
        group = materialize_conjuncts(explainer._conjuncts[answer])
        kept = [c for c in group if not (c & changed)]
        if len(kept) != len(group):
            stale.add(answer)
            if kept:
                explainer._conjuncts[answer] = kept
            else:
                del explainer._conjuncts[answer]
    present = {t for t in changed if explainer.database.contains(t)}
    for head, conjunct in explainer._delta_valuations(present):
        explainer._conjuncts.setdefault(head, []).append(conjunct)
        stale.add(head)
    for answer in stale:
        explainer._explanations.pop(answer, None)


def timed_cycles(apply_one, delta, inverse):
    """Min seconds for one refresh, over delta/inverse pairs (state-neutral)."""
    best = float("inf")
    for _ in range(REPEATS):
        for step in (delta, inverse):
            start = time.perf_counter()
            apply_one(step)
            best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_refresh_tracks_delta_not_instance(backend, table_printer):
    rows = []
    indexed_times = {}
    for scale in SCALES:
        database = build_workload(scale)
        delta, inverse = delta_and_inverse(database)

        indexed = BatchExplainer(QUERY, database.copy(), backend=backend)
        indexed.answers()  # full pass: groups + inverted index
        indexed_seconds = timed_cycles(
            lambda d: indexed.refresh_all([d]), delta, inverse)

        legacy = BatchExplainer(QUERY, database.copy(), backend=backend)
        legacy.answers()
        legacy_seconds = timed_cycles(
            lambda d: legacy_refresh(legacy, d), delta, inverse)

        # Both refresh paths must have converged back to the truth.
        truth = evaluate(QUERY, database)
        assert set(indexed.answers()) == truth
        assert set(legacy.answers()) == truth

        indexed_times[scale] = indexed_seconds
        speedup = legacy_seconds / indexed_seconds if indexed_seconds \
            else float("inf")
        rows.append((f"{scale}x", len(truth),
                     f"{legacy_seconds * 1e3:.3f}",
                     f"{indexed_seconds * 1e3:.3f}",
                     f"{speedup:.1f}x"))

    top = SCALES[-1]
    growth = indexed_times[top] / indexed_times[SCALES[0]] \
        if indexed_times[SCALES[0]] else float("inf")
    speedup_top = float(rows[-1][-1].rstrip("x"))
    table_printer(
        f"Refresh cost vs. instance size ({backend}, 5-tuple delta)",
        ("size", "answers", "legacy ms", "indexed ms", "speedup"),
        rows + [("growth 1x->" + f"{top}x", "", "", "", f"{growth:.2f}x")],
    )
    assert speedup_top >= MIN_SPEEDUP, (
        f"indexed refresh only {speedup_top:.1f}x faster than the group "
        f"sweep at {top}x (wanted >= {MIN_SPEEDUP}x)"
    )
    assert growth <= FLAT_FACTOR, (
        f"indexed refresh grew {growth:.2f}x from 1x to {top}x "
        f"(wanted <= {FLAT_FACTOR}x: cost must track the delta)"
    )
