"""Lineage inverted index: tuple → answers whose lineage touches it.

PR 4's ``refresh(delta)`` already re-derives only the valuation groups a
change touches, but it *finds* those groups by sweeping every answer's
group — linear in the number of answers, not in the delta.  The inverted
index materializes the inverse map at first-explain time: for every tuple
of the instance that appears in some valuation group, the set of answers
(why-so) or candidate heads (why-no, via the inner engine over the combined
instance) whose lineage mentions it.  Refresh step 1 then becomes
O(k · fanout) postings probes for a k-tuple delta.

One implementation serves both backends.  The index is built from the
engine's valuation groups, and those are Python data whichever backend ran
the pass (the SQLite evaluator returns ``{answer: [conjunct, ...]}``), so
the postings live in Python dicts next to them.  The index is rebuilt by
:meth:`rebuild` during the first full pass and maintained incrementally by
the delta path: after a refresh re-derives an answer's group, the engine
calls :meth:`index_answer` (or :meth:`drop_answer`) for exactly the dirty
answers.  Fan-out workers never mutate valuation groups — they only *read*
the parent's groups and send back explanations — so the postings need no
worker merge.

Examples
--------
>>> from repro.relational.tuples import Tuple
>>> r1, r2 = Tuple("R", ("a", "b")), Tuple("R", ("c", "b"))
>>> s = Tuple("S", ("b",))
>>> index = LineageIndex()
>>> index.rebuild({("a",): [frozenset({r1, s})],
...                ("c",): [frozenset({r2, s})]})
>>> sorted(index.answers_with([s]))
[('a',), ('c',)]
>>> index.answers_with([r2])
{('c',)}
>>> index.index_answer(("c",), [])  # group emptied by a delta
>>> index.answers_with([r2])
set()
>>> len(index)
1
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Mapping, Set

from ..relational.tuples import Tuple

Answer = Any


class LineageIndex:
    """In-memory postings map, shared by the memory and SQLite backends.

    ``_postings`` maps each tuple to the answers whose current valuation
    groups mention it; ``_forward`` keeps the reverse (answer → tuples of
    its lineage) so :meth:`index_answer` can patch postings by diffing the
    old tuple set against the new one instead of rebuilding.
    """

    def __init__(self) -> None:
        self._postings: Dict[Tuple, Set[Answer]] = {}
        self._forward: Dict[Answer, FrozenSet[Tuple]] = {}

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def rebuild(self, groups: Mapping[Answer, Iterable[FrozenSet[Tuple]]]) -> None:
        """Replace the whole index with the postings of ``groups``.

        Called once per full pass; ``groups`` is the engine's
        ``{answer: [conjunct, ...]}`` valuation grouping — values are
        conjunct lists or columnar ``ValuationBlock``\\ s (see
        :meth:`index_answer`).

        From-scratch indexing skips the per-answer diff of
        :meth:`index_answer` (there is nothing to diff against) and builds
        the postings with plain get-or-create — on a 10⁵-valuation pass the
        rebuild is a large share of the pipeline, so the constant factors
        here matter (see ``bench_columnar_pass``).
        """
        self._postings.clear()
        self._forward.clear()
        postings = self._postings
        for answer, conjuncts in groups.items():
            lineage = getattr(conjuncts, "lineage_tuples", None)
            if lineage is not None:
                tuples = lineage()
            else:
                tuples = frozenset(
                    t for conjunct in conjuncts for t in conjunct)
            if not tuples:
                continue
            self._forward[answer] = tuples
            for tup in tuples:
                bucket = postings.get(tup)
                if bucket is None:
                    postings[tup] = {answer}
                else:
                    bucket.add(answer)

    def index_answer(self, answer: Answer,
                     conjuncts: Iterable[FrozenSet[Tuple]]) -> None:
        """(Re-)index one answer against its current valuation group.

        Diffs the answer's new tuple set against the previously indexed one
        and patches only the changed postings, so maintaining the index
        after a refresh costs O(lineage of the dirty answers).

        ``conjuncts`` is either an iterable of conjunct frozensets or a
        still-columnar :class:`~repro.relational.columnar.ValuationBlock` —
        the block computes its distinct tuple set from row ids directly
        (``lineage_tuples``), so indexing a columnar pass never materialises
        per-valuation frozensets.
        """
        lineage = getattr(conjuncts, "lineage_tuples", None)
        if lineage is not None:
            tuples = lineage()
        else:
            tuples = frozenset(t for conjunct in conjuncts for t in conjunct)
        old = self._forward.get(answer, frozenset())
        for tup in old - tuples:
            bucket = self._postings.get(tup)
            if bucket is not None:
                bucket.discard(answer)
                if not bucket:
                    del self._postings[tup]
        for tup in tuples - old:
            self._postings.setdefault(tup, set()).add(answer)
        if tuples:
            self._forward[answer] = tuples
        else:
            self._forward.pop(answer, None)

    def drop_answer(self, answer: Answer) -> None:
        """Remove an answer's postings (its group vanished)."""
        self.index_answer(answer, ())

    # ------------------------------------------------------------------ #
    # probes
    # ------------------------------------------------------------------ #
    def answers_with(self, tuples: Iterable[Tuple]) -> Set[Answer]:
        """All answers whose lineage mentions any of ``tuples``.

        The refresh step-1 probe: one postings lookup per changed tuple.
        """
        dirty: Set[Answer] = set()
        for tup in tuples:
            dirty.update(self._postings.get(tup, ()))
        return dirty

    def tuples_of(self, answer: Answer) -> FrozenSet[Tuple]:
        """The indexed lineage tuple set of one answer."""
        return self._forward.get(answer, frozenset())

    # ------------------------------------------------------------------ #
    # introspection (tests, docs)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[Tuple, FrozenSet[Answer]]:
        """``{tuple: frozenset(answers)}`` — the postings, for comparison.

        Tests compare snapshots to assert that a memory-backed and a
        SQLite-backed refresh maintain identical indexes.
        """
        return {tup: frozenset(answers)
                for tup, answers in self._postings.items()}

    def __len__(self) -> int:
        return len(self._forward)

    def __repr__(self) -> str:
        return (f"LineageIndex({len(self._forward)} answer(s), "
                f"{len(self._postings)} tuple posting(s))")
