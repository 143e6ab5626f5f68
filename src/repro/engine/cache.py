"""In-process memo of the exact engine's minimum contingencies.

The expensive step of Why-So responsibility is the constrained minimum
hitting set over the simplified n-lineage (Sect. 4, exact engine).  The
hitting-set instance is *fully determined* by the pair (n-lineage, inspected
tuple), so :class:`LineageCache` memoizes results under that key, and a
refresh drops exactly the entries whose key mentions a changed tuple.  The
engine codes each answer's lineage once
(:class:`~repro.core.responsibility.CodedLineage`); the cache keys by its
formula and asks it per inspected tuple.

The memo lives in one process: fan-out workers fill caches of their own and
return explanations only.  Results that depend on the concrete instance
(e.g. flow min-cuts) are not stored here;
:class:`~repro.engine.batch.BatchExplainer` keeps those in a per-database
side table instead.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set
from typing import Tuple as TypingTuple

from ..core.responsibility import CodedLineage
from ..lineage.boolean_expr import PositiveDNF
from ..relational.tuples import Tuple

#: A memo key: the simplified n-lineage and the inspected tuple.
Key = TypingTuple[PositiveDNF, Tuple]


class LineageCache:
    """Minimum contingencies keyed by (simplified n-lineage, inspected tuple).

    Examples
    --------
    >>> cache = LineageCache()
    >>> lineage = CodedLineage(PositiveDNF([{Tuple("R", (1,))}]))
    >>> cache.minimum_contingency(lineage, Tuple("R", (1,)))
    frozenset()
    >>> cache.hits, cache.misses
    (0, 1)
    >>> _ = cache.minimum_contingency(lineage, Tuple("R", (1,)))
    >>> cache.hits
    1
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._entries: Dict[Key, Optional[FrozenSet[Tuple]]] = {}
        # Inverted key index: tuple -> keys of the entries mentioning it (in
        # the lineage or as the inspected tuple), maintained on every
        # insertion and removal, so it is always exactly the tuple closure
        # of the live entries.
        self._tuple_keys: Dict[Tuple, Set[Key]] = {}

    def minimum_contingency(self, lineage: CodedLineage, tuple_: Tuple
                            ) -> Optional[FrozenSet[Tuple]]:
        """Memoized minimum Why-So contingency of ``tuple_`` in ``lineage``.

        The key is the coded lineage's (simplified) formula and the tuple.
        The result is ``None`` when the tuple is not an actual cause
        (:meth:`~repro.core.responsibility.CodedLineage.minimum_contingency`).
        A solver that raises stores nothing and counts neither as a hit nor
        as a miss, so :attr:`stats` only reflects completed computations.
        """
        phi_n = lineage.formula
        key = (phi_n, tuple_)
        try:
            gamma = self._entries[key]
        except KeyError:
            gamma = lineage.minimum_contingency(tuple_)
            self.misses += 1
            self._entries[key] = gamma
            for tup in phi_n.variables() | {tuple_}:
                self._tuple_keys.setdefault(tup, set()).add(key)
            return gamma
        self.hits += 1
        return gamma

    def invalidate_tuples(self, tuples: Iterable[Tuple]) -> int:
        """Drop every entry whose key mentions one of ``tuples``; returns count.

        Called by the engines' ``refresh(delta)`` with the delta's changed
        tuples — inserts, deletes and partition flips alike, on *either*
        side of the endogenous/exogenous split.  The n-lineage part of a key
        only carries endogenous tuples (exogenous ones were substituted
        true), so an entry computed against a conjunct that silently lost an
        exogenous tuple would otherwise keep serving its old responsibility;
        dropping by the inspected tuple and by the lineage variables covers
        both channels.

        Cost is O(delta · affected entries): the stale keys come from the
        per-tuple key index, not from walking every cached key.

        Examples
        --------
        >>> cache = LineageCache()
        >>> t = Tuple("R", (1,))
        >>> _ = cache.minimum_contingency(CodedLineage(PositiveDNF([{t}])), t)
        >>> cache.invalidate_tuples([t])
        1
        >>> len(cache)
        0
        """
        stale: Set[Key] = set()
        for tup in tuples:
            stale.update(self._tuple_keys.get(tup, ()))
        for key in stale:
            del self._entries[key]
            phi_n, tuple_ = key
            for tup in phi_n.variables() | {tuple_}:
                bucket = self._tuple_keys[tup]
                bucket.discard(key)
                if not bucket:
                    del self._tuple_keys[tup]
        return len(stale)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> str:
        """One-line hit/miss summary, for logs and benchmark output."""
        total = self.hits + self.misses
        rate = (self.hits / total) if total else 0.0
        return f"{self.hits} hits / {self.misses} misses ({rate:.0%} hit rate)"

    def __repr__(self) -> str:
        return f"LineageCache({len(self._entries)} entries, {self.stats})"
