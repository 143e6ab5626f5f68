"""Keyed memoization of lineage-derived results.

The expensive step of Why-So responsibility is the constrained minimum
hitting set over the simplified n-lineage (Sect. 4, exact engine).  The
hitting-set instance is *fully determined* by the pair (n-lineage, inspected
tuple): two answers of a batch whose lineages coincide — common on the
Fig. 2-style workloads, where many answers share the same join skeleton —
pose literally the same instance.  :class:`LineageCache` memoizes those
results under a canonical key so they are solved once per batch.

Keys are database-independent by construction (a :class:`PositiveDNF` over
:class:`~repro.relational.tuples.Tuple` variables hashes by value), so one
cache may safely be shared across explainers, databases and queries.  Results
that *do* depend on the concrete instance (e.g. flow min-cuts) are therefore
not stored here; :class:`~repro.engine.batch.BatchExplainer` keeps those in a
per-database side table instead.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Mapping,
    Optional,
    Set,
    Tuple as TypingTuple,
)

from ..core.responsibility import minimum_contingency_from_lineage
from ..lineage.boolean_expr import PositiveDNF
from ..relational.tuples import Tuple


class CacheShard:
    """A worker's contribution to a shared :class:`LineageCache`.

    The batch engines give every fan-out worker its *own* cache and merge
    the pieces back commutatively — the split-hot-records treatment
    applied to the memo table: no lock, no contention, just per-worker maps
    whose union (and counter sums) is taken on return.  A shard carries the
    worker's *new* entries (anything beyond the pre-seed it started from)
    plus its full hit/miss counters, so the parent's merged statistics
    describe the whole batch rather than just parent-side computes.

    Plain slots holding picklable values — a shard crosses the process
    boundary as the worker's ``finalize`` payload.
    """

    __slots__ = ("entries", "hits", "misses")

    def __init__(self, entries: "Mapping[Hashable, Any]",
                 hits: int = 0, misses: int = 0) -> None:
        self.entries: "OrderedDict[Hashable, Any]" = OrderedDict(entries)
        self.hits = int(hits)
        self.misses = int(misses)

    def __getstate__(self) -> "TypingTuple[Any, int, int]":
        return (self.entries, self.hits, self.misses)

    def __setstate__(self, state: "TypingTuple[Any, int, int]") -> None:
        self.entries, self.hits, self.misses = state

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return (f"CacheShard({len(self.entries)} entries, "
                f"{self.hits} hits / {self.misses} misses)")


def _key_mentions(key: Hashable, tuples: FrozenSet[Tuple]) -> bool:
    """Does a cache key reference any of the given database tuples?

    Keys are trees of hashables; the tuple-bearing leaves are
    :class:`~repro.relational.tuples.Tuple` values (the inspected tuple) and
    :class:`PositiveDNF` formulas (whose variables are tuples).  Anything
    else is opaque and treated as tuple-free.
    """
    if isinstance(key, Tuple):
        return key in tuples
    if isinstance(key, PositiveDNF):
        return bool(key.variables() & tuples)
    if isinstance(key, (tuple, frozenset)):
        return any(_key_mentions(part, tuples) for part in key)
    return False


def _key_tuples(key: Hashable) -> FrozenSet[Tuple]:
    """Every database tuple a cache key references (same walk as above).

    The insertion-time twin of :func:`_key_mentions`: instead of answering
    "does this key mention one of those tuples?" per invalidation, the
    tuples are collected once when the entry enters the cache and recorded
    in the per-tuple key index, so ``invalidate_tuples`` becomes keyed
    lookups instead of a structural scan over every entry.

    Examples
    --------
    >>> t = Tuple("R", (1,))
    >>> sorted(_key_tuples(("contingency", PositiveDNF([{t}]), t)))
    [R(1)]
    >>> _key_tuples(("custom", "no tuples here"))
    frozenset()
    """
    found: Set[Tuple] = set()
    _collect_key_tuples(key, found)
    return frozenset(found)


def _collect_key_tuples(key: Hashable, found: Set[Tuple]) -> None:
    if isinstance(key, Tuple):
        found.add(key)
    elif isinstance(key, PositiveDNF):
        found.update(key.variables())
    elif isinstance(key, (tuple, frozenset)):
        for part in key:
            _collect_key_tuples(part, found)


class LineageCache:
    """LRU memo table for lineage-keyed computations.

    Parameters
    ----------
    maxsize:
        Maximum number of entries kept (``None`` = unbounded).  Eviction is
        least-recently-used.

    Examples
    --------
    >>> cache = LineageCache()
    >>> phi = PositiveDNF([{Tuple("R", (1,))}])
    >>> cache.minimum_contingency(phi, Tuple("R", (1,)))
    frozenset()
    >>> cache.hits, cache.misses
    (0, 1)
    >>> _ = cache.minimum_contingency(phi, Tuple("R", (1,)))
    >>> cache.hits
    1
    """

    def __init__(self, maxsize: Optional[int] = None) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be positive (or None for unbounded)")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        # Inverted key index: tuple -> keys of the entries mentioning it.
        # Maintained on every insertion (local compute and worker merge
        # alike) and every removal (invalidation, LRU eviction, clear), so
        # it is always exactly the tuple closure of the live entries.
        self._tuple_keys: Dict[Tuple, Set[Hashable]] = {}

    # ------------------------------------------------------------------ #
    # the per-tuple key index
    # ------------------------------------------------------------------ #
    def _index_key(self, key: Hashable) -> None:
        for tup in _key_tuples(key):
            self._tuple_keys.setdefault(tup, set()).add(key)

    def _unindex_key(self, key: Hashable) -> None:
        for tup in _key_tuples(key):
            bucket = self._tuple_keys.get(tup)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._tuple_keys[tup]

    def _evict_lru(self) -> None:
        key, _ = self._entries.popitem(last=False)
        self._unindex_key(key)

    def tuple_index(self) -> Dict[Tuple, FrozenSet[Hashable]]:
        """A snapshot of the per-tuple key index (tests, introspection)."""
        return {tup: frozenset(keys)
                for tup, keys in self._tuple_keys.items()}

    # ------------------------------------------------------------------ #
    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The memoized value for ``key``, computing (and storing) it on miss.

        A ``compute`` that raises stores nothing and counts neither as a hit
        nor as a miss, so :attr:`stats` only reflects completed computations.

        Examples
        --------
        >>> cache = LineageCache()
        >>> cache.get_or_compute("answer", lambda: 42)
        42
        >>> cache.get_or_compute("answer", lambda: 0)  # memoized
        42
        """
        try:
            value = self._entries[key]
        except KeyError:
            value = compute()
            self.misses += 1
            self._entries[key] = value
            self._index_key(key)
            if self.maxsize is not None and len(self._entries) > self.maxsize:
                self._evict_lru()
            return value
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def minimum_contingency(self, phi_n: PositiveDNF, tuple_: Tuple
                            ) -> Optional[FrozenSet[Tuple]]:
        """Memoized minimum Why-So contingency of ``tuple_`` given ``phi_n``.

        ``phi_n`` must be the *simplified* (redundancy-free) n-lineage — that
        is both the canonical cache key and what lets the solver skip
        re-simplification.  The result is ``None`` when the tuple is not an
        actual cause (matching
        :func:`~repro.core.responsibility.minimum_contingency_from_lineage`).
        """
        return self.get_or_compute(
            ("contingency", phi_n, tuple_),
            lambda: minimum_contingency_from_lineage(phi_n, tuple_,
                                                     assume_minimal=True),
        )

    # ------------------------------------------------------------------ #
    # per-tuple invalidation (incremental re-explanation)
    # ------------------------------------------------------------------ #
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
        per-tuple key index maintained at insertion time, not from walking
        every cached key.  An empty input returns immediately.

        Examples
        --------
        >>> cache = LineageCache()
        >>> t = Tuple("R", (1,))
        >>> _ = cache.minimum_contingency(PositiveDNF([{t}]), t)
        >>> cache.invalidate_tuples([t])
        1
        >>> len(cache)
        0
        """
        doomed = frozenset(tuples)
        if not doomed:
            return 0
        stale: Set[Hashable] = set()
        for tup in doomed:
            stale.update(self._tuple_keys.get(tup, ()))
        for key in stale:
            del self._entries[key]
            self._unindex_key(key)
        return len(stale)

    def invalidate_tuple(self, tuple_: Tuple) -> int:
        """Single-tuple convenience for :meth:`invalidate_tuples`."""
        return self.invalidate_tuples((tuple_,))

    # ------------------------------------------------------------------ #
    # cross-process merge (parallel fan-out)
    # ------------------------------------------------------------------ #
    def export_entries(self) -> "OrderedDict[Hashable, Any]":
        """A snapshot of the memo table, for merging into another cache.

        Keys are database-independent by construction (see the module
        docstring), which is what makes shipping them across a process
        boundary and merging them into the parent's cache sound: the same
        key means literally the same hitting-set instance, whichever worker
        solved it.
        """
        return OrderedDict(self._entries)

    def merge_entries(self, entries: "Mapping[Hashable, Any]") -> int:
        """Adopt entries computed elsewhere (e.g. by a fan-out worker).

        Existing keys keep their local value — both sides computed the same
        deterministic result, and keeping the local one preserves this
        cache's LRU recency.  Merged entries count neither as hits nor as
        misses (:attr:`stats` keeps reflecting local computations only) but
        do respect :attr:`maxsize`.  Every adopted key is added to the
        per-tuple key index, so entries a worker computed are invalidated
        by later deltas exactly like locally computed ones.  Returns the
        number of entries adopted.

        Examples
        --------
        >>> worker, parent = LineageCache(), LineageCache()
        >>> phi = PositiveDNF([{Tuple("R", (1,))}])
        >>> _ = worker.minimum_contingency(phi, Tuple("R", (1,)))
        >>> parent.merge_entries(worker.export_entries())
        1
        >>> parent.minimum_contingency(phi, Tuple("R", (1,)))  # now a hit
        frozenset()
        >>> parent.hits, parent.misses
        (1, 0)
        """
        adopted = 0
        for key, value in entries.items():
            if key in self._entries:
                continue
            self._entries[key] = value
            self._index_key(key)
            adopted += 1
            if self.maxsize is not None and len(self._entries) > self.maxsize:
                self._evict_lru()
        return adopted

    def export_shard(self, baseline: Optional["Mapping[Hashable, Any]"] = None
                     ) -> CacheShard:
        """Package this cache's contribution as a mergeable :class:`CacheShard`.

        ``baseline`` is the pre-seed this cache started from (the parent's
        entries shipped to the worker): keys already present there are
        omitted from the shard, so shipping N workers' shards home costs
        O(new work), not O(cache) per worker.  Counters are always the full
        local hit/miss tallies — pre-seeded entries served locally *are*
        this worker's hits.

        Examples
        --------
        >>> seed = {"old": 1}
        >>> worker = LineageCache()
        >>> _ = worker.merge_entries(seed)
        >>> worker.get_or_compute("old", lambda: 0)    # hit on the seed
        1
        >>> worker.get_or_compute("new", lambda: 2)    # fresh compute
        2
        >>> shard = worker.export_shard(baseline=seed)
        >>> dict(shard.entries), shard.hits, shard.misses
        ({'new': 2}, 1, 1)
        """
        if baseline:
            entries = OrderedDict(
                (key, value) for key, value in self._entries.items()
                if key not in baseline)
        else:
            entries = OrderedDict(self._entries)
        return CacheShard(entries, self.hits, self.misses)

    def merge_shard(self, shard: CacheShard) -> int:
        """Merge a worker's :class:`CacheShard` back into this cache.

        Entry adoption follows :meth:`merge_entries` (first value wins, LRU
        and the per-tuple index respected); *unlike* ``merge_entries``, the
        shard's hit/miss counters are **added** to this cache's, so after a
        parallel batch :attr:`stats` sums work across every participant.
        Addition is commutative and shard entry maps are disjoint up to
        identical values, so merge order across workers cannot change the
        final cache state.  Returns the number of entries adopted.

        Examples
        --------
        >>> worker, parent = LineageCache(), LineageCache()
        >>> worker.get_or_compute("k", lambda: 3)
        3
        >>> parent.merge_shard(worker.export_shard())
        1
        >>> parent.hits, parent.misses
        (0, 1)
        """
        adopted = self.merge_entries(shard.entries)
        self.hits += shard.hits
        self.misses += shard.misses
        return adopted

    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        self._entries.clear()
        self._tuple_keys.clear()
        self.hits = 0
        self.misses = 0

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
