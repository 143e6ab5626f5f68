"""Exact minimum hitting set solver (branch and bound on int bitmasks).

Computing the Why-So responsibility of a tuple ``t`` reduces to a constrained
minimum hitting set over the non-redundant n-lineage: a contingency ``Γ`` must
"hit" (intersect) every minimal conjunct that does not contain ``t`` while
leaving at least one conjunct containing ``t`` untouched (see
:mod:`repro.core.responsibility`).  Minimum hitting set is NP-hard in general
— which is exactly what the dichotomy predicts for the hard queries — so this
solver is exponential in the worst case, but the branch-and-bound pruning
makes it practical for the moderate instances used as a ground-truth oracle
and for the "hard query" benchmarks.

The solver is generic over hashable, mutually comparable elements.  Each call
codes the allowed elements as int bits in *descending* order — the smallest
element is the highest bit — and dedupes, superset-prunes, seeds and searches
on bitmasks.  Every tie goes to the smallest element: the greedy seed takes,
among the elements that hit the most unhit sets, the highest bit; branch and
bound branches on the first set of the family, kept sorted by size and then
by its sorted elements (for one size, that is descending mask order), and
tries its elements from the highest bit down.  The result is therefore a
function of the family and the element order alone.  The exact engine hands
over each tuple's rank in its lineage's ``repr`` order, so its contingencies
tie to the smallest ``repr``
(:class:`~repro.core.responsibility.CodedLineage`).
"""

from __future__ import annotations

from typing import (AbstractSet, Any, FrozenSet, Iterable, List, Optional,
                    Protocol, Sequence, Set, TypeVar)


class _Ordered(Protocol):
    def __lt__(self, other: Any) -> bool: ...


E = TypeVar("E", bound=_Ordered)


def greedy_hitting_set(sets: Sequence[int]) -> int:
    """A (not necessarily minimum) hitting set of non-empty bitmasks, as a mask.

    Repeatedly picks the bit in the most unhit sets, the highest bit (the
    smallest element) among ties; the counts drop as sets get hit.  Seeds
    the branch-and-bound upper bound.
    """
    width = max(sets, default=0).bit_length()
    # counts[k]: unhit sets holding bit ``width - 1 - k``, so the first
    # maximum is the highest bit.
    counts = [0] * width
    for s in sets:
        while s:
            low = s & -s
            counts[width - low.bit_length()] += 1
            s ^= low
    remaining = list(sets)
    chosen = 0
    while remaining:
        best = 1 << (width - 1 - counts.index(max(counts)))
        chosen |= best
        unhit: List[int] = []
        for s in remaining:
            if s & best:
                while s:
                    low = s & -s
                    counts[width - low.bit_length()] -= 1
                    s ^= low
            else:
                unhit.append(s)
        remaining = unhit
    return chosen


def _lower_bound(family: List[int]) -> int:
    """A simple lower bound: the size of a greedily-chosen disjoint subfamily.

    ``family`` is sorted by size, so the smaller sets are tried first.
    """
    used = 0
    bound = 0
    for s in family:
        if not s & used:
            bound += 1
            used |= s
    return bound


def minimum_hitting_set(
    sets: Iterable[AbstractSet[E]],
    forbidden: AbstractSet[E] = frozenset(),
    upper_bound: Optional[int] = None,
) -> Optional[FrozenSet[E]]:
    """An exact minimum hitting set of ``sets`` avoiding ``forbidden`` elements.

    Among minimum hitting sets the first one found is returned, with every
    tie broken towards the smallest element (module docstring).

    Parameters
    ----------
    sets:
        The family of sets to hit.  Empty family → empty hitting set.
    forbidden:
        Elements that may not be used.  If some set consists solely of
        forbidden elements the instance is infeasible and ``None`` is
        returned.
    upper_bound:
        Optional size cap; if no hitting set of size ≤ ``upper_bound`` exists,
        ``None`` is returned.

    Examples
    --------
    >>> result = minimum_hitting_set([{1, 2}, {2, 3}, {3, 4}])
    >>> len(result)
    2
    >>> minimum_hitting_set([{1}], forbidden={1}) is None
    True
    >>> minimum_hitting_set([{2, 10}])
    frozenset({2})
    """
    family = list(sets)
    universe: List[E] = sorted(
        {element for s in family for element in s if element not in forbidden})
    top = len(universe) - 1
    bit = {element: 1 << (top - i) for i, element in enumerate(universe)}
    masks: Set[int] = set()
    for s in family:
        mask = 0
        for element in s:
            mask |= bit.get(element, 0)
        if not mask:
            return None
        masks.add(mask)
    if not masks:
        return frozenset()

    # By size, then by sorted elements (descending masks); then drop
    # supersets, since hitting a subset hits every superset.  The masks are
    # distinct, so only a kept set of a smaller size can be a subset.
    ordered = sorted(masks, reverse=True)
    ordered.sort(key=int.bit_count)
    minimal: List[int] = []
    smaller: List[int] = []
    size = 0
    for s in ordered:
        if s.bit_count() > size:
            size, smaller = s.bit_count(), minimal[:]
        if not any(kept & s == kept for kept in smaller):
            minimal.append(s)

    greedy = greedy_hitting_set(minimal)
    best: Optional[int] = greedy
    best_size = greedy.bit_count()
    if upper_bound is not None and upper_bound < best_size:
        best = None
        best_size = upper_bound + 1

    def search(remaining: List[int], chosen: int, size: int) -> None:
        nonlocal best, best_size
        if not remaining:
            if size < best_size:
                best, best_size = chosen, size
            return
        if size + _lower_bound(remaining) >= best_size:
            return
        # Branch on the smallest unhit set (fewest choices), smallest
        # element first; filtering keeps the family sorted, so that set is
        # the first one.
        target = remaining[0]
        while target:
            element = 1 << (target.bit_length() - 1)
            search([s for s in remaining if not s & element],
                   chosen | element, size + 1)
            target ^= element

    search(minimal, 0, 0)
    if best is None:
        return None
    hit: List[E] = []
    while best:
        low = best & -best
        hit.append(universe[top + 1 - low.bit_length()])
        best ^= low
    return frozenset(hit)


def minimum_hitting_set_size(
    sets: Iterable[AbstractSet[E]],
    forbidden: AbstractSet[E] = frozenset(),
) -> Optional[int]:
    """Size of a minimum hitting set (``None`` if infeasible)."""
    result = minimum_hitting_set(sets, forbidden=forbidden)
    return None if result is None else len(result)
