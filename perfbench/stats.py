"""Summary statistics for the benchmark: medians, percentiles, spreads.

Every percentile carries the number of samples it was computed from, and a
percentile is refused unless at least ``MIN_BEYOND`` samples lie beyond it:
a p90 over 20 samples is decided by two values and says nothing about the
tail.
"""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple, Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to mean anything."""


class Percentile(NamedTuple):
    value: float
    samples: int


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` sorted samples lie beyond the ``pct``-th percentile.

    >>> samples_beyond(100, 90), samples_beyond(99, 90), samples_beyond(20, 50)
    (10, 9, 10)
    """
    return n - math.ceil(pct / 100.0 * n)


def percentile(samples: Sequence[float], pct: float) -> Percentile:
    """The ``pct``-th percentile of ``samples``, with the sample count.

    Uses the inclusive (linear interpolation) definition, the same as
    ``statistics.quantiles(method="inclusive")``.  Raises
    :class:`TooFewSamples` when fewer than :data:`MIN_BEYOND` samples lie
    beyond the percentile.

    >>> percentile(range(1, 101), 90)
    Percentile(value=90.1, samples=100)
    """
    n = len(samples)
    beyond = samples_beyond(n, pct)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{pct:g} needs at least {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {max(beyond, 0)}")
    ordered = sorted(samples)
    position = (n - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, n - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    return Percentile(round(value, 10), n)


def mean(samples: Sequence[float]) -> float:
    if not samples:
        raise TooFewSamples("mean of no samples")
    return float(statistics.fmean(samples))


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise TooFewSamples("median of no samples")
    return float(statistics.median(samples))

