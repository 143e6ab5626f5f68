"""A fixed reference computation that measures the host's current speed.

The hosts this benchmark runs on are shared virtual machines whose speed
shifts by 1.5-2x for periods of seconds to minutes, and CPU time shifts
with wall time.  Averaging inside a run cannot remove a level that lasts
the whole run.  So the benchmark times a small, fixed, pure-Python
computation (:func:`reference_chunk`) between its timed segments and
expresses every timed figure relative to it: a segment that took ``t``
while a reference chunk took ``r`` reports ``t * NOMINAL_S / r``, its time
on a host where a chunk takes exactly :data:`NOMINAL_S`.

The reference is independent of the program under test: it touches only
ints, tuples, sets and dicts (whose hashes do not depend on
``PYTHONHASHSEED``), runs with the garbage collector off so that the
program's heap never enters its time, and frees everything it allocates.
A change to the program moves the reported figures exactly as it moves
the raw ones; a change of the host's speed moves both the segment and the
reference and cancels out.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import List, Tuple

#: Reference chunk time, in seconds, that reported figures are scaled to.
#: About the median chunk time on the 2-vCPU VM the benchmark was tuned on
#: (2.0-2.2 ms), so reported times read close to raw ones there.
NOMINAL_S = 0.002
#: Chunks timed per bracket (one more is run first, untimed, to bring the
#: reference's own data back into the caches after a segment).  A bracket
#: reports the median chunk, so a chunk that a brief preemption of the
#: virtual CPU happened to hit does not set the level.
CHUNKS = 9

_rng = random.Random(20111)
_PAIRS: List[Tuple[int, int]] = [(_rng.randrange(500), _rng.randrange(500))
                                 for _ in range(3000)]


def reference_chunk() -> int:
    """One unit of fixed work: group, sort, intersect.  Returns a checksum."""
    groups: dict = {}
    for a, b in _PAIRS:
        groups.setdefault(a, set()).add((b, a))
    total = 0
    for key in sorted(groups, key=lambda k: (len(groups[k]), k)):
        total += len(frozenset(groups[key]) & groups.get(key + 1, set()))
    return total


#: The checksum every chunk must return; anything else means the reference
#: did not do its fixed work.
CHECKSUM = reference_chunk()


def reference_level() -> Tuple[float, float]:
    """Seconds of (wall, CPU) time of the median reference chunk, now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference_chunk()
        walls, cpus = [], []
        for _ in range(CHUNKS):
            wall, cpu = time.perf_counter(), time.process_time()
            if reference_chunk() != CHECKSUM:
                raise RuntimeError("reference chunk returned a wrong checksum")
            walls.append(time.perf_counter() - wall)
            cpus.append(time.process_time() - cpu)
        return statistics.median(walls), statistics.median(cpus)
    finally:
        if enabled:
            gc.enable()
