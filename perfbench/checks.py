"""Correctness bookkeeping: failures and ranking comparisons.

A mismatch between a measured result and its independent check counts as
a failed operation, exactly like an exception or an error frame.
"""

from __future__ import annotations

import resource
import time
from typing import Any, Iterator, List, Sequence, Tuple

from reference import reference_level


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children (user + system)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime \
        + children.ru_stime


class Recorder:
    """What one process measured: timings, attempts, failures."""

    def __init__(self) -> None:
        self.setups: List[float] = []
        self.segments: List[Tuple[float, float]] = []  # (wall s, cpu s)
        self.ops: List[float] = []                    # read latencies, ms
        self.writes: List[float] = []                 # write latencies, ms
        # Reference chunk (wall s, cpu s) around each segment, and the
        # reference wall time around each set-up, operation and write.
        self.setup_levels: List[float] = []
        self.levels: List[Tuple[float, float]] = []
        self.op_levels: List[float] = []
        self.write_levels: List[float] = []
        self._noted: List[Tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def segmented(self, items: Sequence[Any], size: int
                  ) -> Iterator[Sequence[Any]]:
        """Yield ``items`` in full slices of ``size``; time each slice.

        A segment is a fixed amount of work, so its wall and CPU time are
        comparable across seeds and commits, however many segments a run
        fits into its budget.  A trailing partial slice is not run (a
        shorter list is one segment).

        Every segment is bracketed by reference measurements
        (:func:`reference.reference_level`, outside the segment's time).
        Their mean, with any level noted during the segment
        (:meth:`note_level`), is the segment's host level, which its wall
        and CPU time and the latencies of its operations are later scaled
        by.
        """
        size = max(1, min(size, len(items)))
        before = reference_level()
        for start in range(0, len(items) - size + 1, size):
            ops, writes = len(self.ops), len(self.writes)
            self._noted = []
            wall, cpu = time.perf_counter(), cpu_seconds()
            yield items[start:start + size]
            self.segments.append((time.perf_counter() - wall,
                                  cpu_seconds() - cpu))
            after = reference_level()
            points = [before, after] + self._noted
            level = (sum(w for w, _ in points) / len(points),
                     sum(c for _, c in points) / len(points))
            self.levels.append(level)
            self.op_levels += [level[0]] * (len(self.ops) - ops)
            self.write_levels += [level[0]] * (len(self.writes) - writes)
            before = after

    def note_level(self, level: Tuple[float, float]) -> None:
        """Count a reference level measured elsewhere during the current
        segment (in a worker process, say) into the segment's level."""
        self._noted.append(level)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def check(self, subject: Any, differences: Sequence[str]) -> None:
        """Count one checked result; any difference is a failure."""
        self.attempted += 1
        if differences:
            self.fail(f"mismatch for {subject!r}: {differences[0]}")

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in
                ("setups", "setup_levels", "segments", "ops", "writes",
                 "levels", "op_levels", "write_levels", "attempted",
                 "failed", "messages")}


def explanation_ranking(explanation: Any, contingency: bool = True
                        ) -> List[Tuple[Any, ...]]:
    """The ranked causes of an explanation as comparable tuples."""
    return [(cause.tuple, cause.responsibility) +
            ((cause.contingency,) if contingency else ())
            for cause in explanation.ranked()]


def wire_ranking(explanation: Any) -> List[Tuple[Any, ...]]:
    """The ranked causes as the server puts them on the wire."""
    return [(cause.tuple.relation, tuple(cause.tuple.values),
             None if cause.responsibility is None
             else str(cause.responsibility))
            for cause in explanation.ranked()]


def frame_ranking(frame: Any) -> List[Tuple[Any, ...]]:
    """The ranked causes of a served ``explanation`` frame."""
    return [(cause["relation"], tuple(cause["values"]),
             cause["responsibility"]) for cause in frame["causes"]]


def compare_rankings(expected: Sequence[Any], got: Sequence[Any]
                     ) -> List[str]:
    """Human-readable differences between two rankings (empty if equal)."""
    if len(expected) != len(got):
        return [f"{len(got)} causes, expected {len(expected)}"]
    return [f"rank {i}: got {g!r}, expected {e!r}"
            for i, (e, g) in enumerate(zip(expected, got)) if e != g]
