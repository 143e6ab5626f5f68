"""Batch explanation engine: shared lineage, memoized responsibilities.

This subpackage turns the per-answer :func:`repro.core.api.explain` pipeline
into a batch subsystem for "rank every answer" — and "explain every missing
answer" — workloads:

* :class:`~repro.engine.batch.BatchExplainer` — evaluate the open query once,
  share the valuation set and n-lineage across all answers, optionally fan
  independent answers out over worker processes that *inherit* the completed
  pass (Why-So; see :mod:`repro.engine._pool` for the transport seam);
* :class:`~repro.engine.whyno_batch.WhyNoBatchExplainer` — its Why-No
  sibling: generate the candidate missing tuples for a whole non-answer set
  in one pass, build the combined instance ``Dx ∪ Dn`` once, and read every
  non-answer's causes off one shared open-query valuation pass
  (Theorem 4.17);
* :class:`~repro.engine.cache.LineageCache` — the exact engine's in-process
  memo of minimum contingencies, keyed by (n-lineage, inspected tuple);
* :class:`~repro.engine.lineage_index.LineageIndex` — the tuple → answers
  inverted index both engines maintain alongside their valuation groups, so
  ``refresh`` / ``refresh_all`` probe the delta's neighbourhood instead of
  sweeping every answer (one Python index for both backends).

The single-answer :func:`repro.core.api.explain` is a thin wrapper over these
paths (Why-So and Why-No alike), so both entry points stay bit-compatible by
construction.
"""

from ._pool import FanOutResult
from .batch import BatchExplainer, RefreshReport, batch_explain
from .cache import LineageCache
from .lineage_index import LineageIndex
from .whyno_batch import WhyNoBatchExplainer, batch_explain_whyno

__all__ = [
    "BatchExplainer",
    "FanOutResult",
    "LineageCache",
    "LineageIndex",
    "RefreshReport",
    "WhyNoBatchExplainer",
    "batch_explain",
    "batch_explain_whyno",
]
