"""High-level user API: explain answers and non-answers of a query.

This is the interface Example 1.1 of the paper motivates: ask *why* a
surprising answer (``Musical``) is returned — or why an expected answer is
missing — and receive the causes ranked by responsibility, exactly like the
table of Fig. 2b.

:func:`explain` wires together the whole pipeline:

1. bind the answer/non-answer into the query head (Boolean reduction);
2. Why-So: compute causes from the n-lineage (Theorem 3.2) and their
   responsibilities with the complexity-aware dispatcher (Algorithm 1 for
   weakly linear queries, exact otherwise);
3. Why-No: generate candidate missing tuples (unless supplied), build the
   combined instance, and apply the uniform machinery (Theorem 4.17 makes the
   responsibility part PTIME).
"""

from __future__ import annotations

from fractions import Fraction
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
)

from ..exceptions import CausalityError
from ..lineage.whyno import whyno_instance_for_answer
from ..relational.database import Database
from ..relational.query import ConjunctiveQuery
from ..relational.tuples import Tuple
from .causality import actual_causes
from .definitions import CausalityMode, Cause


def _cause_rank_key(cause: Cause):
    """Total, deterministic ranking key: ρ desc, then relation, then values."""
    return (-(cause.responsibility or 0),) + cause.tuple.sort_key()


class Explanation:
    """Causes of one (non-)answer, ranked by responsibility.

    Iterable (yields :class:`~repro.core.definitions.Cause` objects in ranked
    order); :meth:`to_table` renders the Fig. 2b-style listing.
    """

    def __init__(self, query: ConjunctiveQuery, answer: Optional[Sequence[Any]],
                 mode: CausalityMode, causes: Sequence[Cause]):
        self.query = query
        self.answer = None if answer is None else tuple(answer)
        self.mode = mode
        self.causes: List[Cause] = list(causes)

    def __iter__(self):
        return iter(self.causes)

    def __len__(self) -> int:
        return len(self.causes)

    def ranked(self) -> List[Cause]:
        """Causes sorted by decreasing responsibility.

        Responsibility ties are broken by relation name and then by the
        canonical type-tolerant value key (:meth:`Tuple.sort_key`), so the
        order is total and deterministic even when the causes span
        heterogeneous relations or mix value types.
        """
        return sorted(self.causes, key=_cause_rank_key)

    def top(self, k: int = 5) -> List[Cause]:
        return self.ranked()[:k]

    def responsibility_of(self, tuple_: Tuple) -> Fraction:
        for cause in self.causes:
            if cause.tuple == tuple_:
                return cause.responsibility or Fraction(0)
        return Fraction(0)

    def to_table(self, precision: int = 2, top: Optional[int] = None) -> str:
        """Human-readable two-column table: ρ_t and the cause tuple.

        ``top`` limits the listing to the best-ranked ``top`` causes.
        """
        causes = self.ranked() if top is None else self.ranked()[:top]
        lines = [f"{'ρ_t':>6}  cause tuple"]
        for cause in causes:
            rho = float(cause.responsibility or 0)
            lines.append(f"{rho:>6.{precision}f}  {cause.tuple!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        label = "answer" if self.mode is CausalityMode.WHY_SO else "non-answer"
        return f"Explanation({label} {self.answer!r}, {len(self.causes)} causes)"


class ExplanationSession:
    """A long-lived explanation context over one query and database.

    The one-shot :func:`explain` rebuilds its engine per call; an
    ``ExplanationSession`` keeps the delta-aware batch engines — the Why-So
    :class:`~repro.engine.batch.BatchExplainer` and the last Why-No
    :class:`~repro.engine.whyno_batch.WhyNoBatchExplainer` — alive across
    calls, so repeated questions share evaluation state and a recorded
    change (:class:`~repro.relational.delta.DatabaseDelta`) re-evaluates
    only the answers whose lineage it touches (:meth:`refresh`).  This is
    the paper's interactive loop: inspect a ranking, delete a few suspect
    tuples, ask again.

    Examples
    --------
    >>> from repro.relational import Database, DatabaseDelta, parse_query
    >>> from repro.relational.tuples import Tuple
    >>> db = Database()
    >>> for x, y in [("a2", "a1"), ("a4", "a3")]:
    ...     _ = db.add_fact("R", x, y)
    >>> for y in ["a1", "a3"]:
    ...     _ = db.add_fact("S", y)
    >>> session = ExplanationSession(parse_query("q(x) :- R(x, y), S(y)"), db)
    >>> [c.tuple for c in session.explain(("a4",)).ranked()]
    [R('a4', 'a3'), S('a3')]
    >>> report = session.refresh(DatabaseDelta(deletes=[Tuple("S", ("a3",))]))
    >>> sorted(session.answers())
    [('a2',)]
    """

    def __init__(self, query: ConjunctiveQuery, database: Database,
                 method: str = "auto", backend: str = "memory"):
        from ..engine.batch import BatchExplainer  # local: engine builds on core

        self.query = query
        self.database = database
        self.method = method
        self.backend = backend
        self._whyso: Optional[Any] = None
        self._whyno: Optional[Any] = None
        self._explainer_cls = BatchExplainer

    # -- engine plumbing -------------------------------------------------- #
    def _whyso_engine(self):
        if self._whyso is None:
            self._whyso = self._explainer_cls(
                self.query, self.database, method=self.method,
                backend=self.backend)
        return self._whyso

    def _whyno_engine(self, non_answers, domains, candidates):
        """The last Why-No batch, reused when it already covers the request."""
        from ..engine.whyno_batch import WhyNoBatchExplainer

        keys = [() if self.query.is_boolean else tuple(a)
                for a in (non_answers or [()])]
        engine = self._whyno
        if engine is not None and engine.covers(keys, domains, candidates):
            return engine
        self._whyno = WhyNoBatchExplainer(
            self.query, self.database, non_answers=keys, domains=domains,
            candidates=candidates, backend=self.backend)
        return self._whyno

    # -- queries ---------------------------------------------------------- #
    def answers(self) -> List[Any]:
        """Every answer of the query, via the shared Why-So engine."""
        return self._whyso_engine().answers()

    def explain(self, answer: Optional[Sequence[Any]] = None,
                mode: CausalityMode = CausalityMode.WHY_SO,
                whyno_candidates: Optional[Iterable[Tuple]] = None,
                whyno_domains: Optional[Mapping[str, Iterable[Any]]] = None
                ) -> Explanation:
        """As :func:`explain`, over the session's shared engines."""
        mode = CausalityMode.coerce(mode)
        if self.query.is_boolean:
            if answer not in (None, (), []):
                raise CausalityError("a Boolean query takes no answer tuple")
        elif answer is None:
            raise CausalityError(
                "a non-Boolean query needs the answer (or non-answer) tuple "
                "to explain"
            )
        if mode is CausalityMode.WHY_SO:
            return self._whyso_engine().explain(answer)
        key = () if self.query.is_boolean else tuple(answer)
        engine = self._whyno_engine([key], whyno_domains, whyno_candidates)
        explanation = engine.explain(key)
        return Explanation(self.query, answer, mode, explanation.causes)

    def explain_all(self, answers: Optional[Iterable[Sequence[Any]]] = None,
                    workers: Optional[int] = None,
                    transport: str = "auto",
                    on_chunk: Optional[Callable[
                        [List[Any], Dict[Any, Explanation]], None]] = None,
                    chunking: str = "contiguous"
                    ) -> Dict[Any, Explanation]:
        """Why-So explanations for every answer, via the shared engine.

        ``workers``/``transport`` select the parallel fan-out of
        :meth:`repro.engine.BatchExplainer.explain_all`; the workers inherit
        the session engine's completed open-query pass and send back
        explanations only; ``chunking`` sets the chunk count
        (``"contiguous"`` or ``"stealing"``).  ``on_chunk`` streams ranked explanations back
        incrementally as chunks finish (see there) — this is what the
        explanation service's streaming responses ride on.
        """
        return self._whyso_engine().explain_all(answers, workers=workers,
                                                transport=transport,
                                                on_chunk=on_chunk,
                                                chunking=chunking)

    def for_missing_answers(
        self, domains: Optional[Mapping[str, Iterable[Any]]] = None,
        max_candidates: Optional[int] = None,
        workers: Optional[int] = None,
        transport: str = "auto",
        on_chunk: Optional[Callable[
            [List[Any], Dict[Any, Explanation]], None]] = None,
        chunking: str = "contiguous",
    ) -> Dict[Any, Explanation]:
        """Why-No explanations for every missing answer the domains allow.

        The constructed batch becomes the session's live Why-No engine, so a
        later :meth:`refresh` re-evaluates only the touched non-answers.
        ``on_chunk`` streams results incrementally and ``chunking`` sets the
        chunk count, as in :meth:`explain_all`.
        """
        from ..engine.whyno_batch import WhyNoBatchExplainer

        self._whyno = WhyNoBatchExplainer.for_missing_answers(
            self.query, self.database, domains=domains,
            max_candidates=max_candidates, backend=self.backend)
        return self._whyno.explain_all(workers=workers, transport=transport,
                                       on_chunk=on_chunk, chunking=chunking)

    # -- incremental re-explanation --------------------------------------- #
    def refresh(self, delta) -> Dict[str, Any]:
        """Apply one recorded change; equivalent to ``refresh_all([delta])``."""
        return self.refresh_all((delta,))

    def refresh_all(self, deltas: Iterable[Any]) -> Dict[str, Any]:
        """Apply a delta *stream* to *both* live engines, exactly once.

        The engines share ``self.database``; the stream is applied to it a
        single time (by the Why-So engine when one exists) and the
        already-applied change set is handed to the Why-No engine, whose
        combined instance is a separate object.  Each engine patches its
        state with one batched lineage-index probe and one re-derivation
        pass for the whole stream.  Returns
        ``{"why-so": RefreshReport | None, "why-no": ... | None}`` for
        whichever engines exist.
        """
        deltas = list(deltas)
        reports: Dict[str, Any] = {"why-so": None, "why-no": None}
        changed = None
        if self._whyso is not None:
            report = self._whyso.refresh_all(deltas)
            changed = report.changed_tuples
            reports["why-so"] = report
        if self._whyno is not None:
            if changed is None:
                changed_set = set()
                for delta in deltas:
                    changed_set |= delta.apply_to(self.database)
                changed = frozenset(changed_set)
            reports["why-no"] = self._whyno.refresh_all(
                deltas, _changed=changed)
        if self._whyso is None and self._whyno is None:
            for delta in deltas:
                delta.apply_to(self.database)
        return reports

    # -- lifecycle --------------------------------------------------------- #
    def close(self) -> None:
        """Release backend resources held by the live engines.

        A long-lived service keeps many sessions resident; closing one must
        release its backend loads (the SQLite connection in particular)
        without tearing down the process.  Safe to call on a session whose
        engines were never built, and idempotent.
        """
        for engine in (self._whyso, self._whyno):
            if engine is not None:
                engine.close()
        self._whyso = None
        self._whyno = None

    # -- introspection ----------------------------------------------------- #
    def describe(self) -> Dict[str, Any]:
        """A small status payload: query, backend, and instance size.

        Delegates the size counters to the live Why-So engine's
        :meth:`~repro.relational.session.BackendSession.describe` when one
        exists (so a future backend reports through the seam), and counts the
        plain instance otherwise.
        """
        if self._whyso is not None:
            payload = self._whyso.session.describe()
        else:
            payload = {
                "backend": self.backend,
                "relations": len(self.database.relations()),
                "tuples": len(self.database),
                "endogenous": len(self.database.endogenous_tuples()),
            }
        payload["query"] = repr(self.query)
        return payload

    def engine_stats(self) -> Dict[str, Any]:
        """Counters for the live engines, for monitoring and benchmarks.

        Returns a dict with per-engine memoization hit/miss counts
        (``whyso_memo_hits`` etc.) and, when the Why-So engine exists, its
        :class:`~repro.engine.cache.LineageCache` hit/miss/entry counts.
        Engines that have not been built yet report zeros.

        When the session's evaluator runs the columnar valuation pass, its
        per-phase counters are included under ``pass_*`` keys (plans built,
        semi-join fixpoint rounds, rows pruned, blocks produced, join-path
        splits, adapter materialisations) — see
        :class:`~repro.relational.columnar.PassStats`.  The ``pass_*``
        counters describe the *most recent* pass each engine ran, not a
        running total across the session's lifetime: resident servers can
        report them per request without drift.
        """
        stats: Dict[str, Any] = {
            "whyso_memo_hits": 0, "whyso_memo_misses": 0,
            "whyno_memo_hits": 0, "whyno_memo_misses": 0,
            "cache_hits": 0, "cache_misses": 0, "cache_entries": 0,
        }
        if self._whyso is not None:
            stats["whyso_memo_hits"] = self._whyso.memo_hits
            stats["whyso_memo_misses"] = self._whyso.memo_misses
            cache = self._whyso.cache
            stats["cache_hits"] = cache.hits
            stats["cache_misses"] = cache.misses
            stats["cache_entries"] = len(cache)
        if self._whyno is not None:
            stats["whyno_memo_hits"] = self._whyno.memo_hits
            stats["whyno_memo_misses"] = self._whyno.memo_misses
        for engine in (self._whyso,
                       self._whyno._inner if self._whyno is not None
                       else None):
            if engine is None:
                continue
            pass_stats = getattr(engine.session.evaluator, "stats", None)
            if pass_stats is not None:
                for name, value in pass_stats.as_dict().items():
                    key = f"pass_{name}"
                    stats[key] = stats.get(key, 0) + value
        return stats

    def __repr__(self) -> str:
        live = [name for name, engine in
                (("why-so", self._whyso), ("why-no", self._whyno))
                if engine is not None]
        return (f"ExplanationSession({self.query!r}, {self.database!r}, "
                f"backend={self.backend!r}, engines={live or ['none']})")


def explain(query: ConjunctiveQuery, database: Database,
            answer: Optional[Sequence[Any]] = None,
            mode: CausalityMode = CausalityMode.WHY_SO,
            method: str = "auto",
            whyno_candidates: Optional[Iterable[Tuple]] = None,
            whyno_domains: Optional[Mapping[str, Iterable[Any]]] = None,
            backend: str = "memory") -> Explanation:
    """Explain why ``answer`` is (Why-So) or is not (Why-No) returned.

    Parameters
    ----------
    query:
        A conjunctive query; if non-Boolean, ``answer`` must be supplied and
        is substituted into the head.
    database:
        The real database instance with its endogenous/exogenous partition.
    mode:
        ``"why-so"`` or ``"why-no"``.
    method:
        Responsibility method for Why-So (``"auto"``, ``"flow"``, ``"exact"``).
    whyno_candidates / whyno_domains:
        For Why-No: either an explicit candidate set of missing tuples, or
        per-variable domains used to generate candidates automatically.
    backend:
        Execution backend for the valuation pass (Why-So) and the candidate
        generation (Why-No): ``"memory"`` (default) or ``"sqlite"``.

    Returns an :class:`Explanation` whose causes carry exact responsibilities.

    Both modes are served by a one-shot :class:`ExplanationSession` — Why-So
    through :class:`repro.engine.BatchExplainer`, Why-No through
    :class:`repro.engine.WhyNoBatchExplainer` — so this entry point, the
    batch ``explain_all`` paths and the long-lived session API share one
    code path and stay consistent.
    """
    session = ExplanationSession(query, database, method=method,
                                 backend=backend)
    return session.explain(answer, mode=mode,
                           whyno_candidates=whyno_candidates,
                           whyno_domains=whyno_domains)


def causes_of(query: ConjunctiveQuery, database: Database,
              answer: Optional[Sequence[Any]] = None,
              mode: CausalityMode = CausalityMode.WHY_SO) -> List[Tuple]:
    """Just the causes (no responsibilities), via the PTIME lineage algorithm."""
    mode = CausalityMode.coerce(mode)
    boolean_query = query if query.is_boolean else query.bind(answer or ())
    if mode is CausalityMode.WHY_NO:
        boolean_query, database = whyno_instance_for_answer(query, database, answer or ())
    return sorted(actual_causes(boolean_query, database, mode))
