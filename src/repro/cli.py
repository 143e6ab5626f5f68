"""Command-line interface: explain answers and classify queries from a shell.

The CLI is a thin wrapper over the library so the paper's workflow can be
driven without writing Python:

* ``repro classify "q :- R^n(x,y), S^n(y,z), T^n(z,x)"`` — run the dichotomy
  classifier and print the verdict plus its certificate;
* ``repro explain --data db.json --query "q(x) :- R(x,y), S(y)" --answer a4``
  — load a database from JSON, explain an answer (or a non-answer with
  ``--why-no``) and print the responsibility ranking;
* ``repro explain-batch --data db.json --query "q(x) :- R(x,y), S(y)"`` —
  explain *every* answer in one pass through the batch engine, printing the
  Fig. 2b-style table per answer (``--workers N`` fans answers out over
  worker processes that inherit the shared evaluation pass, ``--transport``
  picks how they inherit it, ``--backend sqlite`` runs the valuation pass in
  SQLite);
* ``repro explain-batch --mode why-no --non-answer a7 --non-answer a9 ...`` —
  the Why-No batch: explain many *missing* answers over one shared combined
  instance (``--domain y=b1,b2`` restricts a variable's candidate domain;
  omit ``--non-answer`` entirely to explain every missing answer the head
  domains allow);
* ``repro explain-batch --delta change.json ...`` — after the initial
  explanations, apply a recorded change (inserts/deletes in the same JSON
  relation format), or a JSON *list* of such changes applied in order as
  one stream, through the delta-aware engines and re-explain *only* the
  answers whose lineage the stream touches (both modes);
* ``repro serve --data db.json --query "q(x) :- R(x,y), S(y)"`` — start the
  long-lived explanation service: the database is loaded once into a
  resident session and concurrent ``explain`` / ``explain-batch`` /
  ``whyno`` / ``delta`` requests are served over newline-delimited JSON on
  a local socket (``--port 0`` binds an ephemeral port and prints it;
  ``--config FILE`` starts several named sessions; ``--max-pending`` /
  ``--max-candidates-cap`` / ``--request-timeout`` set the admission
  knobs);
* ``repro demo`` — run the built-in Fig. 2 IMDB scenario;
* ``repro lint [paths...]`` — run the repo's AST-based invariant checker
  (determinism, backend seam, fan-out pickle safety, SQL quoting,
  exception discipline, typed defs) and exit non-zero on findings
  (``--format json`` for the machine report, ``--rule ID`` to select
  rules, ``--list-rules`` to enumerate them).

The JSON data format is ``{"relations": {"R": [[...], ...]},
"endogenous_relations": ["R", ...]}``; when ``endogenous_relations`` is
omitted every tuple is endogenous (the paper's default).

Invoke as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .core import CausalityMode, classify, explain
from .engine import BatchExplainer, WhyNoBatchExplainer
from .exceptions import CausalityError
from .relational import (
    Database,
    database_from_dict,
    deltas_from_json_file,
    parse_query,
)
from .relational.tuples import value_sort_key
from .workloads import generate_imdb


def _load_database(path: str) -> Database:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    relations = payload.get("relations", {})
    endogenous = payload.get("endogenous_relations")
    return database_from_dict(
        {name: [tuple(row) for row in rows] for name, rows in relations.items()},
        endogenous_relations=endogenous,
    )


def _parse_answer(raw: Optional[List[str]]) -> Optional[tuple]:
    if raw is None:
        return None
    parsed = []
    for token in raw:
        try:
            parsed.append(int(token))
        except ValueError:
            parsed.append(token)
    return tuple(parsed)


def _cmd_classify(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    endogenous = args.endogenous.split(",") if args.endogenous else None
    result = classify(query, endogenous_relations=endogenous)
    print(f"query   : {query!r}")
    print(f"verdict : {result.category.value}")
    print(f"detail  : {result.describe()}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    database = _load_database(args.data)
    query = parse_query(args.query)
    answer = _parse_answer(args.answer)
    mode = CausalityMode.WHY_NO if args.why_no else CausalityMode.WHY_SO
    explanation = explain(query, database, answer=answer, mode=mode,
                          backend=args.backend)
    label = "non-answer" if args.why_no else "answer"
    print(f"causes of {label} {answer!r}:")
    print(explanation.to_table())
    return 0


def _parse_domains(raw: Optional[List[str]]) -> Optional[dict]:
    if raw is None:
        return None
    domains = {}
    for entry in raw:
        if "=" not in entry:
            raise CausalityError(
                f"--domain expects VAR=V1,V2,... (got {entry!r})"
            )
        name, values = entry.split("=", 1)
        tokens = [v.strip() for v in values.split(",")]
        domains[name.strip()] = list(
            _parse_answer([v for v in tokens if v != ""]) or ())
    return domains


def _print_fanout_report(args: argparse.Namespace, explanations) -> None:
    """Say what the fan-out actually ran (only when workers were requested).

    The pool runs ``min(workers, targets)`` processes and ``--transport
    auto`` resolves per platform; printing the effective values keeps
    benchmark drivers and scripts honest about what they measured.
    """
    if args.workers is None and args.transport == "auto":
        return
    staged = ("n/a" if explanations.state_bytes is None
              else f"{explanations.state_bytes} byte(s)")
    print(f"fan-out: transport={explanations.transport}, "
          f"{explanations.requested_workers} requested / "
          f"{explanations.effective_workers} effective worker(s), "
          f"staged state {staged}")


def _refresh_and_print(explainer, delta_path: str, top: Optional[int],
                       label: str) -> None:
    """Apply a recorded delta stream via ``refresh_all``; print what changed.

    The file may hold one delta object or a JSON list of them; either way
    the whole stream is applied with one batched re-evaluation.
    """
    deltas = deltas_from_json_file(delta_path)
    report = explainer.refresh_all(deltas)
    noun = "delta" if len(deltas) == 1 else f"stream of {len(deltas)} deltas"
    print(f"\napplied {noun}: {report!r}")
    if report.full_reset:
        explanations = explainer.explain_all()
        print(f"re-explained all {len(explanations)} {label}(s):")
    else:
        stale = sorted(report.stale | report.new_answers, key=value_sort_key)
        for removed in sorted(report.removed_answers, key=value_sort_key):
            print(f"  {label} {removed!r} is gone after the delta")
        if not stale:
            print("no explanation touched by the delta")
            return
        explanations = {key: explainer.explain(key) for key in stale}
        print(f"re-explained {len(stale)} {label}(s) "
              "(the rest are unchanged):")
    for answer, explanation in explanations.items():
        print(f"\ncauses of {label} {answer!r}:")
        print(explanation.to_table(top=top))


def _cmd_explain_batch(args: argparse.Namespace) -> int:
    database = _load_database(args.data)
    query = parse_query(args.query)
    if args.mode == "why-no":
        return _run_whyno_batch(args, query, database)
    explainer = BatchExplainer(query, database, method=args.method,
                               backend=args.backend)
    explanations = explainer.explain_all(workers=args.workers,
                                         transport=args.transport,
                                         chunking=args.chunking)
    if not explanations:
        print("the query has no answers on this database")
        return 0
    print(f"{len(explanations)} answer(s) of {query!r}:")
    _print_fanout_report(args, explanations)
    for answer, explanation in explanations.items():
        print(f"\ncauses of answer {answer!r}:")
        print(explanation.to_table(top=args.top))
    if args.delta is not None:
        _refresh_and_print(explainer, args.delta, args.top, "answer")
    if args.cache_stats:
        if args.workers is not None and args.workers > 1:
            # Worker entries merge back but count neither as hits nor misses.
            print(f"\nlineage cache: {len(explainer.cache)} entries after "
                  f"the fan-out merge ({explainer.cache.stats} locally)")
        else:
            print(f"\nlineage cache: {explainer.cache.stats}")
        _print_pass_stats(explainer)
    return 0


def _print_pass_stats(explainer) -> None:
    """Valuation-pass counters, when the backend's evaluator keeps them.

    The memory evaluator's columnar pass counts its phases
    (:class:`~repro.relational.columnar.PassStats`); the SQLite evaluator
    groups in SQL and keeps no Python-side counters, so nothing prints.
    """
    stats = getattr(explainer.session.evaluator, "stats", None)
    if stats is None:
        return
    payload = stats.as_dict()
    print("valuation pass: "
          f"{payload['plans_built']} plan(s), "
          f"{payload['semijoin_rounds']} semi-join round(s), "
          f"{payload['rows_pruned']} row(s) pruned, "
          f"{payload['columnar_passes']} columnar pass(es), "
          f"{payload['blocks_produced']} block(s) / "
          f"{payload['block_rows']} row(s), "
          f"{payload['numpy_joins']} numpy + "
          f"{payload['python_joins']} python join(s), "
          f"{payload['adapter_valuations']} adapter valuation(s)")


def _run_whyno_batch(args: argparse.Namespace, query, database: Database) -> int:
    domains = _parse_domains(args.domain)
    if args.non_answer is None:
        explainer = WhyNoBatchExplainer.for_missing_answers(
            query, database, domains=domains, backend=args.backend)
    else:
        non_answers = [_parse_answer(raw) or () for raw in args.non_answer]
        explainer = WhyNoBatchExplainer(query, database,
                                        non_answers=non_answers,
                                        domains=domains, backend=args.backend)
    explanations = explainer.explain_all(workers=args.workers,
                                         transport=args.transport,
                                         chunking=args.chunking)
    if not explanations:
        print("no missing answers to explain "
              "(every candidate head tuple is an answer)")
        return 0
    print(f"{len(explanations)} missing answer(s) of {query!r} "
          f"({len(explainer.candidate_union())} candidate insertions):")
    _print_fanout_report(args, explanations)
    for answer, explanation in explanations.items():
        print(f"\ncauses of missing answer {answer!r}:")
        if explanation.causes:
            print(explanation.to_table(top=args.top))
        else:
            print("  no candidate insertions complete a witness "
                  "(restrict --domain less tightly?)")
    if args.delta is not None:
        _refresh_and_print(explainer, args.delta, args.top, "missing answer")
    if args.cache_stats:
        print("\nlineage cache: not used by the Why-No engine "
              "(responsibilities are read off witness sizes)")
        # The Why-No engine shares the columnar pass through its inner
        # Why-So explainer over the combined instance.
        _print_pass_stats(explainer._inner)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import all_rules, run_lint

    if args.list_rules:
        for rule in all_rules():
            scope = ", ".join(rule.scope) if rule.scope else "everywhere"
            print(f"{rule.id:22s} [{scope}]")
            print(f"    {rule.summary}")
        return 0
    paths = args.paths or ["src/repro"]
    try:
        code, report = run_lint(paths, select=args.rule,
                                output_format=args.format)
    except (FileNotFoundError, ValueError) as error:
        raise CausalityError(str(error)) from error
    print(report)
    return code


def _serve_configs(args: argparse.Namespace) -> list:
    """The session configs of a ``repro serve`` invocation.

    Either one session from ``--data``/``--query``/``--name``, or several
    from a ``--config`` JSON file of the shape
    ``{"sessions": [{"name": ..., "data": ..., "query": ..., ...}, ...]}``
    (per-session keys ``backend``, ``method``, ``workers``, ``transport``
    override the command-line defaults).
    """
    from .server import AdmissionPolicy, SessionConfig

    policy = AdmissionPolicy(
        max_pending=args.max_pending,
        max_candidates_cap=args.max_candidates_cap,
        request_timeout=args.request_timeout)
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        entries = payload.get("sessions", [])
        if not entries:
            raise CausalityError(
                f"{args.config}: no sessions configured "
                "(expected {\"sessions\": [...]})")
        return [
            SessionConfig(
                entry["name"], entry["query"], _load_database(entry["data"]),
                backend=entry.get("backend", args.backend),
                method=entry.get("method", "auto"),
                workers=entry.get("workers", args.workers),
                transport=entry.get("transport", args.transport),
                policy=policy)
            for entry in entries
        ]
    if args.data is None or args.query is None:
        raise CausalityError(
            "repro serve needs --data and --query (or --config FILE)")
    return [SessionConfig(
        args.name, args.query, _load_database(args.data),
        backend=args.backend, workers=args.workers,
        transport=args.transport, policy=policy)]


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .server import ExplanationServer, SessionRegistry

    configs = _serve_configs(args)

    async def main() -> int:
        registry = SessionRegistry(configs)
        server = ExplanationServer(registry, host=args.host, port=args.port)
        async with server:
            print(f"repro serve: listening on {args.host}:{server.port}",
                  flush=True)
            for config in configs:
                print(f"  session {config.name!r}: {config.query_text} "
                      f"[backend={config.backend}]", flush=True)
            await server.serve_forever()
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        print("repro serve: shutting down")
        return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    scenario = generate_imdb(padding_directors=args.padding)
    explanation = explain(scenario.query, scenario.database, answer=("Musical",))
    print("Figure 2b — causes of the 'Musical' answer:")
    print(explanation.to_table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Causality and responsibility for query answers and non-answers "
                    "(Meliou et al., VLDB 2010).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    classify_parser = subparsers.add_parser(
        "classify", help="run the responsibility dichotomy classifier on a query")
    classify_parser.add_argument("query", help="query text, e.g. 'q :- R^n(x,y), S^n(y)'")
    classify_parser.add_argument(
        "--endogenous", default=None,
        help="comma-separated endogenous relations (overrides ^n/^x annotations)")
    classify_parser.set_defaults(func=_cmd_classify)

    explain_parser = subparsers.add_parser(
        "explain", help="explain an answer or non-answer of a query over a JSON database")
    explain_parser.add_argument("--data", required=True, help="path to the JSON database")
    explain_parser.add_argument("--query", required=True, help="query text")
    explain_parser.add_argument("--answer", nargs="*", default=None,
                                help="answer values (omit for a Boolean query)")
    explain_parser.add_argument("--why-no", action="store_true",
                                help="explain a missing answer instead of an existing one")
    explain_parser.add_argument("--backend", default="memory",
                                choices=("memory", "sqlite"),
                                help="execution backend for the valuation pass "
                                     "(default: memory)")
    explain_parser.set_defaults(func=_cmd_explain)

    batch_parser = subparsers.add_parser(
        "explain-batch",
        help="explain every answer of a query in one pass (batch engine)")
    batch_parser.add_argument("--data", required=True, help="path to the JSON database")
    batch_parser.add_argument("--query", required=True, help="query text")
    batch_parser.add_argument("--mode", default="why-so",
                              choices=("why-so", "why-no"),
                              help="explain existing answers (why-so, default) "
                                   "or missing ones (why-no)")
    batch_parser.add_argument("--non-answer", action="append", nargs="+",
                              default=None, metavar="VALUE",
                              help="a missing answer tuple to explain "
                                   "(why-no mode; repeatable; omit to explain "
                                   "every missing answer the domains allow)")
    batch_parser.add_argument("--domain", action="append", default=None,
                              metavar="VAR=V1,V2",
                              help="candidate domain for a variable "
                                   "(why-no mode; repeatable; default: the "
                                   "active domain)")
    batch_parser.add_argument("--method", default="auto",
                              choices=("auto", "exact", "flow"),
                              help="responsibility engine (default: auto, "
                                   "why-so mode only)")
    batch_parser.add_argument("--backend", default="memory",
                              choices=("memory", "sqlite"),
                              help="execution backend for the valuation pass "
                                   "(default: memory)")
    batch_parser.add_argument("--delta", default=None, metavar="FILE",
                              help="after explaining, apply a recorded JSON "
                                   "delta ({\"insert\": {\"relations\": ...}, "
                                   "\"delete\": ...}) — or a JSON list of "
                                   "such deltas, applied in order as one "
                                   "stream — and incrementally re-explain "
                                   "only what it touches")
    batch_parser.add_argument("--workers", type=int, default=None,
                              help="fan answers out over N worker processes "
                                   "(the workers inherit the parent's "
                                   "evaluation pass)")
    batch_parser.add_argument("--transport", default="auto",
                              choices=("auto", "serial", "fork",
                                       "shared-memory"),
                              help="how workers receive the shared state: "
                                   "fork inheritance (POSIX), a pickle-once "
                                   "shared-memory segment, or in-process "
                                   "serial (default: auto = fork where "
                                   "available, else shared-memory)")
    batch_parser.add_argument("--chunking", default="contiguous",
                              choices=("contiguous", "stealing"),
                              help="how the pool assigns targets to workers: "
                                   "fixed contiguous slices or work-stealing "
                                   "over fine-grained chunks (default: "
                                   "contiguous)")
    batch_parser.add_argument("--top", type=int, default=None,
                              help="print only the K best causes per answer")
    batch_parser.add_argument("--cache-stats", action="store_true",
                              help="print lineage-cache hit/miss statistics")
    batch_parser.set_defaults(func=_cmd_explain_batch)

    lint_parser = subparsers.add_parser(
        "lint",
        help="statically check the architecture invariants "
             "(determinism, backend seam, pickle safety, SQL quoting, ...)")
    lint_parser.add_argument("paths", nargs="*", default=None,
                             help="files or directories to lint "
                                  "(default: src/repro)")
    lint_parser.add_argument("--format", default="text",
                             choices=("text", "json"),
                             help="report format (default: text)")
    lint_parser.add_argument("--rule", action="append", default=None,
                             metavar="RULE-ID",
                             help="run only this rule (repeatable)")
    lint_parser.add_argument("--list-rules", action="store_true",
                             help="list the registered rules and exit")
    lint_parser.set_defaults(func=_cmd_lint)

    serve_parser = subparsers.add_parser(
        "serve",
        help="start the long-lived explanation service "
             "(NDJSON over a local socket; resident warm sessions)")
    serve_parser.add_argument("--data", default=None,
                              help="path to the JSON database of the (single) "
                                   "resident session")
    serve_parser.add_argument("--query", default=None, help="query text")
    serve_parser.add_argument("--name", default="default",
                              help="session name (default: 'default')")
    serve_parser.add_argument("--config", default=None, metavar="FILE",
                              help="JSON file with several sessions: "
                                   "{\"sessions\": [{\"name\": ..., "
                                   "\"data\": ..., \"query\": ...}, ...]}")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="TCP port (default: 0 = ephemeral; the "
                                   "bound port is printed on startup)")
    serve_parser.add_argument("--backend", default="memory",
                              choices=("memory", "sqlite"),
                              help="execution backend for the resident "
                                   "sessions (default: memory)")
    serve_parser.add_argument("--workers", type=int, default=None,
                              help="fan batch requests out over N worker "
                                   "processes per session")
    serve_parser.add_argument("--transport", default="auto",
                              choices=("auto", "serial", "fork",
                                       "shared-memory"),
                              help="fan-out transport (default: auto)")
    serve_parser.add_argument("--max-pending", type=int, default=8,
                              help="per-session admission queue depth "
                                   "(default: 8; beyond it requests get the "
                                   "typed 'queue-full' rejection)")
    serve_parser.add_argument("--max-candidates-cap", type=int, default=None,
                              help="cap on a why-no request's "
                                   "max_candidates (requests above it, or "
                                   "unbounded ones, get 'cost-cap')")
    serve_parser.add_argument("--request-timeout", type=float, default=None,
                              help="per-request wall-clock budget in "
                                   "seconds (reads only; exceeding it gets "
                                   "the typed 'timeout' rejection)")
    serve_parser.set_defaults(func=_cmd_serve)

    demo_parser = subparsers.add_parser(
        "demo", help="run the built-in Fig. 2 IMDB scenario")
    demo_parser.add_argument("--padding", type=int, default=10,
                             help="number of padding directors in the synthetic IMDB")
    demo_parser.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
