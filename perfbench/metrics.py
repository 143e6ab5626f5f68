"""The benchmark's metrics: names, units, and how each is derived.

End-to-end metrics come from untraced runs; per-layer metrics from the
traced run.  ``run_s`` and ``cpu_s`` are per *segment* and every per-layer
time or count is per *round* (both are fixed amounts of work on one
instance, see :mod:`workloads`), so a run that fits more of them into its
time budget reports the same numbers.

Every timed end-to-end figure (``setup_s``, ``run_s``, ``cpu_s``, the
latency percentiles) is scaled to the host's speed as measured by the
reference chunks around each set-up and segment (:mod:`reference`);
:func:`raw_figures` gives the unscaled ones.

``MOVES`` records, before anything is measured, which end-to-end metric each
per-layer metric should move and on which workload; the traced run fails
when a metric's named workload records no events for it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from reference import NOMINAL_S
from stats import mean, median, percentile

#: (name, unit) of the end-to-end metrics, reported on every workload.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

#: Layers whose spans each workload's traced run must record.
WORKLOAD_LAYERS: Dict[str, Tuple[str, ...]] = {
    "whyso-flow": ("relational", "lineage", "core", "flow", "engine"),
    "serve-refresh": ("relational", "lineage", "core", "engine", "server"),
    "whyso-fanout": ("relational", "engine"),
}

FLOW = ("whyso-flow",)
SERVE = ("serve-refresh",)
FANOUT = ("whyso-fanout",)

#: name -> (unit, workloads whose end-to-end metrics it should move, and
#: which).  The workloads named here must record a non-zero event count.
MOVES: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    "relational.load_ms": ("ms", FLOW + SERVE, "setup_s"),
    "relational.pass_ms": ("ms", FLOW + SERVE, "setup_s"),
    "relational.pass_calls": ("count", FLOW + SERVE, "setup_s"),
    "relational.valuations_ms": ("ms", FLOW + SERVE,
                                 "op_p50_ms (flow), write_p50_ms (serve)"),
    "relational.valuations_calls": ("count", FLOW + SERVE,
                                    "op_p50_ms (flow), write_p50_ms (serve)"),
    "relational.apply_delta_ms": ("ms", SERVE, "write_p50_ms"),
    # serve-refresh passes its exogenous A relation to every set_true; on
    # whyso-flow the exogenous set is empty (predicted: no change there).
    "lineage.set_true_ms": ("ms", SERVE, "op_p50_ms, cpu_s"),
    "lineage.set_true_calls": ("count", SERVE, "op_p50_ms, cpu_s"),
    "lineage.set_true_vars_per_call": ("count", SERVE, "op_p50_ms, cpu_s"),
    "lineage.set_true_useful_ratio": ("ratio", SERVE, "op_p50_ms, cpu_s"),
    "lineage.remove_redundant_ms": ("ms", SERVE, "op_p90_ms"),
    "core.flow_responsibility_ms": ("ms", FLOW, "op_p50_ms, cpu_s"),
    "core.flow_responsibility_calls": ("count", FLOW, "op_p50_ms, cpu_s"),
    "core.flow_networks_built": ("count", FLOW, "op_p50_ms, cpu_s"),
    "core.flow_network_build_ms": ("ms", FLOW, "op_p50_ms, cpu_s"),
    "core.flow_edges_per_network": ("count", FLOW, "op_p50_ms, cpu_s"),
    "core.flow_networks_per_cause": ("ratio", FLOW, "op_p50_ms, cpu_s"),
    "core.hitting_set_ms": ("ms", SERVE, "op_p90_ms"),
    "core.hitting_set_calls": ("count", SERVE, "op_p90_ms"),
    "core.greedy_ms": ("ms", SERVE, "op_p90_ms"),
    "flow.max_flow_ms": ("ms", FLOW, "op_p50_ms"),
    "flow.max_flow_calls": ("count", FLOW, "op_p50_ms"),
    "engine.cache_hit_ratio": ("ratio", SERVE, "op_p50_ms"),
    "engine.cache_entries": ("count", SERVE, "op_p50_ms"),
    "engine.cache_invalidated_per_delta": ("count", SERVE, "op_p50_ms"),
    "engine.memo_hit_ratio": ("ratio", SERVE, "op_p50_ms"),
    "engine.index_rebuild_ms": ("ms", FLOW, "setup_s"),
    "engine.index_probe_ms": ("ms", SERVE, "write_p50_ms, run_s"),
    "engine.refresh_ms": ("ms", SERVE, "write_p50_ms, run_s"),
    "engine.stale_per_delta": ("count", SERVE, "write_p50_ms, run_s"),
    "engine.fanout_ms": ("ms", FANOUT, "run_s"),
    "engine.fanout_state_bytes": ("bytes", FANOUT, "run_s"),
    "engine.fanout_effective_workers": ("count", FANOUT, "run_s"),
    "engine.fanout_child_cpu_s": ("s", FANOUT, "run_s"),
    "engine.fanout_efficiency": ("ratio", FANOUT, "run_s"),
    "server.engine_ms": ("ms", SERVE, "op_p50_ms"),
    "server.overhead_ms": ("ms", SERVE, "op_p50_ms"),
    "server.rejections": ("count", SERVE, "fail_ratio"),
    "relational.self_ms": ("ms", (), "largest layer gets the work"),
    "lineage.self_ms": ("ms", (), "largest layer gets the work"),
    "core.self_ms": ("ms", (), "largest layer gets the work"),
    "flow.self_ms": ("ms", (), "largest layer gets the work"),
    "engine.self_ms": ("ms", (), "largest layer gets the work"),
    "server.self_ms": ("ms", (), "largest layer gets the work"),
    "trace.spans": ("count", (), "tracing cost"),
    "trace.overhead_cpu_s": ("s", (), "tracing cost"),
}

PER_LAYER: List[Tuple[str, str]] = [(name, spec[0])
                                    for name, spec in MOVES.items()]

#: Per-layer time/call metrics read straight off one span name.
_SPAN_METRICS = {
    "relational.load": ("relational.load_ms", None),
    "relational.pass": ("relational.pass_ms", "relational.pass_calls"),
    "relational.valuations": ("relational.valuations_ms",
                              "relational.valuations_calls"),
    "relational.apply_delta": ("relational.apply_delta_ms", None),
    "lineage.set_true": ("lineage.set_true_ms", "lineage.set_true_calls"),
    "lineage.remove_redundant": ("lineage.remove_redundant_ms", None),
    "core.flow_responsibility": ("core.flow_responsibility_ms",
                                 "core.flow_responsibility_calls"),
    "core.flow_network_build": ("core.flow_network_build_ms",
                                "core.flow_networks_built"),
    "core.hitting_set": ("core.hitting_set_ms", "core.hitting_set_calls"),
    "core.greedy": ("core.greedy_ms", None),
    "flow.max_flow": ("flow.max_flow_ms", "flow.max_flow_calls"),
    "engine.index_rebuild": ("engine.index_rebuild_ms", None),
    "engine.index_probe": ("engine.index_probe_ms", None),
    "engine.refresh": ("engine.refresh_ms", None),
    "engine.fanout": ("engine.fanout_ms", None),
    "server.engine": ("server.engine_ms", None),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def scaled_segments(shard: Dict[str, Any]) -> List[Tuple[float, float]]:
    """A shard's segment (wall, CPU) times, scaled to the nominal host."""
    return [(wall * NOMINAL_S / ref_wall, cpu * NOMINAL_S / ref_cpu)
            for (wall, cpu), (ref_wall, ref_cpu)
            in zip(shard["segments"], shard["levels"], strict=True)]


def scaled_latencies(shard: Dict[str, Any], kind: str = "ops"
                     ) -> List[float]:
    """A shard's operation (or write) latencies, scaled to the nominal host."""
    levels = {"ops": "op_levels", "writes": "write_levels"}[kind]
    return [ms * NOMINAL_S / level for ms, level
            in zip(shard[kind], shard[levels], strict=True)]


def end_to_end(shards: List[Dict[str, Any]]) -> Dict[str, Tuple[float, int]]:
    """``name -> (value, sample count)`` over the untraced shard results."""
    setups = [t * NOMINAL_S / level for shard in shards
              for t, level in zip(shard["setups"], shard["setup_levels"],
                                  strict=True)]
    segments = [r for shard in shards for r in scaled_segments(shard)]
    ops = [o for shard in shards for o in scaled_latencies(shard)]
    rss = [shard["peak_rss_kb"] / 1024.0 for shard in shards]
    p50, p90 = percentile(ops, 50), percentile(ops, 90)
    return {
        "setup_s": (median(setups), len(setups)),
        "run_s": (mean([wall for wall, _ in segments]), len(segments)),
        "cpu_s": (mean([cpu for _, cpu in segments]), len(segments)),
        "op_p50_ms": (p50.value, p50.samples),
        "op_p90_ms": (p90.value, p90.samples),
        "peak_rss_mb": (median(rss), len(rss)),
    }


def raw_figures(shards: List[Dict[str, Any]]
                ) -> List[Tuple[str, float, str, int]]:
    """``(name, value, unit, samples)`` of the unscaled timings, and the
    reference chunk time they were scaled by (printed, not in the JSON)."""
    segments = [r for shard in shards for r in shard["segments"]]
    levels = [r for shard in shards for r in shard["levels"]]
    ops = [o for shard in shards for o in shard["ops"]]
    setups = [t for shard in shards for t in shard["setups"]]
    out = [("raw_setup_s", median(setups), "s", len(setups)),
           ("raw_run_s", mean([wall for wall, _ in segments]), "s",
            len(segments)),
           ("raw_cpu_s", mean([cpu for _, cpu in segments]), "s",
            len(segments))]
    for pct in (50, 90):
        p = percentile(ops, pct)
        out.append((f"raw_op_p{pct}_ms", p.value, "ms", p.samples))
    out.append(("reference_chunk_ms", 1e3 * median([w for w, _ in levels]),
                "ms", len(levels)))
    return out


def per_layer(traced: List[Dict[str, Any]], untraced: List[Dict[str, Any]]
              ) -> Dict[str, Tuple[float, float]]:
    """``name -> (value, event count)`` from the traced shard results.

    The event count is what the value was derived from (calls, lookups,
    deltas); a named workload must report it non-zero.
    """
    rounds = sum(len(shard["setups"]) for shard in traced)
    calls: Dict[str, float] = {}
    ms: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    layer_self: Dict[str, float] = {}
    spans = 0
    for shard in traced:
        trace = shard["trace"]
        spans += trace["spans"]
        for name, entry in trace["summary"].items():
            calls[name] = calls.get(name, 0) + entry["calls"]
            ms[name] = ms.get(name, 0.0) + entry["ms"]
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
        for layer, value in trace["layer_self_ms"].items():
            layer_self[layer] = layer_self.get(layer, 0.0) + value

    out: Dict[str, Tuple[float, float]] = {}
    for span, (ms_name, calls_name) in _SPAN_METRICS.items():
        n = calls.get(span, 0)
        out[ms_name] = (_ratio(ms.get(span, 0.0), rounds), n)
        if calls_name is not None:
            out[calls_name] = (_ratio(n, rounds), n)
    for layer, value in layer_self.items():
        out[f"{layer}.self_ms"] = (_ratio(value, rounds), spans)
    out["trace.spans"] = (_ratio(spans, rounds), spans)

    c = counters.get
    set_true = calls.get("lineage.set_true", 0)
    out["lineage.set_true_vars_per_call"] = (
        _ratio(c("lineage.set_true_vars", 0), set_true), set_true)
    out["lineage.set_true_useful_ratio"] = (
        _ratio(c("lineage.set_true_useful_vars", 0),
               c("lineage.set_true_vars", 0)), set_true)
    networks = calls.get("core.flow_network_build", 0)
    out["core.flow_edges_per_network"] = (
        _ratio(c("core.flow_edges", 0), networks), networks)
    out["core.flow_networks_per_cause"] = (
        _ratio(networks, calls.get("core.flow_responsibility", 0)), networks)

    lookups = c("engine.cache_hits", 0) + c("engine.cache_misses", 0)
    out["engine.cache_hit_ratio"] = (
        _ratio(c("engine.cache_hits", 0), lookups), lookups)
    out["engine.cache_entries"] = (
        _ratio(c("engine.cache_entries", 0), rounds), lookups)
    memo = c("engine.memo_hits", 0) + c("engine.memo_misses", 0)
    out["engine.memo_hit_ratio"] = (
        _ratio(c("engine.memo_hits", 0), memo), memo)
    deltas = calls.get("relational.apply_delta", 0)
    out["engine.cache_invalidated_per_delta"] = (
        _ratio(c("engine.cache_invalidated", 0), deltas), deltas)
    refreshes = calls.get("engine.refresh", 0)
    out["engine.stale_per_delta"] = (
        _ratio(c("engine.refresh_stale", 0), refreshes), refreshes)

    fanouts = calls.get("engine.fanout", 0)
    workers = c("engine.fanout_workers", 0)
    child_cpu = c("engine.fanout_child_cpu_s", 0)
    out["engine.fanout_state_bytes"] = (
        _ratio(c("engine.fanout_state_bytes", 0), fanouts), fanouts)
    out["engine.fanout_effective_workers"] = (_ratio(workers, fanouts),
                                              fanouts)
    out["engine.fanout_child_cpu_s"] = (_ratio(child_cpu, rounds), fanouts)
    # Mean workers x fan-out wall is the CPU the pool could have used.
    capacity = _ratio(workers, fanouts) * c("engine.fanout_wall_s", 0)
    out["engine.fanout_efficiency"] = (_ratio(child_cpu, capacity), fanouts)

    requests = sum(len(shard["ops"]) + len(shard["writes"])
                   for shard in traced)
    client_ms = sum(sum(shard["ops"]) + sum(shard["writes"])
                    for shard in traced)
    engine_ms = ms.get("server.engine", 0.0)
    out["server.overhead_ms"] = (
        _ratio(client_ms - engine_ms, requests)
        if calls.get("server.engine") else 0.0, requests)
    out["server.rejections"] = (_ratio(c("server.rejections", 0), rounds),
                                requests)

    traced_cpu = mean([cpu for shard in traced
                       for _, cpu in scaled_segments(shard)])
    plain_cpu = mean([cpu for shard in untraced
                      for _, cpu in scaled_segments(shard)])
    out["trace.overhead_cpu_s"] = (traced_cpu - plain_cpu, rounds)
    return out


def missing_events(workload: str, values: Dict[str, Tuple[float, float]]
                   ) -> List[str]:
    """Per-layer metrics naming ``workload`` that recorded no events."""
    return [name for name, (_, named, _) in MOVES.items()
            if workload in named and not values[name][1]]
