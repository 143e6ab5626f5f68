"""Smoke tier for the benchmark itself (seconds, not minutes).

Run from the repository root::

    PYTHONPATH=src:perfbench python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import os
import random

import pytest

from checks import Recorder, compare_rankings
from metrics import END_TO_END, MOVES, PER_LAYER, WORKLOAD_LAYERS, \
    end_to_end, missing_events, per_layer, raw_figures
from reference import CHECKSUM, NOMINAL_S, reference_chunk, reference_level
from shard import run_phase
from stats import MIN_BEYOND, TooFewSamples, percentile
from tracing import Tracer
from workloads import WORKLOADS, WhySoFlow

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMALL = 0.15


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_metric_names_and_units_match_benchmark_json():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert sorted(WORKLOAD_LAYERS) == sorted(WORKLOADS) \
        == sorted(w["name"] for w in spec["workloads"])
    assert spec["paths"] == ["perfbench"]


def _shard(slowdown=1.0):
    level = NOMINAL_S * slowdown
    return {"setups": [0.5 * slowdown, 0.6 * slowdown],
            "setup_levels": [level] * 2,
            "segments": [(2.0 * slowdown, 1.9 * slowdown),
                         (2.2 * slowdown, 2.0 * slowdown)],
            "levels": [(level, level)] * 2,
            "ops": [float(i) * slowdown for i in range(1, 121)],
            "op_levels": [level] * 120, "writes": [], "write_levels": [],
            "peak_rss_kb": 51200}


def test_end_to_end_emits_exactly_the_declared_metrics():
    values = end_to_end([_shard(), _shard()])
    assert list(values) == [name for name, _ in END_TO_END]
    assert values["op_p90_ms"][1] == 240          # the sample count
    assert values["peak_rss_mb"] == (50.0, 2)


def test_a_uniformly_slower_host_reports_the_same_timings():
    nominal = end_to_end([_shard(), _shard()])
    slow = end_to_end([_shard(1.7), _shard(1.7)])
    for name in ("setup_s", "run_s", "cpu_s", "op_p50_ms", "op_p90_ms"):
        assert slow[name][0] == pytest.approx(nominal[name][0])
    raw = {name: value for name, value, _, _ in raw_figures([_shard(1.7)])}
    assert raw["raw_run_s"] == pytest.approx(2.1 * 1.7)


def test_reference_level_is_positive_and_checked():
    wall, cpu = reference_level()
    assert wall > 0 and cpu > 0
    assert reference_chunk() == CHECKSUM


def test_percentile_reports_its_sample_count():
    p = percentile([float(i) for i in range(100)], 90)
    assert p.samples == 100
    assert p.value == pytest.approx(89.1)


@pytest.mark.parametrize("n, pct", [(99, 90), (19, 50)])
def test_percentile_refuses_fewer_than_ten_samples_beyond(n, pct):
    with pytest.raises(TooFewSamples):
        percentile([1.0] * n, pct)
    # One more sample is enough.
    assert percentile([1.0] * (n + 1), pct).samples == n + 1
    assert MIN_BEYOND == 10


def test_corrupted_explanation_trips_the_check():
    workload = WhySoFlow(seed=3, scale=SMALL)
    state = workload.setup()
    rec = Recorder()
    workload.measure(state, rec)
    honest = Recorder()
    workload.check(state, honest, _rng())
    assert honest.failed == 0 and honest.attempted > 0
    for explanation in state["results"].values():
        cause = explanation.causes[0]
        cause.responsibility = cause.responsibility / 2
    corrupted = Recorder()
    workload.check(state, corrupted, _rng())
    assert corrupted.failed == corrupted.attempted > 0


def test_compare_rankings_names_the_difference():
    assert compare_rankings([("a", 1)], [("a", 1)]) == []
    assert compare_rankings([("a", 1)], [("a", 2)])
    assert compare_rankings([("a", 1)], []) == ["0 causes, expected 1"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_round_sees_every_named_layer(name):
    workload = WORKLOADS[name](seed=5, scale=SMALL)
    plain = run_phase([workload], 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_phase([workload], 0, tracer)
    finally:
        tracer.uninstall()
    assert plain.failed == traced.failed == 0, plain.messages + \
        traced.messages
    seen = {span_name.split(".", 1)[0] for span_name in tracer.summary()}
    assert set(WORKLOAD_LAYERS[name]) <= seen
    result = dict(traced.as_dict(), trace={
        "spans": len(tracer.spans), "summary": tracer.summary(),
        "counters": dict(tracer.counters),
        "layer_self_ms": tracer.layer_self_ms()})
    values = per_layer([result], [plain.as_dict()])
    assert [n for n, _ in PER_LAYER] == sorted(values, key=list(MOVES).index)
    assert missing_events(name, values) == []


def test_missing_events_flags_a_silent_layer():
    values = {metric: (0.0, 1) for metric in MOVES}
    values["engine.refresh_ms"] = (0.0, 0)
    assert missing_events("serve-refresh", values) == ["engine.refresh_ms"]
    assert missing_events("whyso-flow", values) == []


def test_uninstall_restores_every_original():
    from repro.lineage.boolean_expr import PositiveDNF

    flow_responsibility = importlib.import_module(
        "repro.core.flow_responsibility")

    originals = (PositiveDNF.__dict__["set_true"],
                 flow_responsibility.FlowEngine.__dict__["responsibility"])
    tracer = Tracer()
    tracer.install()
    assert PositiveDNF.__dict__["set_true"] is not originals[0]
    tracer.uninstall()
    assert (PositiveDNF.__dict__["set_true"],
            flow_responsibility.FlowEngine.__dict__["responsibility"]) \
        == originals


def _rng():
    return random.Random(0)

