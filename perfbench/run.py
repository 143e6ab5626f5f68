"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload whyso-flow --seed 1 --seconds 30 \\
        --trace 0

Workloads: ``whyso-flow``, ``serve-refresh``, ``whyso-fanout`` (see
``perfbench/README.md``).  The run is split into
``SHARDS`` fresh child processes, run one after another.  Each gets a
share of ``--seconds``, its own ``INSTANCES`` generated instances and its
own ``PYTHONHASHSEED``, all derived from ``--seed``: the same seed gives
the same inputs and the same hash order on every commit, and pooling
shards and instances averages over the instance-to-instance cost
differences and set-iteration-order effects that one instance and one
hash seed would freeze in.  Timed figures are scaled to the host's
speed as measured by a fixed reference computation (``reference.py``);
the unscaled ones are printed next to them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each shard
half untraced and half traced and prints the per-layer metrics, writing
the raw spans under ``.perfbench_out/``.  Every metric is printed by name
with its unit and sample count; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, MOVES, PER_LAYER, WORKLOAD_LAYERS, \
    end_to_end, missing_events, per_layer, raw_figures, \
    scaled_latencies  # noqa: E402
from stats import percentile, TooFewSamples  # noqa: E402

#: Child processes per run; each measures ``seconds / SHARDS``.
SHARDS = 2
#: Generated instances per child; its rounds cycle through them.
INSTANCES = 4
#: Hard limit on one child, well inside the run's own time limit.
SHARD_TIMEOUT_S = 80


def derive(seed: int, shard: int, salt: int) -> int:
    """A 32-bit value determined by (seed, shard, salt) alone."""
    value = (seed * 1_000_003 + shard * 7_919 + salt * 104_729) & 0xFFFFFFFF
    value ^= value >> 16
    value = (value * 0x45D9F3B) & 0xFFFFFFFF
    return value ^ (value >> 16)


def run_shard(workload: str, seed: int, shard: int, seconds: float,
              trace: bool) -> Dict[str, Any]:
    out_dir = os.path.join(ROOT, ".perfbench_out")
    trace_path = None
    if trace:
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(
            out_dir, f"trace-{workload}-seed{seed}-shard{shard}.json")
    config = {"workload": workload,
              "seeds": [derive(seed, shard, 3 + i) for i in range(INSTANCES)],
              "seconds": seconds, "trace": trace, "trace_path": trace_path}
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(derive(seed, shard, 2))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "shard.py"), json.dumps(config)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=SHARD_TIMEOUT_S)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"shard {shard} of {workload} exited with "
                           f"code {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(workload: str, shards: List[Dict[str, Any]], trace: bool
           ) -> Tuple[Dict[str, Dict[str, Any]], List[str]]:
    """Metrics for the JSON line, plus printed lines; raises on failure."""
    untraced = [dict(s["untraced"], peak_rss_kb=s["peak_rss_kb"])
                for s in shards]
    lines = []
    if not trace:
        values = end_to_end(untraced)
        units = dict(END_TO_END)
        for name, (value, n) in values.items():
            lines.append(f"{workload:14s} {name:22s} {_fmt(value):>12s} "
                         f"{units[name]:6s} n={n}")
        writes = [w for s in untraced for w in scaled_latencies(s, "writes")]
        for pct in (50, 90):
            try:
                p = percentile(writes, pct)
                lines.append(f"{workload:14s} {f'write_p{pct}_ms':22s} "
                             f"{_fmt(p.value):>12s} ms     n={p.samples}")
            except TooFewSamples:
                pass
        for name, value, unit, n in raw_figures(untraced):
            lines.append(f"{workload:14s} {name:22s} {_fmt(value):>12s} "
                         f"{unit:6s} n={n}")
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, (value, _) in values.items()}
        return metrics, lines
    traced = [s["traced"] for s in shards]
    values = per_layer(traced, untraced)
    missing = missing_events(workload, values)
    seen = set().union(*(s["trace"]["layers_seen"] for s in traced))
    unseen = [layer for layer in WORKLOAD_LAYERS[workload]
              if layer not in seen]
    if missing or unseen:
        raise RuntimeError(
            f"traced run recorded no spans for layer(s) {unseen} and no "
            f"events for metric(s) {missing} on {workload}")
    units = dict(PER_LAYER)
    for name, _ in PER_LAYER:
        value, n = values[name]
        named = "*" if workload in MOVES[name][1] else " "
        lines.append(f"{workload:14s} {name:36s} {_fmt(value):>12s} "
                     f"{units[name]:6s} n={n:g} {named}")
    metrics = {name: {"value": values[name][0], "unit": unit}
               for name, unit in PER_LAYER}
    return metrics, lines


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_LAYERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(f"run.py: no program source under {ROOT}/src; "
                         "run from the root of a full checkout\n")
        return 2

    shards = [run_shard(args.workload, args.seed, k, args.seconds / SHARDS,
                        bool(args.trace)) for k in range(SHARDS)]
    metrics, lines = report(args.workload, shards, bool(args.trace))
    attempted = sum(s["untraced"]["attempted"] for s in shards)
    failed = sum(s["untraced"]["failed"] for s in shards)
    if args.trace:
        attempted += sum(s["traced"]["attempted"] for s in shards)
        failed += sum(s["traced"]["failed"] for s in shards)
    for line in lines:
        print(line)
    print(f"{args.workload:14s} {'fail_ratio':22s} "
          f"{_fmt(failed / attempted):>12s} ratio  n={attempted}")
    for shard in shards:
        for message in shard["untraced"]["messages"][:5]:
            print(f"{args.workload:14s} failure: {message}")
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
