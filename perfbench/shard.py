"""One benchmark process: warm up, run rounds for a time budget, report.

Started by ``run.py`` with a JSON configuration as its only argument and
``PYTHONHASHSEED`` already derived from the run's seed.  Prints one JSON
object (the shard result) as its last line of standard output.

Usage (normally only through ``run.py``)::

    PYTHONPATH=src python3 perfbench/shard.py '{"workload": "whyso-flow",
        "seeds": [11, 12], "seconds": 5, "trace": false, "trace_path": null}'
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from typing import Any, Dict, Optional, Sequence

from checks import Recorder
from tracing import Tracer
from workloads import WORKLOADS, Workload

#: A phase always completes at least this many rounds.
MIN_ROUNDS = 2
#: Instance scale of the untimed warm-up round.
WARM_SCALE = 0.15


def run_phase(workloads: Sequence[Workload], seconds: float,
              tracer: Optional[Tracer] = None) -> Recorder:
    """Rounds until the budget is spent (a round starts only if its
    expected midpoint falls inside the budget).

    Round ``i`` runs on instance ``i mod len(workloads)``: one run averages
    over several generated instances, whose costs differ by about 10%.
    """
    rec = Recorder()
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        mean_round = elapsed / index if index else 0.0
        if index >= MIN_ROUNDS and elapsed + mean_round / 2 >= seconds:
            break
        workloads[index % len(workloads)].run_round(rec, tracer, index)
        index += 1
    return rec


def main(config: Dict[str, Any]) -> Dict[str, Any]:
    cls = WORKLOADS[config["workload"]]
    seeds = config["seeds"]
    if cls.one_cpu:
        # Before any thread starts, so every thread inherits the mask.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Imports, lazy indexes and first-call paths are paid here, untimed.
    cls(seeds[0], scale=WARM_SCALE).run_round(Recorder())
    workloads = [cls(seed) for seed in seeds]
    result: Dict[str, Any] = {}
    if not config["trace"]:
        result["untraced"] = run_phase(workloads,
                                       config["seconds"]).as_dict()
    else:
        # Half the budget untraced (the overhead baseline), half traced.
        half = config["seconds"] / 2
        result["untraced"] = run_phase(workloads, half).as_dict()
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(workloads, half, tracer)
        finally:
            tracer.uninstall()
        result["traced"] = traced.as_dict()
        result["traced"]["trace"] = {
            "spans": len(tracer.spans),
            "summary": tracer.summary(),
            "counters": dict(tracer.counters),
            "layer_self_ms": tracer.layer_self_ms(),
            "layers_seen": sorted({name.split(".", 1)[0]
                                   for name in tracer.summary()}),
        }
        tracer.dump(config["trace_path"],
                    {"workload": cls.name, "seeds": seeds,
                     "rounds": len(traced.setups)})
    result["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
