"""Print the benchmark's sim-exact metrics as sorted JSON: the determinism gate.

On the simulator a run is a pure function of ``(seed, seconds)``, so these
seven metrics may not move by one bit unless a change means them to::

    python3 bench/run.py --smoke
    python3 benchmarks/sim_exact.py | diff - BENCH_SIM_EXACT.json

Re-record with ``>`` in place of ``| diff -``, and say why.
"""

import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
METRICS = ("deliveries_per_s", "deliver_p50_ms", "deliver_p99_ms",
           "net_msgs_per_delivery", "net_bytes_per_delivery",
           "log_ops_per_delivery", "log_bytes_per_delivery")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    workloads = [w["name"] for w in json.load(handle)["workloads"]
                 if w["name"].startswith("sim-")]
document = {}
for name in workloads:
    with open(os.path.join(ROOT, "bench", "out", name + ".json")) as handle:
        run = json.load(handle)
    document[name] = {metric: run["metrics"][metric]["value"]
                      for metric in METRICS}
    document[name].update(seed=run["seed"], seconds=run["seconds"])
json.dump(document, sys.stdout, indent=1, sort_keys=True)
sys.stdout.write("\n")
