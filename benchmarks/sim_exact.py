"""Print the benchmark's sim-exact metrics as sorted JSON: the determinism gate.

On the simulator a run is a pure function of ``(seed, seconds)``, so these
seven metrics may not move by one bit unless a change means them to::

    python3 benchmarks/sim_exact.py | diff - BENCH_SIM_EXACT.json

Each ``sim-*`` workload of BENCHMARK.json runs here, fresh, in a child
``bench/run.py --workload W --seed 11 --seconds 2 --trace 0``, and its
metrics are read from the JSON line that ends the child's output; the
child inherits the environment, ``PYTHONHASHSEED`` included.  A child
that fails or prints no result fails the gate.  Re-record with ``>`` in
place of ``| diff -``, and say why.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SEED = 11
SECONDS = 2.0
METRICS = ("deliveries_per_s", "deliver_p50_ms", "deliver_p99_ms",
           "net_msgs_per_delivery", "net_bytes_per_delivery",
           "log_ops_per_delivery", "log_bytes_per_delivery")


def run_workload(name):
    """The end-to-end metrics of one fresh run of ``name``."""
    child = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"),
         "--workload", name, "--seed", str(SEED),
         "--seconds", f"{SECONDS:g}", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=600)
    lines = child.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, ValueError):
        line = None
    if child.returncode != 0 or line is None or not line["correct"]:
        sys.stderr.write(child.stdout)
        sys.exit(f"sim_exact: {name} failed (exit {child.returncode})")
    return line["metrics"]


with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    workloads = [w["name"] for w in json.load(handle)["workloads"]
                 if w["name"].startswith("sim-")]
document = {}
for name in workloads:
    metrics = run_workload(name)
    document[name] = {metric: metrics[metric]["value"] for metric in METRICS}
    document[name].update(seed=SEED, seconds=SECONDS)
json.dump(document, sys.stdout, indent=1, sort_keys=True)
sys.stdout.write("\n")
