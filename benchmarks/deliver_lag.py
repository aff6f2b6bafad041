"""Follower lag: how long after its due time each node delivers a request.

The benchmark's latency metrics time the *first* A-delivery anywhere.
This script runs one simulated workload of ``bench/workloads.py`` — it
only imports the workload table and the request schedule from there,
and writes nothing under ``bench/`` — and prints three medians from
the collector's delivery stream, over the requests every node delivered:

* ``first``:     due -> first A-delivery at any node (the benchmark's
  ``deliver_p50_ms``);
* ``submitter``: due -> A-delivery at the node the request was submitted
  to;
* ``all``:       due -> A-delivery at the last node to deliver it.

A node that replays history after a recovery counts its first delivery
of each message.  Usage::

    python3 benchmarks/deliver_lag.py sim-n3-steady --seed 11 --seconds 15
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench.metrics import median  # noqa: E402
from bench.workloads import by_name, make_schedule  # noqa: E402

from repro.chaos.inject import FaultEvent, install_timeline  # noqa: E402
from repro.core.alternative import AlternativeConfig  # noqa: E402
from repro.harness.cluster import Cluster, ClusterConfig  # noqa: E402
from repro.transport.network import NetworkConfig  # noqa: E402
from repro.workloads.generators import ScheduledWorkload  # noqa: E402

SETTLE_S = 120.0


def build(name: str, seed: int, seconds: float):
    """``(workload, schedule, cluster)`` for one simulated workload: the
    cluster started, its requests and outages installed, not yet run."""
    workload = by_name(name)
    if workload.runtime != "sim":
        raise SystemExit(f"{name} is not a simulated workload")
    schedule = make_schedule(workload, seed, seconds)
    alt = None
    if workload.protocol == "alternative":
        alt = AlternativeConfig(
            checkpoint_interval=workload.checkpoint_interval)
    cluster = Cluster(ClusterConfig(
        n=workload.n, seed=seed, protocol=workload.protocol,
        network=NetworkConfig(loss_rate=workload.loss_rate), alt=alt))
    cluster.start()
    ScheduledWorkload(schedule.plan).install(cluster)
    install_timeline(cluster.sim, cluster.nodes, [
        FaultEvent(when, outage.node, action)
        for outage in schedule.outages
        for when, action in ((outage.down_at, FaultEvent.CRASH),
                             (outage.up_at, FaultEvent.RECOVER))])
    return workload, schedule, cluster


def lags(name: str, seed: int, seconds: float):
    """``{"first", "submitter", "all"}`` -> median lag in ms, and the
    number of requests they are taken over."""
    workload, schedule, cluster = build(name, seed, seconds)
    cluster.run(until=schedule.end)
    if not cluster.settle(within=SETTLE_S):
        raise SystemExit(f"{name} did not settle")

    collector = cluster.collector
    request = {payload: (due, node) for due, node, payload in schedule.plan}
    at_node = {}
    for node, _stream, mid, when in collector.deliveries:
        at_node.setdefault(mid, {}).setdefault(node, when)
    out = {"first": [], "submitter": [], "all": []}
    for mid, payload in collector.broadcast_payloads.items():
        if payload not in request or len(at_node.get(mid, ())) < workload.n:
            continue
        due, submitter = request[payload]
        times = at_node[mid]
        out["first"].append(min(times.values()) - due)
        out["submitter"].append(times[submitter] - due)
        out["all"].append(max(times.values()) - due)
    return ({key: median(values) * 1000.0 for key, values in out.items()},
            len(out["first"]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args()
    p50, count = lags(args.workload, args.seed, args.seconds)
    print(f"{args.workload}  seed {args.seed}  {args.seconds:g} s  "
          f"{count} requests delivered everywhere")
    for key in ("first", "submitter", "all"):
        print(f"  p50 to {key:<9}  {p50[key]:9.3f} ms")


if __name__ == "__main__":
    main()
