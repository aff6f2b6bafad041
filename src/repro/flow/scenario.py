"""The canonical overload scenario: saturate, limp, drain, verify.

One seeded scenario drives the whole overload-robustness surface in a
single simulated run of :func:`~repro.harness.scenario.run_scenario`:

* start at ``n = 3`` with admission control **on** (token bucket at
  4 msg/s per node, burst 4, at most 16 unordered messages in flight),
  and declare that same 16 as the ``queue_bound`` no protocol
  Unordered or pending buffer may exceed;
* **gray failure**: the timeline gives node 2 a slow disk for the first
  stretch of the run — every write stalls by a seeded draw, and the
  stall freezes the whole process (inbound messages defer past the
  stall horizon), the classic limping-but-alive fault;
* **saturation burst**: a :class:`~repro.workloads.generators.ScheduledWorkload`
  offers 120 broadcasts to node 0 inside one virtual second — more than
  ten times what the bucket refills in that window — and retries each
  rejection with seeded, jittered exponential backoff until it is
  accepted or the retry budget is exhausted;
* **drain and verify**: the runner waits until no retry is pending,
  settles, and runs :func:`~repro.harness.verify.verify_run` followed by
  :func:`~repro.harness.verify.verify_overload_safety` with the
  workload's exact attempt counts — every admission attempt is
  accounted (``accepted + rejected == offered``) and no queue exceeded
  its configured bound.  Node 0 never crashes, so Termination already
  demands that every accepted broadcast was delivered.

Everything is a pure function of the seed: the backoff jitter, the
disk-stall draws and the protocol schedule all come from streams seeded
by it, so :func:`~repro.harness.scenario.check_reproducible` re-runs the
same seed and demands a bit-identical signature and full trace.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict

from repro.chaos.events import ChaosEvent
from repro.flow.controller import FlowConfig
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import Scenario, ScenarioResult
from repro.storage.disk import SimDisk
from repro.storage.stable import StableStorage
from repro.workloads.generators import ScheduledWorkload

__all__ = ["OverloadReport", "overload_scenario"]

# The scenario's fixed shape (the seed varies the draws, not the plan).
_N = 3
_VICTIM = 2                 # the slow-disk node
_BURST = 120                # offered broadcasts in the saturation window
_BURST_START = 1.0
_BURST_SPAN = 1.0           # all 120 offered inside one virtual second
_SLOW_DISK_UNTIL = 4.0      # victim's disk heals at this time
_FLOW = dict(rate=4.0, burst=4, max_unordered=16)


def overload_scenario(seed: int = 0,
                      settle_limit: float = 300.0) -> Scenario:
    """The scripted saturation scenario for one seed.

    Simulated runtime only: the point of the scenario is exact accounting under
    overload, which needs the virtual clock (the live runtime gets its
    overload coverage from ``repro chaos --runtime live --overload``).
    The run must settle within ``settle_limit`` virtual seconds of the
    disk healing.
    """
    def faulty_factory(node_id: int) -> StableStorage:
        return StableStorage(SimDisk(
            rng=random.Random(f"overload-disk:{seed}:{node_id}"),
            node_hint=node_id))

    # 120 broadcasts offered to node 0 inside one virtual second.  The
    # bucket refills 4/s and holds a burst of 4, so the window admits at
    # most ~8 — the offered load is >10x sustainable.
    burst = ScheduledWorkload(
        [(_BURST_START + _BURST_SPAN * index / _BURST, 0,
          f"overload-{seed}-{index}") for index in range(_BURST)],
        seed=seed)
    return Scenario(
        ClusterConfig(n=_N, seed=seed, protocol="basic",
                      storage_factory=faulty_factory,
                      flow=FlowConfig(**_FLOW,
                                      queue_bound=_FLOW["max_unordered"])),
        workload=burst,
        timeline=[ChaosEvent(0.0, "slow_disk", node=_VICTIM,
                             low=0.05, high=0.2),
                  ChaosEvent(_SLOW_DISK_UNTIL, "slow_disk_restore",
                             node=_VICTIM)],
        duration=_SLOW_DISK_UNTIL,
        settle_limit=_SLOW_DISK_UNTIL + settle_limit)


class OverloadReport:
    """What one saturation run established, read off its finished cluster
    and workload."""

    def __init__(self, result: ScenarioResult):
        cluster, workload = result.cluster, result.scenario.workload
        flows = cluster.flows.values()
        self.verification = result.report
        self.offered = workload.offered
        self.accepted = sum(controller.accepted for controller in flows)
        self.rejected = sum(controller.rejected for controller in flows)
        self.rejected_by_reason: Dict[str, int] = dict(sum(
            (Counter(controller.rejected_by_reason) for controller in flows),
            Counter()))
        self.retries = workload.retries
        self.gave_up = workload.gave_up
        self.delivered = len(cluster.collector.first_delivery)
        self.slow_writes = \
            cluster.nodes[_VICTIM].storage.disk.injected["slow_write"]
        abcasts = cluster.abcasts.values()
        self.unordered_high_water = max(
            getattr(abcast, "unordered_high_water", 0) for abcast in abcasts)
        self.pending_high_water = max(
            getattr(abcast, "pending_high_water", 0) for abcast in abcasts)
        self.end_time = result.metrics.duration

    def describe(self) -> str:
        lines = [
            f"offered {self.offered} admission attempts "
            f"({_BURST} broadcasts + {self.retries} retries)",
            f"accepted {self.accepted}, rejected {self.rejected} "
            f"({dict(sorted(self.rejected_by_reason.items()))}), "
            f"gave up on {self.gave_up}",
            f"delivered {self.delivered} messages over "
            f"{self.verification.rounds} rounds "
            f"(settled at t={self.end_time:.3f})",
            f"gray failure: {self.slow_writes} slow writes on "
            f"node {_VICTIM}",
            f"queue high-water: unordered {self.unordered_high_water}, "
            f"pending {self.pending_high_water} "
            f"(bound {_FLOW['max_unordered']})",
        ]
        return "\n".join(lines)
