"""The canonical membership-churn scenario: grow, storm, shrink, verify.

One seeded timeline exercises the whole elastic-reconfiguration surface
in a single run of :func:`~repro.harness.scenario.run_scenario`:

* start at ``n = 5`` on the alternative protocol (the one with the
  checkpoint/STATE machinery joins bootstrap from);
* **grow to 7**: two brand-new nodes join by state transfer — each
  gossips the ``k = -1`` joining sentinel until a member answers with a
  ``StateMessage``, adopts the agreed prefix, seals the transfer point
  durably and only then starts proposing;
* **crash storm**: two original members crash mid-run; node 2 is
  evicted *while down* and later recovers as an evicted-but-up process
  (it keeps draining its backlog to the members but no longer counts),
  node 3 recovers first and is evicted — which crashes it — later;
* **shrink to 4**: with node 4's leave, ``{0, 1, joiner, joiner}`` is
  the final view;
* the runner settles and runs the full
  :func:`~repro.harness.verify.verify_run` predicate set — uniform total
  order spanning every epoch, joiners delivering the complete suffix
  from their transfer point, termination restricted to the final view's
  members, no member still joining.

Everything is a pure function of the seed, so
:func:`~repro.harness.scenario.check_reproducible` re-runs the same seed
and demands a bit-identical signature, view installs included — the
reconfiguration path must be as deterministic as the ordering path it
rides on.
"""

from __future__ import annotations

from typing import List, Optional

from repro.chaos.events import ChaosEvent
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import Scenario, ScenarioResult

__all__ = ["ChurnReport", "churn_scenario"]


def _sim_timeline(seed: int) -> List[ChaosEvent]:
    # Warm-up workload so the joiners have real history to transfer.
    events = [ChaosEvent(0.0, "submit", node=index % 5,
                         payload=f"churn-{seed}-pre-{index}")
              for index in range(5)]
    # Grow 5 -> 7: both joins are ordered commands; the joiners
    # bootstrap from whichever member answers their sentinel first.
    events += [ChaosEvent(2.0, "join", node=joiner) for joiner in (5, 6)]
    events += [ChaosEvent(2.0, "submit", node=index % 5,
                          payload=f"churn-{seed}-mid-{index}")
               for index in range(3)]
    # Crash storm over the shrink: node 2 is evicted *while crashed*
    # (the command outlives the victim), node 3 recovers before its
    # eviction, node 4 leaves gracefully.
    events += [ChaosEvent(6.0, "crash", node=2),
               ChaosEvent(6.0, "crash", node=3),
               ChaosEvent(7.0, "evict", node=2),
               ChaosEvent(8.0, "recover", node=2),
               ChaosEvent(8.0, "recover", node=3),
               ChaosEvent(9.0, "evict", node=3),
               ChaosEvent(9.0, "leave", node=4)]
    # Post-shrink workload, including a submission through a joiner —
    # by now a first-class member whose sequencer turn must come around.
    events += [ChaosEvent(9.0, "submit", node=index % 2,
                          payload=f"churn-{seed}-post-{index}")
               for index in range(3)]
    events.append(ChaosEvent(9.0, "submit", node=5,
                             payload=f"churn-{seed}-joiner"))
    return events


def _live_timeline(seed: int) -> List[ChaosEvent]:
    events = [ChaosEvent(0.0, "submit", node=index % 3,
                         payload=f"churn-live-{seed}-{index}")
              for index in range(3)]
    return events + [ChaosEvent(1.0, "join", node=3),
                     ChaosEvent(3.0, "leave", node=0),
                     ChaosEvent(3.0, "submit", node=1,
                                payload=f"churn-live-{seed}-post")]


def churn_scenario(seed: int = 0, runtime: str = "sim",
                   settle_limit: float = 300.0,
                   directory: Optional[str] = None) -> Scenario:
    """The scripted churn scenario for one seed.

    ``runtime="sim"`` is the full 5 -> 7 -> 4 timeline on virtual time;
    ``runtime="live"`` a smaller 3 -> 4 -> 3 variant over real UDP and
    files.  The run must settle within ``settle_limit`` seconds of the
    timeline's end (wall-clock seconds on live — pass something like 30).
    """
    n, timeline = (5, _sim_timeline(seed)) if runtime == "sim" \
        else (3, _live_timeline(seed))
    duration = timeline[-1].time
    return Scenario(ClusterConfig(n=n, seed=seed, protocol="alternative"),
                    runtime=runtime, timeline=timeline, duration=duration,
                    settle_limit=duration + settle_limit,
                    directory=directory)


class ChurnReport:
    """What one churn run established, read off its finished cluster."""

    def __init__(self, result: ScenarioResult):
        cluster = result.cluster
        self.verification = result.report
        self.final_view = cluster.current_view()
        self.joiners = [event.node for event in result.timeline
                        if event.kind == "join"]
        self.view_installs = list(cluster.collector.view_installs)
        self.transfers_adopted = sum(
            cluster.abcasts[joiner].state_transfers_adopted
            for joiner in self.joiners)
        self.delivered = len(cluster.collector.first_delivery)

    def describe(self) -> str:
        lines = [f"final view: epoch {self.final_view.epoch} "
                 f"members {list(self.final_view.members)}",
                 f"joiners {self.joiners} adopted "
                 f"{self.transfers_adopted} state transfer(s)",
                 f"{self.delivered} messages ordered over "
                 f"{self.verification.rounds} rounds",
                 "view timeline:"]
        for node_id, epoch, members, time, origin in self.view_installs:
            lines.append(f"  t={time:7.3f}  node={node_id}  "
                         f"epoch={epoch}  members={list(members)}  "
                         f"({origin})")
        return "\n".join(lines)
