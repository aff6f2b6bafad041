"""The six workloads and the open-loop request schedule they run.

A workload is plain data: which runtime, protocol and cluster size, the
offered rate, the fault schedule.  :func:`make_schedule` turns one into
an explicit ``(time, node, payload)`` list from ``--seed``; the program
under test only ever sees that list.  Nothing here imports ``repro``.
"""

from __future__ import annotations

import random
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

# Sizes below are quoted for this --seconds value (BENCHMARK.json's
# run_seconds).  Live workloads offer load for --seconds wall seconds;
# sim workloads simulate ``virtual_s * seconds / FULL_SECONDS`` virtual
# seconds, so a sim run is a pure function of (seed, seconds).
FULL_SECONDS = 15.0

PAYLOAD_BYTES = 128

# A request is never routed to a node that crashes within this long
# after it is due: the sender must get one gossip round out first.
DRAIN_S = 0.5


class Outage(NamedTuple):
    node: int
    down_at: float
    up_at: float


class Workload(NamedTuple):
    name: str
    why: str
    runtime: str                 # "sim" | "live"
    protocol: str                # ClusterConfig.protocol
    n: int
    rate: float                  # offered msgs/s, whole cluster
    virtual_s: float = 0.0       # sim only: virtual seconds at FULL_SECONDS
    loss_rate: float = 0.0
    checkpoint_interval: Optional[float] = None   # alternative protocol only
    outages: Callable[[float], List[Outage]] = lambda duration: []
    start: float = 0.0           # when the first request may be due

    def duration(self, seconds: float) -> float:
        """Length of the request schedule for a ``--seconds`` value."""
        if self.runtime == "live":
            return float(seconds)
        return self.virtual_s * seconds / FULL_SECONDS


def rolling_outages(duration: float) -> List[Outage]:
    """One node down at a time: 6 s down, 6 s apart, the third for 30 s.

    The long outage outlives several checkpoints, so the node comes back
    behind the others' log truncation and must take a state transfer.
    Outages that would not leave 4 s of requests after the recovery (to
    time the rejoin) are dropped, which is how short runs shrink.
    """
    order = (1, 0, 3, 2, 4, 1, 0, 3)
    outages: List[Outage] = []
    at = duration / 8.0
    for index, node in enumerate(order):
        down = 30.0 if index == 2 else 6.0
        if at + down + 4.0 > duration:
            break
        outages.append(Outage(node, at, at + down))
        at += down + 6.0
    return outages


def kill_restart_outages(duration: float) -> List[Outage]:
    """Kill a follower, the leader (node 0), then another follower.

    At FULL_SECONDS: kills at 1.25/6.25/11.25 s, each restarted 2.5 s
    later.  The quarter seconds matter.  Heartbeats and suspicion checks
    both tick every ``fd_period`` = 0.5 s from a node's (re)start, the
    first request is due two ticks after the start, and ``fd_timeout``
    = 2.0 s is a whole number of ticks: with kills and restarts *on* a
    tick, whether the victim's last heartbeat got out, and whether a
    check sees 2.0 or 2.5 s of silence, is decided by microseconds, and
    the service gap after the leader's death comes out as 1.75 or
    2.25 s by the toss of a coin.  Off the tick by a quarter second,
    node 1 (restarted at 3.75 s, so its checks fall between node 0's
    heartbeats) suspects the dead leader 2.0 s after the kill, every
    time, and node 0 comes back only once node 1 leads.  The 2.5 s
    between a restart and the next kill lets the node rejoin (~1.5 s)
    first: killing the leader while the only other node is still
    replaying stretches the service gap past the datagram-size cliff
    (bench/README.md).  Shorter runs scale every time.
    """
    scale = duration / FULL_SECONDS
    return [Outage(node, at * scale, (at + 2.5) * scale)
            for node, at in ((1, 1.25), (0, 6.25), (2, 11.25))]


# Simulated requests start at virtual t=1, once every node has started;
# live ones right after the warm-up.
WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "sim-n1-floor",
        "single node, no network or quorum wait: the floor of "
        "runtime+core+consensus+storage cost; fan-out and wire changes "
        "must predict no change here",
        "sim", "basic", n=1, rate=40.0, virtual_s=1000.0, start=1.0),
    Workload(
        "sim-n3-steady",
        "the common deployment at a rate where rounds batch (~25 "
        "msgs/instance): consensus and core ordering do most of the "
        "work; shows batching, phase-1 skipping and pipelining",
        "sim", "basic", n=3, rate=120.0, virtual_s=900.0, start=1.0),
    Workload(
        "sim-n25-fanout",
        "the roadmap's scaling pathology (~110 messages and ~170 KB "
        "per delivery, mostly ab.gossip and fd.alive): transport and "
        "core gossip do most of the work, consensus little",
        "sim", "basic", n=25, rate=50.0, virtual_s=100.0, start=1.0),
    Workload(
        "sim-n5-crash-recovery",
        "the paper's section 5 under 5% loss and rolling outages: "
        "checkpoints, log truncation, state transfer, recovery replay; "
        "requests stay due through each outage",
        "sim", "alternative", n=5, rate=50.0, virtual_s=160.0,
        loss_rate=0.05, checkpoint_interval=2.0, outages=rolling_outages,
        start=1.0),
    Workload(
        "live-n3-loaded",
        "asyncio+UDP+FileStorage at 300 msg/s: the only steady workload "
        "where the wire codec, datagram coalescing, stubborn batching "
        "and group commit execute at all",
        "live", "basic", n=3, rate=300.0),
    Workload(
        "live-n3-kill-restart",
        "crash-recovery against real files: FileStorage reopen, journal "
        "and round replay, stubborn retransmission to a returning peer, "
        "re-election when the leader dies",
        "live", "basic", n=3, rate=70.0, outages=kill_restart_outages),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r}; pick one of "
                   f"{[w.name for w in WORKLOADS]}")


def payload_for(seed: int, index: int) -> str:
    """Unique 128-byte ASCII payload."""
    return f"s{seed}-r{index:07d}-".ljust(PAYLOAD_BYTES, "x")


def eligible(node: int, when: float, outages: Sequence[Outage]) -> bool:
    """Up at ``when`` and not crashing within the next DRAIN_S."""
    return not any(outage.node == node
                   and outage.down_at - DRAIN_S <= when < outage.up_at
                   for outage in outages)


class Schedule(NamedTuple):
    plan: List[Tuple[float, int, str]]    # (due, node, payload), by due
    outages: List[Outage]
    duration: float                       # requests are due in [start, end)
    end: float


def make_schedule(workload: Workload, seed: int,
                  seconds: float) -> Schedule:
    """Poisson arrivals at the cluster rate, routed round-robin.

    The arrivals are a Poisson process conditioned on its count
    (``rate * duration`` independent uniform times), so every seed
    attempts the same number of requests.  The round-robin skips nodes
    the drain rule excludes, so every due request is attempted on a
    node that can still disseminate it.
    """
    rng = random.Random(f"bench-schedule:{seed}")
    duration = workload.duration(seconds)
    outages = workload.outages(duration)
    end = workload.start + duration
    plan: List[Tuple[float, int, str]] = []
    cursor = 0
    for when in sorted(rng.uniform(workload.start, end)
                       for _ in range(round(workload.rate * duration))):
        for _ in range(workload.n):
            node = cursor % workload.n
            cursor += 1
            if eligible(node, when, outages):
                break
        else:
            raise ValueError(f"no node can take the request due at {when}")
        plan.append((when, node, payload_for(seed, len(plan))))
    return Schedule(plan, outages, duration, end)
