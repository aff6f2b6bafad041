"""Nemeses: composable planners of adversity.

A nemesis turns a seeded RNG into a list of
:class:`~repro.chaos.events.ChaosEvent` — it *plans* faults, it never
touches a cluster (the controller applies events).  Keeping planning
pure means a scenario's full fault timeline exists up front, can be
printed for reproduction, and composes: the engine concatenates the
plans of every enabled nemesis and sorts by time.

Each nemesis draws from the single scenario RNG it is handed, in a fixed
order, so the composed timeline is a pure function of the seed.

Planned faults respect the paper's fairness assumptions by
construction: every partition heals, every loss burst ends, crashed
nodes are eventually recovered (by plan or by the controller's finish
phase), so the *model* stays one under which the protocols are supposed
to be live — what chaos tests is whether the implementation actually is.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.chaos.events import ChaosEvent

__all__ = ["ClockJumpNemesis", "CrashStormNemesis", "DiskFaultNemesis",
           "LimpingNodeNemesis", "LossBurstNemesis",
           "MembershipChurnNemesis", "Nemesis", "PartitionNemesis",
           "SaturationNemesis", "SlowDiskNemesis", "default_nemeses",
           "overload_nemeses"]


class Nemesis:
    """Base planner.  ``runtimes`` limits where a nemesis makes sense."""

    name = "nemesis"
    runtimes: Tuple[str, ...] = ("sim", "live")

    def plan(self, rng: random.Random, node_ids: Sequence[int],
             horizon: float) -> List[ChaosEvent]:
        """Produce this nemesis's events for one scenario."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__}>"


class CrashStormNemesis(Nemesis):
    """Crash/recover waves: up to ``max_victims`` nodes per wave.

    Victims of one wave crash at staggered instants and recover after
    individual downtimes — covering single failures, rolling restarts
    and simultaneous majority loss.
    """

    name = "crash"

    def __init__(self, waves: Tuple[int, int] = (1, 3),
                 downtime: Tuple[float, float] = (0.5, 3.0),
                 max_victims: int = 2):
        self.waves = waves
        self.downtime = downtime
        self.max_victims = max_victims

    def plan(self, rng: random.Random, node_ids: Sequence[int],
             horizon: float) -> List[ChaosEvent]:
        events: List[ChaosEvent] = []
        for _ in range(rng.randint(*self.waves)):
            start = rng.uniform(0.1 * horizon, 0.7 * horizon)
            victims = rng.sample(list(node_ids),
                                 rng.randint(1, min(self.max_victims,
                                                    len(node_ids))))
            for victim in victims:
                at = start + rng.uniform(0.0, 0.2)
                down = rng.uniform(*self.downtime)
                events.append(ChaosEvent(at, "crash", node=victim))
                events.append(ChaosEvent(at + down, "recover", node=victim))
        return events


class PartitionNemesis(Nemesis):
    """Isolate a minority for a window, then heal (sim link matrix only)."""

    name = "partition"
    runtimes = ("sim",)

    def __init__(self, windows: Tuple[int, int] = (1, 2),
                 duration: Tuple[float, float] = (0.5, 2.5)):
        self.windows = windows
        self.duration = duration

    def plan(self, rng: random.Random, node_ids: Sequence[int],
             horizon: float) -> List[ChaosEvent]:
        events: List[ChaosEvent] = []
        minority = max(1, (len(node_ids) - 1) // 2)
        for _ in range(rng.randint(*self.windows)):
            start = rng.uniform(0.1 * horizon, 0.6 * horizon)
            isolated = tuple(sorted(rng.sample(list(node_ids),
                                               rng.randint(1, minority))))
            events.append(ChaosEvent(start, "partition", isolated=isolated))
            events.append(ChaosEvent(
                start + rng.uniform(*self.duration), "heal_all"))
        return events


class LossBurstNemesis(Nemesis):
    """Raise the channel loss rate sharply for a bounded window."""

    name = "loss"

    def __init__(self, bursts: Tuple[int, int] = (1, 2),
                 rate: Tuple[float, float] = (0.2, 0.5),
                 duration: Tuple[float, float] = (0.5, 2.0)):
        self.bursts = bursts
        self.rate = rate
        self.duration = duration

    def plan(self, rng: random.Random, node_ids: Sequence[int],
             horizon: float) -> List[ChaosEvent]:
        events: List[ChaosEvent] = []
        for _ in range(rng.randint(*self.bursts)):
            start = rng.uniform(0.05 * horizon, 0.7 * horizon)
            events.append(ChaosEvent(
                start, "loss", rate=round(rng.uniform(*self.rate), 3)))
            events.append(ChaosEvent(
                start + rng.uniform(*self.duration), "loss_restore"))
        return events


class DiskFaultNemesis(Nemesis):
    """Arm torn/failed writes that crash their victim mid-``log``.

    The actual crash happens when the victim next writes (the armed
    :class:`~repro.storage.disk.SimDisk` raises out of the journal
    append); the controller catches the injected fault, crashes
    the node and schedules its recovery after ``downtime`` — modelling a
    power cut at the worst instant of the write path.  Sim only: on the
    live runtime the exception would be swallowed by the event loop's
    error trap instead of unwinding the victim deterministically.
    """

    name = "disk"
    runtimes = ("sim",)

    def __init__(self, faults: Tuple[int, int] = (1, 2),
                 downtime: Tuple[float, float] = (0.5, 2.0),
                 torn_probability: float = 0.6):
        self.faults = faults
        self.downtime = downtime
        self.torn_probability = torn_probability

    def plan(self, rng: random.Random, node_ids: Sequence[int],
             horizon: float) -> List[ChaosEvent]:
        events: List[ChaosEvent] = []
        for _ in range(rng.randint(*self.faults)):
            at = rng.uniform(0.1 * horizon, 0.7 * horizon)
            victim = rng.choice(list(node_ids))
            mode = "torn" if rng.random() < self.torn_probability else "fail"
            events.append(ChaosEvent(
                at, "torn_write", node=victim, mode=mode,
                downtime=round(rng.uniform(*self.downtime), 3)))
        return events


class ClockJumpNemesis(Nemesis):
    """Jump the live runtime's clock forward (NTP step / VM pause skew).

    Timers already armed keep their real delays; everything that *reads*
    the clock — failure-detector timeouts, adaptive estimates — sees the
    jump.  Live only: the simulator's virtual clock *is* the event
    order, so jumping it would change the scenario rather than stress
    the implementation.
    """

    name = "clock"
    runtimes = ("live",)

    def __init__(self, jumps: Tuple[int, int] = (1, 2),
                 delta: Tuple[float, float] = (0.5, 2.0)):
        self.jumps = jumps
        self.delta = delta

    def plan(self, rng: random.Random, node_ids: Sequence[int],
             horizon: float) -> List[ChaosEvent]:
        events: List[ChaosEvent] = []
        for _ in range(rng.randint(*self.jumps)):
            events.append(ChaosEvent(
                rng.uniform(0.1 * horizon, 0.8 * horizon), "clock_jump",
                delta=round(rng.uniform(*self.delta), 3)))
        return events


class MembershipChurnNemesis(Nemesis):
    """Elastic reconfiguration under fire: ordered joins, leaves, evictions.

    Joins bring brand-new node ids (``max(node_ids)+1`` onward) into the
    view by state transfer; removals shrink the view through ordered
    ``leave``/``evict`` commands but never plan away more than
    ``len(node_ids) - min_survivors`` of the original members (the
    controller additionally refuses to shrink a view below two).  Joins
    are planned early and removals late so a joiner usually has a
    running view to transfer from before the cluster contracts around
    it.

    **Opt-in by design** — never part of :func:`default_nemeses`:
    inserting it into the battery would shift every nemesis-selection
    and planning draw, silently changing the fault timeline of every
    existing seed.  Enable it via ``ChaosConfig(churn=True)`` or by
    passing an explicit ``nemeses`` list.
    """

    name = "churn"
    runtimes = ("sim",)

    def __init__(self, joins: Tuple[int, int] = (1, 2),
                 removals: Tuple[int, int] = (1, 2),
                 evict_probability: float = 0.5,
                 min_survivors: int = 2):
        self.joins = joins
        self.removals = removals
        self.evict_probability = evict_probability
        self.min_survivors = min_survivors

    def plan(self, rng: random.Random, node_ids: Sequence[int],
             horizon: float) -> List[ChaosEvent]:
        events: List[ChaosEvent] = []
        base = max(node_ids) + 1
        for index in range(rng.randint(*self.joins)):
            events.append(ChaosEvent(
                rng.uniform(0.15 * horizon, 0.45 * horizon), "join",
                node=base + index))
        removable = max(0, len(node_ids) - self.min_survivors)
        count = min(rng.randint(*self.removals), removable)
        victims = rng.sample(list(node_ids), count) if count else []
        for victim in victims:
            kind = "evict" if rng.random() < self.evict_probability \
                else "leave"
            events.append(ChaosEvent(
                rng.uniform(0.4 * horizon, 0.7 * horizon), kind,
                node=victim))
        return events


class SaturationNemesis(Nemesis):
    """Open-loop offered load beyond capacity (gray failure: overload).

    Plans dense bursts of ``submit`` events — the client does *not* wait
    for deliveries, so with admission control enabled the excess is
    rejected and counted, and without it the volatile buffers absorb the
    spike.  Payloads are tagged ``sat-`` so overload traffic is
    distinguishable from the scenario's steady workload.

    **Opt-in by design** (like membership churn): never part of
    :func:`default_nemeses`, because inserting it would shift every
    planning draw of every existing chaos seed.  Enable it via
    ``ChaosConfig(overload=True)`` or an explicit ``nemeses`` list.
    """

    name = "saturation"

    def __init__(self, bursts: Tuple[int, int] = (1, 2),
                 size: Tuple[int, int] = (30, 80),
                 spread: Tuple[float, float] = (0.2, 0.8)):
        self.bursts = bursts
        self.size = size
        self.spread = spread

    def plan(self, rng: random.Random, node_ids: Sequence[int],
             horizon: float) -> List[ChaosEvent]:
        events: List[ChaosEvent] = []
        serial = 0
        for _ in range(rng.randint(*self.bursts)):
            start = rng.uniform(0.1 * horizon, 0.6 * horizon)
            spread = rng.uniform(*self.spread)
            target = rng.choice(list(node_ids))
            for _ in range(rng.randint(*self.size)):
                events.append(ChaosEvent(
                    start + rng.uniform(0.0, spread), "submit",
                    node=target, payload=f"sat-{target}-{serial}"))
                serial += 1
        return events


class SlowDiskNemesis(Nemesis):
    """A limping disk: seeded per-write latency on one victim's storage.

    Applying ``slow_disk`` calls ``SimDisk.set_latency``; every
    subsequent journal append succeeds but stalls the victim's whole process
    for the drawn duration (``Node.stall`` defers its inbound messages),
    modelling a single-threaded server blocked in fsync.  The disk heals
    at ``slow_disk_restore``.  Sim only, like the other disk faults.

    **Opt-in by design** — see :class:`SaturationNemesis`.
    """

    name = "slow_disk"
    runtimes = ("sim",)

    def __init__(self, episodes: Tuple[int, int] = (1, 2),
                 latency: Tuple[float, float] = (0.05, 0.4),
                 duration: Tuple[float, float] = (1.0, 3.0)):
        self.episodes = episodes
        self.latency = latency
        self.duration = duration

    def plan(self, rng: random.Random, node_ids: Sequence[int],
             horizon: float) -> List[ChaosEvent]:
        events: List[ChaosEvent] = []
        for _ in range(rng.randint(*self.episodes)):
            start = rng.uniform(0.1 * horizon, 0.6 * horizon)
            victim = rng.choice(list(node_ids))
            low = round(rng.uniform(*self.latency), 3)
            high = round(low + rng.uniform(0.0, self.latency[1]), 3)
            events.append(ChaosEvent(start, "slow_disk", node=victim,
                                     low=low, high=high))
            events.append(ChaosEvent(
                start + rng.uniform(*self.duration), "slow_disk_restore",
                node=victim))
        return events


class LimpingNodeNemesis(Nemesis):
    """A slow-but-alive peer: constant extra delay on its every message.

    The victim keeps participating — late.  Its delayed heartbeats
    stress the failure detector's adaptive timeouts (suspect, refute,
    widen) and its late votes hold back the rounds it takes part in.
    Heals at ``limp_restore``.  Sim only: the delay is injected in the
    simulated network's delay draw.

    **Opt-in by design** — see :class:`SaturationNemesis`.
    """

    name = "limp"
    runtimes = ("sim",)

    def __init__(self, episodes: Tuple[int, int] = (1, 2),
                 extra: Tuple[float, float] = (0.5, 2.5),
                 duration: Tuple[float, float] = (1.0, 3.0)):
        self.episodes = episodes
        self.extra = extra
        self.duration = duration

    def plan(self, rng: random.Random, node_ids: Sequence[int],
             horizon: float) -> List[ChaosEvent]:
        events: List[ChaosEvent] = []
        for _ in range(rng.randint(*self.episodes)):
            start = rng.uniform(0.1 * horizon, 0.6 * horizon)
            victim = rng.choice(list(node_ids))
            events.append(ChaosEvent(
                start, "limp", node=victim,
                extra=round(rng.uniform(*self.extra), 3)))
            events.append(ChaosEvent(
                start + rng.uniform(*self.duration), "limp_restore",
                node=victim))
        return events


def default_nemeses(runtime: str) -> List[Nemesis]:
    """The standard battery applicable to one runtime.

    :class:`MembershipChurnNemesis` is deliberately absent — membership
    churn is opt-in so the seed-to-timeline mapping of every existing
    chaos scenario stays stable.
    """
    battery: List[Nemesis] = [CrashStormNemesis(), PartitionNemesis(),
                              LossBurstNemesis(), DiskFaultNemesis(),
                              ClockJumpNemesis()]
    return [nemesis for nemesis in battery if runtime in nemesis.runtimes]


def overload_nemeses(runtime: str) -> List[Nemesis]:
    """The opt-in gray-failure battery (overload + slow disk + limp).

    Appended *after* the default battery when enabled
    (``ChaosConfig(overload=True)``), so the default scenario family's
    draw order — and therefore every legacy seed's timeline — is only
    extended, never reshuffled.
    """
    battery: List[Nemesis] = [SaturationNemesis(), SlowDiskNemesis(),
                              LimpingNodeNemesis()]
    return [nemesis for nemesis in battery if runtime in nemesis.runtimes]
