"""Seeded chaos engine: manufacture failure scenarios, check the paper.

The crash-recovery model of the paper is defined by what it survives:
processes that crash and recover with amnesia, channels that lose and
duplicate, storage that is only as stable as its ``log`` discipline.
This package generates those adversities *systematically* — composable
:mod:`nemeses <repro.chaos.nemesis>` plan seeded fault timelines
(crash storms, partitions, loss bursts, disk faults, clock skew), a
:mod:`controller <repro.chaos.controller>` applies them to a running
cluster on either runtime, and the :mod:`engine <repro.chaos.engine>`
explores N seeds, verifying every run against the full
Validity/Integrity/Total-Order/Termination predicate set of
:func:`~repro.harness.verify.verify_run`.

Every run is a pure function of its seed: a failing seed re-runs with
its exact fault timeline printed (``repro chaos --reproduce SEED``).

Only the harness-independent pieces are imported here (the event
vocabulary, the nemesis planners and the fault wiring with its schedule
front-ends).  The controller and engine build clusters and pull in the
whole harness; import them explicitly::

    from repro.chaos.engine import ChaosConfig, explore, reproduce
    from repro.chaos.controller import SimChaosController
"""

from repro.chaos.events import ChaosEvent, format_timeline
from repro.chaos.inject import (FaultEvent, FaultSchedule,
                                PartitionSchedule, RandomFaults, cut_off,
                                install_timeline, rejoin)
from repro.chaos.nemesis import (ClockJumpNemesis, CrashStormNemesis,
                                 DiskFaultNemesis, LossBurstNemesis,
                                 MembershipChurnNemesis, Nemesis,
                                 PartitionNemesis, default_nemeses)

__all__ = [
    "ChaosEvent",
    "ClockJumpNemesis",
    "CrashStormNemesis",
    "DiskFaultNemesis",
    "FaultEvent",
    "FaultSchedule",
    "LossBurstNemesis",
    "MembershipChurnNemesis",
    "Nemesis",
    "PartitionNemesis",
    "PartitionSchedule",
    "RandomFaults",
    "cut_off",
    "default_nemeses",
    "format_timeline",
    "install_timeline",
    "rejoin",
]
