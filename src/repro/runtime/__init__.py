"""Runtime abstraction: scheduler, tasks, processes, seeded randomness.

This package is the substrate every protocol layer is written against:

* :class:`~repro.runtime.api.Runtime` — the interface (clock, timers,
  task spawn/join, ``Event``/``Signal``/``AnyOf`` waiting, seeded RNG
  streams, and :meth:`~repro.runtime.api.Runtime.trace`, through which
  every layer reports its events to the one sink the harness attaches —
  the run's :class:`~repro.metrics.collector.MetricsCollector`).
* :class:`~repro.runtime.sim.SimRuntime` — the deterministic
  virtual-time implementation.
* :class:`~repro.runtime.node.Node` /
  :class:`~repro.runtime.node.NodeComponent` — the crash-recovery
  process model.
* :class:`~repro.runtime.rng.SeedSequence` — named seeded randomness.

The asyncio/UDP implementation lives in :mod:`repro.runtime.live` and
:mod:`repro.runtime.live_net`.  It is deliberately **not** imported here:
protocol modules import this package at module level, and keeping the
live modules out of the package root (a) keeps the deterministic import
surface free of wall-clock machinery, which the static analyzer scopes
differently (see docs/ANALYSIS.md), and (b) avoids an import cycle
(``live_net`` builds on ``repro.transport``, which itself builds on this
package).  Import them explicitly::

    from repro.runtime.live import LiveRuntime
    from repro.runtime.live_net import LiveNetwork
"""

from repro.runtime.api import Runtime, StorageFactory, TimerHandle, \
    TransportMedium
from repro.runtime.node import Node, NodeComponent
from repro.runtime.primitives import AnyOf, Event, Signal, Task
from repro.runtime.rng import SeedSequence
from repro.runtime.sim import SimRuntime, Timer

__all__ = [
    "AnyOf",
    "Event",
    "Node",
    "NodeComponent",
    "Runtime",
    "SeedSequence",
    "Signal",
    "SimRuntime",
    "StorageFactory",
    "Task",
    "Timer",
    "TimerHandle",
    "TransportMedium",
]
