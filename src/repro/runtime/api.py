"""The :class:`Runtime` interface: everything protocols take from a scheduler.

The protocol layers (``repro.core``, ``repro.consensus``, ``repro.quorum``,
``repro.multigroup``) were written against the discrete-event simulator.
This module names the exact contract they actually use so the same code
can run on more than one substrate:

* a **clock** (:attr:`Runtime.now`) and **timers**
  (:meth:`Runtime.schedule` / :meth:`Runtime.call_soon`);
* **task** spawn/join (:meth:`Runtime.spawn`, generator-based
  :class:`~repro.runtime.primitives.Task`);
* **waiting** primitives (:meth:`Runtime.event`, :meth:`Runtime.signal`,
  :class:`~repro.runtime.primitives.AnyOf`);
* **seeded randomness** (:meth:`Runtime.rng` — named streams derived
  from one root seed);
* one **event sink** (:meth:`Runtime.trace`): every layer reports
  what it did through it.

Two implementations exist:

* :class:`~repro.runtime.sim.SimRuntime` — the deterministic virtual-time
  scheduler (the paper-faithful simulator; byte-for-byte reproducible).
* :class:`~repro.runtime.live.LiveRuntime` — a real asyncio event loop
  with wall-clock timers and localhost UDP transport
  (:mod:`repro.runtime.live_net`).

The two remaining dependencies of a protocol stack — the **stable-storage
handle** and the **transport endpoint** — are per-node, not per-runtime:
storage is injected into each :class:`~repro.runtime.node.Node` (a
:data:`StorageFactory`), and :class:`~repro.transport.endpoint.Endpoint`
is constructed over any object satisfying :class:`TransportMedium`
(simulated :class:`~repro.transport.network.Network` or UDP-backed
:class:`~repro.runtime.live_net.LiveNetwork`).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional, Tuple

from repro.runtime.primitives import Event, Signal, Task
from repro.runtime.rng import SeedSequence

if TYPE_CHECKING:  # type-only: storage/transport sit above the runtime
    from repro.metrics.collector import MetricsCollector
    from repro.storage.stable import StableStorage

try:  # typing.Protocol: 3.8+; guarded anyway so the module stays portable
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - ancient interpreters only
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

__all__ = ["Runtime", "TimerHandle", "TransportMedium", "StorageFactory"]


@runtime_checkable
class TimerHandle(Protocol):
    """What :meth:`Runtime.schedule` returns: a cancellable timer.

    The simulator returns its heap entry
    (:class:`~repro.runtime.sim.Timer`); the live runtime returns an
    :class:`asyncio.TimerHandle`.  Protocol code only ever cancels them.
    """

    def cancel(self) -> None: ...


@runtime_checkable
class TransportMedium(Protocol):
    """The fair-loss channel contract the transport endpoint builds on.

    Section 3.1 of the paper: unreliable, non-FIFO, fair channels between
    every pair of processes.  Implementations: simulated
    :class:`~repro.transport.network.Network` and UDP
    :class:`~repro.runtime.live_net.LiveNetwork`.

    A fair-loss medium's ``send`` also stamps the sending node's
    :attr:`~repro.runtime.node.Node.last_sent` for the destination — the
    clock the failure detector reads to find links that need an explicit
    heartbeat.  Over a medium that never stamps, the detector simply
    beats every period.

    ``message`` may be a :class:`~repro.transport.message.Packet`: a
    frame and its rider, sent, lost, duplicated and delayed as one, the
    rider handed to the receiver first.
    """

    def register(self, node: Any) -> None: ...

    def node_ids(self) -> Tuple[int, ...]: ...

    def send(self, src: int, dst: int, message: Any) -> None: ...

    def multisend(self, src: int, message: Any,
                  targets: Optional[Tuple[int, ...]] = None) -> None: ...


# Per-node stable storage injection: ``factory(node_id) -> StableStorage``.
StorageFactory = Callable[[int], "StableStorage"]


class Runtime(ABC):
    """Abstract scheduler: clock + timers + tasks + waiting + seeded RNG.

    Subclasses provide the clock and the callback queue; everything else
    (tasks, events, signals) is built here from those two operations, so
    the concurrency semantics protocols observe are identical on every
    implementation.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seeds = SeedSequence(seed)
        # The run's event sink; self.trace(...) no-ops while it is unset.
        self.sink: Optional["MetricsCollector"] = None

    # -- clock -------------------------------------------------------------

    @property
    @abstractmethod
    def now(self) -> float:
        """Current time (virtual seconds on sim, wall seconds on live)."""

    # -- scheduling ---------------------------------------------------------

    @abstractmethod
    def schedule(self, delay: float, callback: Callable,
                 *args: Any) -> TimerHandle:
        """Run ``callback(*args)`` after ``delay`` time units."""

    @abstractmethod
    def call_soon(self, callback: Callable, *args: Any) -> TimerHandle:
        """Run ``callback(*args)`` as soon as possible, after the
        currently-executing callback returns."""

    def spawn(self, gen: Generator, name: str = "task") -> Task:
        """Start a new task from a generator and schedule its first step."""
        task = Task(self, gen, name)
        self.call_soon(task._resume, None)
        return task

    def event(self, name: str = "") -> Event:
        """Create a fresh one-shot event bound to this runtime."""
        return Event(self, name)

    def signal(self, name: str = "") -> Signal:
        """Create a fresh multi-fire signal bound to this runtime."""
        return Signal(self, name)

    # -- seeded randomness ---------------------------------------------------

    def rng(self, name: str) -> random.Random:
        """The named seeded random stream (memoised per name)."""
        return self.seeds.stream(name)

    # -- events ---------------------------------------------------------------

    def trace(self, category: str, node: int, action: str, *fields: Any,
              **details: Any) -> None:
        """Report one protocol event to the sink, if one is attached.

        ``broadcast``, ``deliver/apply``, ``decision`` and ``view`` take
        positional ``fields`` (:data:`repro.metrics.collector.FIELDS`);
        the others take keyword ``details``, some of which the sink
        archives too.
        """
        sink = self.sink
        if sink is not None:
            sink.record(self.now, category, node, action, fields, details)
