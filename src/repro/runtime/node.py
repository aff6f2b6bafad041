"""Crash-recovery process (node) abstraction.

A :class:`Node` models one process of the paper's system model
(Section 2.1):

* while *up* it runs tasks at its own speed;
* a *crash* wipes its volatile memory (tasks, message handlers, input
  buffer) but not its stable storage;
* a *recovery* re-runs every component's start hook — the paper's single
  "upon initialization or recovery" entry point — so initial start and
  recovery share one code path.

Protocol layers are :class:`NodeComponent` subclasses stacked on a node.
Components register message handlers and spawn tasks in ``on_start``;
both are torn down automatically on crash.

A node is runtime-agnostic: it runs unchanged on
:class:`~repro.runtime.sim.SimRuntime` (where "crash" is a bookkeeping
event in virtual time) and on :class:`~repro.runtime.live.LiveRuntime`
(where the harness additionally closes the node's UDP socket and reopens
its storage directory to emulate a real process kill).  The owning
runtime is stored under the historical attribute name ``sim``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, TYPE_CHECKING

from repro.errors import ProcessDown, SimulationError
from repro.runtime.api import Runtime
from repro.runtime.primitives import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.stable import StableStorage

__all__ = ["Node", "NodeComponent"]


class NodeComponent:
    """Base class for protocol layers stacked on a :class:`Node`.

    Lifecycle hooks (all optional to override):

    ``on_start()``
        Called when the node first starts *and* after every recovery.
        Register message handlers and spawn tasks here; rebuild volatile
        state from stable storage.
    ``on_crash()``
        Called at the instant of a crash, after tasks are killed and
        handlers cleared.  Drop volatile state here.
    """

    name = "component"

    def __init__(self) -> None:
        self.node: Optional[Node] = None

    def attach(self, node: "Node") -> None:
        """Bind the component to its node (called by ``Node.add_component``)."""
        self.node = node

    def on_start(self) -> None:
        """Initialisation/recovery hook (paper: 'upon initialization or recovery')."""

    def on_crash(self) -> None:
        """Crash hook: volatile state must be considered lost."""


class Node:
    """One crash-recovery process.

    Parameters
    ----------
    sim:
        The owning runtime.
    node_id:
        Dense integer identity (``0..n-1``).
    storage:
        The node's stable storage; survives crashes by construction.
    """

    def __init__(self, sim: Runtime, node_id: int,
                 storage: "StableStorage") -> None:
        self.sim = sim
        self.node_id = node_id
        self.storage = storage
        self.up = False
        self.components: List[NodeComponent] = []
        self._tasks: List[Task] = []
        self._handlers: Dict[str, Callable[[Any, int], None]] = {}
        # Link liveness, volatile like the handlers.  ``last_sent[peer]``
        # is when this node last handed the fair-loss medium anything
        # for ``peer``; the medium stamps it on each send.  Arrival
        # listeners hear the sender of every message :meth:`deliver`
        # consumes from another node.  Both are per node, not per stack:
        # groups that share a link share its liveness.
        self.last_sent: Dict[int, float] = {}
        self._arrival_listeners: List[Callable[[int], None]] = []
        self._started = False
        # Statistics for the harness.
        self.crash_count = 0
        self.recovery_count = 0
        self.recovery_times: List[float] = []
        self.last_up_at = 0.0
        self.total_uptime = 0.0
        self.recovery_durations: List[float] = []
        self._recovering_since: Optional[float] = None
        # Gray failure: a slow disk stalls the whole (single-threaded)
        # process.  While now < stall_until, inbound messages are
        # deferred, not dropped — equivalent to extra channel delay,
        # which the asynchronous model already permits.
        self.stall_until = 0.0

    # -- composition ---------------------------------------------------------

    def add_component(self, component: NodeComponent) -> NodeComponent:
        """Stack a protocol layer on this node (before :meth:`start`)."""
        if self._started:
            raise SimulationError(
                "components must be added before the node starts")
        component.attach(self)
        self.components.append(component)
        return component

    def get_component(self, cls: type) -> Any:
        """Return the first component of the given class (or raise)."""
        for component in self.components:
            if isinstance(component, cls):
                return component
        raise KeyError(f"node {self.node_id} has no component {cls.__name__}")

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Bring the node up for the first time."""
        if self._started:
            raise SimulationError(f"node {self.node_id} already started")
        self._started = True
        self.up = True
        self.last_up_at = self.sim.now
        for component in self.components:
            component.on_start()
        # Reported once every component is up: a start that a disk fault
        # cuts short is only a crash, and opens no delivery stream.
        self.sim.trace("node", self.node_id, "start")

    def crash(self) -> None:
        """Crash the node: kill tasks, clear handlers, lose volatile state."""
        if not self.up:
            return
        self.up = False
        self.crash_count += 1
        self.sim.trace("node", self.node_id, "crash")
        self.total_uptime += self.sim.now - self.last_up_at
        tasks, self._tasks = self._tasks, []
        for task in tasks:
            task.kill()
        self._handlers.clear()
        self.last_sent.clear()
        self._arrival_listeners.clear()
        self.stall_until = 0.0
        for component in self.components:
            component.on_crash()

    def recover(self) -> None:
        """Bring a crashed node back up and re-run every start hook."""
        if self.up:
            return
        if not self._started:
            raise SimulationError(f"node {self.node_id} never started")
        self.up = True
        self.recovery_count += 1
        self.recovery_times.append(self.sim.now)
        self.last_up_at = self.sim.now
        self._recovering_since = self.sim.now
        for component in self.components:
            component.on_start()
        self.sim.trace("node", self.node_id, "recover")
        if self._recovering_since is not None:
            self.recovery_durations.append(self.sim.now - self._recovering_since)
            self._recovering_since = None

    def mark_recovery_complete(self) -> None:
        """Record the end of the recovery procedure (replay finished).

        Components whose recovery work is asynchronous (e.g. the replay
        loop of the Atomic Broadcast layer) call this when they are caught
        up, so recovery-duration metrics reflect real replay time.
        """
        if self._recovering_since is not None:
            self.recovery_durations.append(self.sim.now - self._recovering_since)
            self._recovering_since = None

    # -- tasks ------------------------------------------------------------------

    def spawn(self, gen: Generator, name: str) -> Task:
        """Spawn a task that is automatically killed when the node crashes."""
        if not self.up:
            raise ProcessDown(f"node {self.node_id} is down")
        task = self.sim.spawn(gen, name=f"n{self.node_id}:{name}")
        self._tasks.append(task)
        if len(self._tasks) > 64:  # drop finished tasks opportunistically
            self._tasks = [t for t in self._tasks if t.alive]
        return task

    # -- message dispatch --------------------------------------------------------

    def register_handler(self, msg_type: str,
                         handler: Callable[[Any, int], None]) -> None:
        """Route incoming messages with ``msg.type == msg_type`` to ``handler``.

        Handlers run atomically with respect to each other and to task
        steps (the runtime is single-threaded), matching the paper's
        "statements associated with message receptions are executed
        atomically".
        """
        self._handlers[msg_type] = handler

    def add_arrival_listener(self, listener: Callable[[int], None]) -> None:
        """Call ``listener(sender)`` for every message consumed from
        another node, whatever its type — an arrival proves its sender
        was up a channel delay ago, which is all a heartbeat says.

        Registration is volatile, like a handler's: redo it in
        ``on_start``.
        """
        self._arrival_listeners.append(listener)

    def stall(self, duration: float) -> None:
        """Gray failure: freeze message processing for ``duration``.

        Stalls accumulate (a queue of slow disk writes pushes the horizon
        out further); a crash clears the stall with the rest of the
        volatile state.
        """
        if duration <= 0:
            return
        base = max(self.stall_until, self.sim.now)
        self.stall_until = base + duration

    def deliver(self, message: Any, sender: int) -> Optional[bool]:
        """Called by the transport when a message arrives.

        Messages arriving while the node is down are lost (Section 2.1).
        Returns ``True`` if the message was consumed, ``False`` if not,
        and ``None`` while the node is *stalled*: the process is slow,
        not crashed, so the transport presents the message again once
        the stall horizon passes
        (:func:`~repro.transport.network.present`), and it counts as an
        arrival only then.
        """
        if not self.up:
            return False
        if self.sim.now < self.stall_until:
            return None
        handler = self._handlers.get(message.type)
        if handler is None:
            return False
        if sender != self.node_id:
            for listener in self._arrival_listeners:
                listener(sender)
        handler(message, sender)
        return True

    # -- metrics -------------------------------------------------------------------

    def uptime(self) -> float:
        """Total time this node has spent up."""
        total = self.total_uptime
        if self.up:
            total += self.sim.now - self.last_up_at
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "down"
        return f"<Node {self.node_id} {state}>"
