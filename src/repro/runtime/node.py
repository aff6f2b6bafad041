"""Crash-recovery process (node) abstraction.

A :class:`Node` models one process of the paper's system model
(Section 2.1):

* while *up* it runs tasks at its own speed;
* a *crash* wipes its volatile memory (tasks, message handlers, input
  buffer) but not its stable storage: a store with a disk is reopened
  from what the disk kept, a store without one survives as an object;
* a *recovery* re-runs every component's start hook — the paper's single
  "upon initialization or recovery" entry point — so initial start and
  recovery share one code path;
* its code runs in *turns* — one handler call (:meth:`Node.deliver`),
  one step of a task from :meth:`Node.spawn`, or the start hooks of
  :meth:`Node.start` and :meth:`Node.recover`.  On a store with a disk
  a turn is one write barrier, and the frames it sends leave only once
  that barrier has committed (:meth:`Node._turn`), so the paper's
  log-before-send discipline (Section 4.2) holds whatever the order of
  ``log`` and ``send`` inside the code.

Protocol layers are :class:`NodeComponent` subclasses stacked on a node.
Components register message handlers and spawn tasks in ``on_start``;
both are torn down automatically on crash.

A node is runtime-agnostic: it runs unchanged on
:class:`~repro.runtime.sim.SimRuntime` (where "crash" is a bookkeeping
event in virtual time) and on :class:`~repro.runtime.live.LiveRuntime`
(where the harness additionally closes the node's UDP socket to emulate
a real process kill).  The owning runtime is stored under the historical
attribute name ``sim``.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Generator, List, Optional, Tuple,
                    TYPE_CHECKING)

from repro.errors import ProcessDown, SimulationError
from repro.runtime.api import Runtime
from repro.runtime.primitives import Task
from repro.storage.disk import InjectedCrashFault

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

    A component that replays after a recovery sets :attr:`replays` and
    calls :meth:`Node.mark_recovery_complete` once it is caught up.
    """

    name = "component"
    #: Whether the component reports the end of its recovery replay.
    replays = False

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
        # Live tasks in spawn order: each leaves when it finishes.
        self._tasks: Dict[Task, None] = {}
        self._handlers: Dict[str, Callable[[Any, int], None]] = {}
        # Link liveness, volatile like the handlers.  ``last_sent[peer]``
        # is when this node last handed the fair-loss medium anything
        # for ``peer``; the medium stamps it on each send.  Arrival
        # listeners hear the sender of every message :meth:`deliver`
        # consumes from another node.  Both are per node, not per stack:
        # groups that share a link share its liveness.
        self.last_sent: Dict[int, float] = {}
        self._arrival_listeners: List[Callable[[int], None]] = []
        # While a turn is open on a store with a disk: the medium sends
        # it produced, ``(send, args)`` in order, held until it commits.
        self.outbox: Optional[List[Tuple[Callable[..., None],
                                         Tuple[Any, ...]]]] = None
        self._started = False
        # Statistics for the harness.  ``starts`` counts the starts and
        # recoveries that committed: each opens a delivery stream.
        self.starts = 0
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
        self._turn(self._start_components)
        # Reported once the start's turn has committed: a start that a
        # disk fault cuts short is only a crash, and opens no delivery
        # stream.
        self.starts += 1
        self.sim.trace("node", self.node_id, "start")

    def crash(self) -> None:
        """Crash the node: kill tasks, clear handlers, lose volatile state."""
        if not self.up:
            return
        self.up = False
        self.crash_count += 1
        self.sim.trace("node", self.node_id, "crash")
        self.total_uptime += self.sim.now - self.last_up_at
        tasks, self._tasks = self._tasks, {}
        for task in list(tasks):
            task.kill()
        self._handlers.clear()
        self.last_sent.clear()
        self._arrival_listeners.clear()
        self.stall_until = 0.0
        self.storage = self.storage.reopen()
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
        self._turn(self._start_components)
        self.starts += 1
        self.sim.trace("node", self.node_id, "recover")
        if not any(component.replays for component in self.components):
            self.mark_recovery_complete()

    def _start_components(self) -> None:
        for component in self.components:
            component.on_start()

    def mark_recovery_complete(self) -> None:
        """Record the end of the recovery procedure (replay finished).

        Components whose recovery work is asynchronous (e.g. the replay
        loop of the Atomic Broadcast layer) set
        :attr:`NodeComponent.replays` and call this when they are caught
        up, so recovery-duration metrics reflect real replay time; a
        stack without one closes the window when its start hooks return.
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
        self._tasks[task] = None
        task.on_finish = self._tasks.pop
        task.turn = self._turn
        return task

    # -- turns ------------------------------------------------------------------

    def _turn(self, step: Callable[..., Any], *args: Any) -> Any:
        """Run ``step(*args)`` as one turn of this node.

        A store without a disk has nothing to commit: the step just
        runs, and its frames go straight to the medium.  With a disk the
        turn's records are one write barrier — one journal frame, one
        append and one fsync — and the frames it sent wait in
        :attr:`outbox` until that barrier has committed, then leave in
        send order.  A commit that fails, and a disk fault
        (:class:`InjectedCrashFault`) anywhere in the turn, release
        nothing: no frame leaves ahead of the records it may depend on.
        A commit that fails (``OSError``) also crashes the node before
        the error goes on — fail-stop, as a disk fault's harness does —
        since its map now holds records its journal does not; the
        restart replays what the journal kept.
        Any other exception of the step leaves the turn as it stands:
        what it logged commits, what it sent leaves, and then the
        exception goes on, so the store's map and its journal agree on a
        node that keeps running.  A turn run inside another is part of
        it.
        """
        storage = self.storage
        if storage.disk is None or self.outbox is not None:
            return step(*args)
        outbox = self.outbox = []
        failure: Optional[BaseException] = None
        try:
            with storage.write_barrier():
                try:
                    result = step(*args)
                except InjectedCrashFault:
                    raise
                except BaseException as error:
                    failure = error
        except OSError:
            self.outbox = None
            self.crash()
            raise
        finally:
            # An exception leaves here only when the barrier did not
            # commit, and the outbox is dropped with it.
            self.outbox = None
        if storage.barrier_open:
            # A task step yielded inside a write barrier of its own.
            raise SimulationError(
                f"a turn of node {self.node_id} ended with a write "
                f"barrier open: a barrier must not span a yield")
        try:
            for send, send_args in outbox:
                send(*send_args)
        finally:
            if failure is not None:
                raise failure  # the step's own error outranks a send's
        return result

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
        self._turn(handler, message, sender)
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
