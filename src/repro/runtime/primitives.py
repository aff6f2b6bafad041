"""Runtime-agnostic concurrency primitives.

These classes implement the cooperative-task model every protocol in this
repository is written against:

* :class:`Task` — a cooperative coroutine implemented as a Python
  generator.  A task advances by ``yield``-ing *wait requests*:

  - ``yield 1.5`` — sleep for 1.5 time units;
  - ``yield event`` — block until the :class:`Event` fires, the ``yield``
    evaluates to the event's value;
  - ``yield other_task`` — join another task, evaluating to its result;
  - ``yield None`` — yield the CPU and resume at the same time.

* :class:`Event` — a one-shot trigger carrying a value.
* :class:`Signal` — a multi-fire broadcast used to implement the paper's
  "wait until <condition>" statements: waiters re-check their predicate
  each time the signal fires.
* :class:`AnyOf` — a wait request satisfied by the first of several
  events.

None of them care *what* advances time: they only ever talk to their
runtime through :meth:`Runtime.call_soon` and :meth:`Runtime.schedule`,
so the exact same protocol code runs on the deterministic virtual-time
scheduler (:class:`~repro.runtime.sim.SimRuntime`) and on a real asyncio
event loop (:class:`~repro.runtime.live.LiveRuntime`).

The owning runtime is stored under the historical attribute name ``sim``
(the primitives predate the runtime split); protocol code reads clocks
and spawns helpers through it either way.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Generator, Iterable,
                    List, Optional)

from repro.errors import SimulationError, TaskKilled

if TYPE_CHECKING:  # kept out of runtime: the primitives stay dependency-free
    from repro.runtime.api import Runtime, TimerHandle

__all__ = ["Task", "Event", "Signal", "AnyOf"]


class Event:
    """A one-shot trigger that tasks can wait on.

    Firing an already-fired event is an error; use :class:`Signal` for
    recurring notifications.
    """

    __slots__ = ("sim", "fired", "value", "_waiters", "name")

    def __init__(self, sim: "Runtime", name: str = ""):
        self.sim = sim
        self.fired = False
        self.value: Any = None
        self._waiters: List["Task"] = []
        self.name = name

    def fire(self, value: Any = None) -> None:
        """Trigger the event, waking every waiting task with ``value``."""
        if self.fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for task in waiters:
            if not task.dead:
                self.sim.call_soon(task._resume, value)

    def _add_waiter(self, task: "Task") -> None:
        if self.fired:
            self.sim.call_soon(task._resume, self.value)
        else:
            self._waiters.append(task)

    def _discard_waiter(self, task: "Task") -> None:
        try:
            self._waiters.remove(task)
        except ValueError:  # fired meanwhile, or never added (fired first)
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.fired else f"{len(self._waiters)} waiters"
        return f"<Event {self.name!r} {state}>"


class Signal:
    """A multi-fire broadcast: each :meth:`wait` observes the *next* fire.

    This is the building block for the paper's ``wait until <predicate>``
    statements::

        while not predicate():
            yield signal.wait()

    The loop re-checks the predicate after every notification, so spurious
    wake-ups are harmless.
    """

    __slots__ = ("sim", "_event", "name")

    def __init__(self, sim: "Runtime", name: str = ""):
        self.sim = sim
        self.name = name
        self._event: Optional[Event] = None

    def wait(self) -> Event:
        """Return an event that fires at the next :meth:`notify`."""
        if self._event is None or self._event.fired:
            self._event = Event(self.sim, name=f"signal:{self.name}")
        return self._event

    def notify(self, value: Any = None) -> None:
        """Wake every task currently waiting on the signal."""
        if self._event is not None and not self._event.fired:
            event, self._event = self._event, None
            event.fire(value)


class AnyOf:
    """Wait request satisfied by whichever of several events fires first.

    ``yield AnyOf([e1, e2])`` evaluates to the ``(event, value)`` pair of
    the first event to fire.  Once the task resumes, the wait leaves
    nothing behind: it is taken off every other event, so an event that
    fires later, or never, holds no trace of it (and stays fired for
    other waiters).
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]):
        self.events = list(events)
        if not self.events:
            raise SimulationError("AnyOf requires at least one event")


class Task:
    """A cooperative coroutine driven by a runtime.

    Tasks are created through :meth:`Runtime.spawn`.  A task finishes
    when its generator returns (its ``StopIteration`` value becomes the
    task result) and may be force-terminated with :meth:`kill`, which
    throws :class:`~repro.errors.TaskKilled` into the generator.
    """

    __slots__ = ("sim", "gen", "name", "dead", "finished", "result",
                 "on_finish", "turn", "_done_event", "_sleep_timer",
                 "_running")

    def __init__(self, sim: "Runtime", gen: Generator, name: str):
        self.sim = sim
        self.gen = gen
        self.name = name
        self.dead = False        # killed or finished: will never resume
        self.finished = False    # ran to completion normally
        self.result: Any = None
        # Called with the task once, when it finishes or is killed.
        self.on_finish: Optional[Callable[["Task"], Any]] = None
        # When set, each step runs as ``turn(step, value)`` (a node's
        # turn: see :meth:`repro.runtime.node.Node.spawn`).
        self.turn: Optional[Callable[..., Any]] = None
        self._done_event: Optional[Event] = None
        self._sleep_timer: Optional["TimerHandle"] = None
        self._running = False

    # -- public API ------------------------------------------------------

    def kill(self) -> None:
        """Terminate the task, unwinding ``finally`` blocks in its body."""
        if self.dead:
            return
        self.dead = True
        if self._sleep_timer is not None:
            self._sleep_timer.cancel()
            self._sleep_timer = None
        if self._running:
            # The task is killing itself from inside its own body: let the
            # exception propagate out of the current resume step.
            raise TaskKilled(self.name)
        try:
            self.gen.close()
        except RuntimeError:  # pragma: no cover - generator already running
            pass
        self._finish(None)

    def done_event(self) -> Event:
        """An event fired (with the task result) when the task completes."""
        if self._done_event is None:
            self._done_event = Event(self.sim, name=f"done:{self.name}")
            if self.dead:
                self._done_event.fire(self.result)
        return self._done_event

    @property
    def alive(self) -> bool:
        return not self.dead

    # -- kernel internals -------------------------------------------------

    def _finish(self, result: Any) -> None:
        self.dead = True
        self.result = result
        if self.on_finish is not None:
            self.on_finish(self)
        if self._done_event is not None and not self._done_event.fired:
            self._done_event.fire(result)

    def _resume(self, value: Any = None) -> None:
        if self.dead:
            return
        if self.turn is None:
            self._step(value)
        else:
            self.turn(self._step, value)

    def _step(self, value: Any) -> None:
        self._sleep_timer = None
        self._running = True
        try:
            request = self.gen.send(value)
        except StopIteration as stop:
            self._running = False
            self.finished = True
            self._finish(stop.value)
            return
        except TaskKilled:
            self._running = False
            self._finish(None)
            return
        finally:
            self._running = False
        self._wait_on(request)

    def _wait_on(self, request: Any) -> None:
        if self.dead:  # killed itself during the step
            return
        if request is None:
            self.sim.call_soon(self._resume, None)
        elif isinstance(request, (int, float)):
            if request < 0:
                raise SimulationError(
                    f"task {self.name!r} yielded negative sleep {request}")
            self._sleep_timer = self.sim.schedule(request, self._resume, None)
        elif isinstance(request, Event):
            request._add_waiter(self)
        elif isinstance(request, Task):
            request.done_event()._add_waiter(self)
        elif isinstance(request, AnyOf):
            self._add_anyof_waiter(request)
        else:
            raise SimulationError(
                f"task {self.name!r} yielded unsupported request "
                f"{request!r}; expected float, Event, Task, AnyOf or None")

    def _add_anyof_waiter(self, request: AnyOf) -> None:
        group: List[_AnyOfWaiter] = []
        for event in request.events:
            waiter = _AnyOfWaiter(self, event, group)
            group.append(waiter)
            event._add_waiter(waiter)  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "dead" if self.dead else "alive"
        return f"<Task {self.name!r} {state}>"


class _AnyOfWaiter:
    """Adapter letting a single task wait on several events at once: one
    per event, all sharing ``group``, which the first to resume empties
    after taking the others off their events."""

    __slots__ = ("task", "event", "group")

    def __init__(self, task: Task, event: Event,
                 group: List["_AnyOfWaiter"]):
        self.task = task
        self.event = event
        self.group = group

    @property
    def dead(self) -> bool:
        return self.task.dead

    def _resume(self, value: Any) -> None:  # called by Event.fire
        group = self.group
        if not group or self.task.dead:
            return
        for other in group:
            if other is not self:
                other.event._discard_waiter(other)  # type: ignore[arg-type]
        group.clear()
        self.task._resume((self.event, value))
