"""Deterministic discrete-event implementation of the runtime interface.

:class:`SimRuntime` is the virtual-time substrate the paper's evaluation
runs on — a virtual clock plus a priority queue of callbacks.  It is
intentionally small and dependency-free.

Determinism: two events scheduled at the same virtual time are delivered
in scheduling order (a monotone sequence number breaks ties), so a run is
a pure function of the seed used by the surrounding layers.  This is the
contract the whole test suite and every benchmark table relies on; the
static analyzer's DET rules police the inputs (no wall clock, no OS
entropy, no unseeded randomness) inside this implementation and the
layers above it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.runtime.api import Runtime
from repro.runtime.primitives import Event

__all__ = ["SimRuntime", "Timer"]


class Timer(list):
    """A cancellable handle for a scheduled callback, and its own heap
    entry: ``[when, seq, callback, args, owner]``.

    ``seq`` is unique, so ``heapq`` orders timers by ``(when, seq)`` —
    list comparison, in C — and never reaches the callback.  Being its
    own entry keeps one object per scheduled callback: a ``(when, seq,
    timer)`` tuple would be a second for the garbage collector to walk,
    and a set-up schedules every request of a run at once.  A timer that
    fired or was cancelled holds no callback.
    """

    __slots__ = ()

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if it already ran)."""
        if self[2] is not None:
            self[2] = self[3] = None
            self[4]._note_cancelled()


class SimRuntime(Runtime):
    """The virtual-time event loop.

    A simulation is a pure function of its initial configuration: ties in
    the schedule are broken by insertion order, and all randomness in the
    layers above flows from named seeded streams
    (:mod:`repro.runtime.rng`).
    """

    # Compaction kicks in once this many dead entries accumulate AND they
    # outnumber the live ones; below the floor the O(n) rebuild is not
    # worth its constant factor.
    _COMPACT_FLOOR = 64

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self._now = 0.0
        self._heap: List[Timer] = []
        self._seq = 0
        self._event_count = 0
        # Cancelled timers still sitting in the heap.  Long runs of
        # retry / heartbeat timers cancel constantly;
        # without compaction the dead entries linger until popped and
        # every push pays log(dead + live).
        self._cancelled_in_heap = 0
        self.compactions = 0

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total callbacks executed so far (useful as a work metric)."""
        return self._event_count

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callable, *args: Any) -> Timer:
        """Run ``callback(*args)`` after ``delay`` units of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        timer = Timer((self._now + delay, self._seq, callback, args, self))
        self._seq += 1
        heapq.heappush(self._heap, timer)
        return timer

    def _note_cancelled(self) -> None:
        """A heap entry died; compact lazily once the dead dominate.

        Rebuilding from the live entries is deterministic: ``(when, seq)``
        keys are unique, so the pop order of a re-heapified subset is
        identical to popping the original heap and skipping the dead.
        The list is rebuilt in place: :meth:`run` holds it.
        """
        self._cancelled_in_heap += 1
        heap = self._heap
        if (self._cancelled_in_heap > self._COMPACT_FLOOR
                and self._cancelled_in_heap * 2 > len(heap)):
            heap[:] = [timer for timer in heap if timer[2] is not None]
            heapq.heapify(heap)
            self._cancelled_in_heap = 0
            self.compactions += 1

    def call_soon(self, callback: Callable, *args: Any) -> Timer:
        """Run ``callback(*args)`` at the current virtual time, after the
        currently-executing callback returns."""
        return self.schedule(0.0, callback, *args)

    # -- running -------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have run.  Returns the final virtual time.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drained earlier, so back-to-back ``run`` calls
        compose predictably.
        """
        heap, pop = self._heap, heapq.heappop
        processed = 0
        while heap:
            timer = heap[0]
            callback = timer[2]
            if callback is None:
                pop(heap)
                self._cancelled_in_heap -= 1
                continue
            when = timer[0]
            if until is not None and when > until:
                break
            if max_events is not None and processed >= max_events:
                break
            pop(heap)
            self._now = when
            self._event_count += 1
            processed += 1
            args = timer[3]
            timer[2] = timer[3] = None     # timers are one-shot
            callback(*args)
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_until_event(self, event: Event,
                        limit: Optional[float] = None) -> Any:
        """Run until ``event`` fires; returns its value.

        Raises :class:`SimulationError` if the queue drains (or ``limit``
        passes) without the event firing — a deadlock detector for tests.
        """
        while not event.fired:
            if self.pending() == 0:
                raise SimulationError(
                    f"deadlock: event {event.name!r} never fired "
                    f"(queue drained at t={self._now})")
            if limit is not None and self._heap[0][0] > limit:
                raise SimulationError(
                    f"timeout: event {event.name!r} not fired by t={limit}")
            self.run(max_events=1)
        return event.value

    def pending(self) -> int:
        """Number of live (non-cancelled) timers in the queue."""
        return len(self._heap) - self._cancelled_in_heap
