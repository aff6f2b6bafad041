"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.runtime import AnyOf, Event, SimRuntime


class TestClockAndTimers:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_advances_clock_to_fire_time(self, sim):
        fired = []
        sim.schedule(2.5, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == 2.5

    def test_callbacks_fire_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_ties_break_by_insertion_order(self, sim):
        order = []
        for label in "abcde":
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_cancelled_timer_does_not_fire(self, sim):
        fired = []
        timer = sim.schedule(1.0, fired.append, "x")
        timer.cancel()
        sim.run()
        assert fired == []

    def test_cancel_after_fire_is_harmless(self, sim):
        fired = []
        timer = sim.schedule(1.0, fired.append, "x")
        sim.run()
        timer.cancel()
        assert fired == ["x"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_stops_at_boundary(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run(until=3.0)
        assert fired == [1]
        assert sim.now == 3.0  # clock advanced to the boundary

    def test_run_until_resumes_where_it_left(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, 5)
        sim.run(until=3.0)
        sim.run(until=10.0)
        assert fired == [5]

    def test_call_soon_runs_at_current_time(self, sim):
        times = []
        sim.schedule(2.0, lambda: sim.call_soon(
            lambda: times.append(sim.now)))
        sim.run()
        assert times == [2.0]

    def test_max_events_limits_work(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=4)
        assert len(fired) == 4

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_pending_counts_live_timers(self, sim):
        t1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        t1.cancel()
        assert sim.pending() == 1


class TestTasks:
    def test_task_sleeps_and_resumes(self, sim):
        trace = []

        def body():
            trace.append(sim.now)
            yield 1.5
            trace.append(sim.now)

        sim.spawn(body(), "t")
        sim.run()
        assert trace == [0.0, 1.5]

    def test_task_result_returned_via_join(self, sim):
        results = []

        def worker():
            yield 1.0
            return 42

        def joiner():
            task = sim.spawn(worker(), "w")
            value = yield task
            results.append(value)

        sim.spawn(joiner(), "j")
        sim.run()
        assert results == [42]

    def test_join_already_finished_task(self, sim):
        results = []

        def worker():
            return "done"
            yield  # pragma: no cover

        def joiner(task):
            value = yield task
            results.append(value)

        task = sim.spawn(worker(), "w")
        sim.run()
        sim.spawn(joiner(task), "j")
        sim.run()
        assert results == ["done"]

    def test_yield_none_reschedules_same_time(self, sim):
        times = []

        def body():
            times.append(sim.now)
            yield None
            times.append(sim.now)

        sim.spawn(body(), "t")
        sim.run()
        assert times == [0.0, 0.0]

    def test_kill_stops_task(self, sim):
        trace = []

        def body():
            trace.append("start")
            yield 10.0
            trace.append("never")

        task = sim.spawn(body(), "t")
        sim.run(until=1.0)
        task.kill()
        sim.run()
        assert trace == ["start"]
        assert task.dead
        assert not task.finished

    def test_kill_runs_finally_blocks(self, sim):
        cleaned = []

        def body():
            try:
                yield 10.0
            finally:
                cleaned.append(True)

        task = sim.spawn(body(), "t")
        sim.run(until=1.0)
        task.kill()
        assert cleaned == [True]

    def test_kill_idempotent(self, sim):
        def body():
            yield 10.0

        task = sim.spawn(body(), "t")
        sim.run(until=1.0)
        task.kill()
        task.kill()
        assert task.dead

    def test_killed_sleeping_task_timer_cancelled(self, sim):
        def body():
            yield 100.0

        task = sim.spawn(body(), "t")
        sim.run(until=1.0)
        task.kill()
        assert sim.pending() == 0

    @pytest.mark.parametrize("request_of", [
        lambda event: [event], lambda event: {event},
        lambda event: {"k": event}, lambda event: "nonsense"],
        ids=["list", "set", "dict", "nonsense"])
    def test_bad_yield_raises(self, sim, request_of):
        # A raw container of events is not a wait request: AnyOf is.
        def body():
            yield request_of(Event(sim))

        sim.spawn(body(), "t")
        with pytest.raises(SimulationError):
            sim.run()

    def test_finished_task_flags(self, sim):
        def body():
            yield 0.5
            return "r"

        task = sim.spawn(body(), "t")
        sim.run()
        assert task.finished and task.dead and task.result == "r"


class TestEvents:
    def test_event_wakes_waiter_with_value(self, sim):
        got = []

        def waiter(event):
            value = yield event
            got.append(value)

        event = sim.event("e")
        sim.spawn(waiter(event), "w")
        sim.schedule(2.0, event.fire, "payload")
        sim.run()
        assert got == ["payload"]

    def test_event_fire_twice_raises(self, sim):
        event = sim.event("e")
        event.fire()
        with pytest.raises(SimulationError):
            event.fire()

    def test_wait_on_already_fired_event(self, sim):
        got = []
        event = sim.event("e")
        event.fire("v")

        def waiter():
            value = yield event
            got.append(value)

        sim.spawn(waiter(), "w")
        sim.run()
        assert got == ["v"]

    def test_multiple_waiters_all_woken(self, sim):
        got = []
        event = sim.event("e")

        def waiter(tag):
            value = yield event
            got.append((tag, value))

        for tag in range(3):
            sim.spawn(waiter(tag), f"w{tag}")
        sim.schedule(1.0, event.fire, "x")
        sim.run()
        assert sorted(got) == [(0, "x"), (1, "x"), (2, "x")]

    def test_dead_waiter_not_resumed(self, sim):
        got = []
        event = sim.event("e")

        def waiter():
            value = yield event
            got.append(value)

        task = sim.spawn(waiter(), "w")
        sim.run(until=0.5)
        task.kill()
        event.fire("x")
        sim.run()
        assert got == []

    def test_run_until_event_returns_value(self, sim):
        event = sim.event("e")
        sim.schedule(3.0, event.fire, 99)
        assert sim.run_until_event(event) == 99

    def test_run_until_event_detects_deadlock(self, sim):
        event = sim.event("never")
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_event(event)

    def test_run_until_event_timeout(self, sim):
        event = sim.event("late")
        sim.schedule(100.0, event.fire)
        with pytest.raises(SimulationError, match="timeout"):
            sim.run_until_event(event, limit=10.0)


class TestSignals:
    def test_signal_wakes_current_waiters_only(self, sim):
        got = []
        signal = sim.signal("s")

        def waiter():
            value = yield signal.wait()
            got.append(value)

        sim.spawn(waiter(), "w1")
        sim.schedule(1.0, signal.notify, "first")
        sim.run()
        assert got == ["first"]
        # A new notify with no waiters is a no-op.
        signal.notify("second")
        sim.run()
        assert got == ["first"]

    def test_signal_multiple_rounds(self, sim):
        got = []
        signal = sim.signal("s")

        def waiter():
            for _ in range(3):
                value = yield signal.wait()
                got.append(value)

        sim.spawn(waiter(), "w")
        for i in range(3):
            sim.schedule(float(i + 1), signal.notify, i)
        sim.run()
        assert got == [0, 1, 2]

    def test_predicate_loop_pattern(self, sim):
        """The paper's 'wait until <cond>' idiom built from a Signal."""
        state = {"value": 0}
        done = []
        signal = sim.signal("s")

        def waiter():
            while state["value"] < 3:
                yield signal.wait()
            done.append(sim.now)

        def incrementer():
            for _ in range(5):
                yield 1.0
                state["value"] += 1
                signal.notify()

        sim.spawn(waiter(), "w")
        sim.spawn(incrementer(), "i")
        sim.run()
        assert done == [3.0]


class TestAnyOf:
    def test_first_event_wins(self, sim):
        got = []
        e1, e2 = sim.event("e1"), sim.event("e2")

        def waiter():
            fired, value = yield AnyOf([e1, e2])
            got.append((fired is e2, value))

        sim.spawn(waiter(), "w")
        sim.schedule(2.0, e2.fire, "fast")
        sim.schedule(5.0, e1.fire, "slow")
        sim.run()
        assert got == [(True, "fast")]

    def test_later_event_ignored_by_same_waiter(self, sim):
        wakes = []
        e1, e2 = sim.event("e1"), sim.event("e2")

        def waiter():
            yield AnyOf([e1, e2])
            wakes.append(sim.now)
            yield 10.0

        sim.spawn(waiter(), "w")
        sim.schedule(1.0, e1.fire)
        sim.schedule(2.0, e2.fire)
        sim.run()
        assert wakes == [1.0]

    def test_same_step_fires_wake_the_waiter_once(self, sim):
        got = []
        e1, e2 = sim.event("e1"), sim.event("e2")

        def waiter():
            fired, value = yield AnyOf([e1, e2])
            got.append(value)
            yield 10.0
            got.append("slept")

        def fire_both():
            e1.fire("first")
            e2.fire("second")

        sim.spawn(waiter(), "w")
        sim.schedule(1.0, fire_both)
        sim.run()
        assert got == ["first", "slept"]

    def test_a_resolved_wait_leaves_no_waiter_on_the_losers(self, sim):
        # The losing events never fire: an Event, and a Signal's pending
        # event.  Once the winner resumes the task, neither holds it.
        plain, winner = sim.event("plain"), sim.event("winner")
        signal = sim.signal("s")
        seen = []

        def waiter():
            yield AnyOf([plain, signal.wait(), winner])
            seen.append((len(plain._waiters),
                         len(signal.wait()._waiters)))
            yield 5.0

        task = sim.spawn(waiter(), "w")
        sim.schedule(1.0, winner.fire)
        sim.run(until=2.0)
        assert task.alive
        assert seen == [(0, 0)]
        assert plain._waiters == [] and signal.wait()._waiters == []

    def test_a_signal_waited_in_a_loop_holds_one_waiter(self, sim):
        # A task that keeps waiting on a quiet signal beside a timer —
        # Paxos's follower poll, the detector wait — leaves one waiter on
        # the signal, not one per wait.
        signal = sim.signal("quiet")
        held = []

        def poller():
            for _ in range(50):
                timer = sim.event("tick")
                sim.schedule(0.1, timer.fire)
                fired, _ = yield AnyOf([signal.wait(), timer])
                assert fired is timer
                held.append(len(signal.wait()._waiters))

        sim.spawn(poller(), "p")
        sim.run()
        assert held == [0] * 50

    def test_either_event_may_win_a_later_wait(self, sim):
        # A loser taken off its event can still win the next wait on it.
        e1, e2, e3 = (sim.event(name) for name in ("e1", "e2", "e3"))
        got = []

        def waiter():
            fired, _ = yield AnyOf([e1, e2])
            got.append(fired.name)
            fired, _ = yield AnyOf([e2, e3])
            got.append(fired.name)

        sim.spawn(waiter(), "w")
        sim.schedule(1.0, e1.fire)
        sim.schedule(2.0, e2.fire)
        sim.run()
        assert got == ["e1", "e2"]

    def test_empty_anyof_rejected(self, sim):
        with pytest.raises(SimulationError):
            AnyOf([])

    def test_anyof_with_already_fired_event(self, sim):
        got = []
        e1, e2 = sim.event("e1"), sim.event("e2")
        e1.fire("pre")

        def waiter():
            fired, value = yield AnyOf([e1, e2])
            got.append(value)

        sim.spawn(waiter(), "w")
        sim.run()
        assert got == ["pre"]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            sim = SimRuntime()
            trace = []

            def noisy(tag, period):
                while sim.now < 10:
                    trace.append((sim.now, tag))
                    yield period

            sim.spawn(noisy("a", 0.7), "a")
            sim.spawn(noisy("b", 1.1), "b")
            sim.run(until=10)
            return trace

        assert run_once() == run_once()


class TestTimerCompaction:
    """Cancelled timers are lazily compacted out of the heap."""

    def test_dead_timers_are_compacted(self):
        sim = SimRuntime()
        timers = [sim.schedule(10.0 + i, lambda: None) for i in range(500)]
        for timer in timers[:400]:
            timer.cancel()
        # The heap shed the dead entries without waiting for pops.
        assert sim.compactions >= 1
        assert len(sim._heap) < 500
        assert sim.pending() == 100

    def test_pending_is_exact_after_cancel_and_fire(self):
        sim = SimRuntime()
        fired = []
        keep = sim.schedule(1.0, fired.append, "keep")
        dead = sim.schedule(2.0, fired.append, "dead")
        dead.cancel()
        dead.cancel()  # double-cancel must not double-count
        assert sim.pending() == 1
        sim.run()
        assert fired == ["keep"]
        assert sim.pending() == 0
        keep.cancel()  # cancelling a fired timer is a no-op
        assert sim.pending() == 0

    def test_firing_order_unchanged_by_compaction(self):
        # Same schedule, one run with enough cancellations to trigger
        # compaction and one replayed without — the survivors must fire
        # in exactly the same order.
        def build(cancel):
            sim = SimRuntime()
            order = []
            timers = [sim.schedule((i * 7919 % 97) / 10.0, order.append, i)
                      for i in range(300)]
            if cancel:
                for index in range(300):
                    if index % 3 != 0:
                        timers[index].cancel()
            sim.run()
            return order, sim

        with_cancel, sim = build(cancel=True)
        without_cancel, _ = build(cancel=False)
        assert sim.compactions >= 1
        survivors = [i for i in without_cancel if i % 3 == 0]
        assert with_cancel == survivors

    def test_events_processed_ignores_cancelled(self):
        sim = SimRuntime()
        for i in range(10):
            timer = sim.schedule(1.0 + i, lambda: None)
            if i % 2:
                timer.cancel()
        sim.run()
        assert sim.events_processed == 5
