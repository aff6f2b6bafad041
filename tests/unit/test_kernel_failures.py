"""Failure semantics of the simulation kernel: fail fast and loud.

A protocol bug that raises inside a task or handler must surface as an
exception from ``SimRuntime.run`` — never be swallowed — so that every
test and experiment fails at the faulty event, with the virtual time on
the stack.
"""

from __future__ import annotations

import pytest


class TestExceptionPropagation:
    def test_callback_exception_propagates(self, sim):
        def boom():
            raise RuntimeError("callback bug")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="callback bug"):
            sim.run()
        # The clock stopped at the faulty event.
        assert sim.now == 1.0

    def test_task_exception_propagates(self, sim):
        def body():
            yield 2.0
            raise ValueError("task bug")

        sim.spawn(body(), "buggy")
        with pytest.raises(ValueError, match="task bug"):
            sim.run()
        assert sim.now == 2.0

    def test_queue_survives_exception_for_postmortem(self, sim):
        """Events after the fault remain queued — a debugger can inspect
        (or even resume) the simulation."""
        fired = []

        def boom():
            raise RuntimeError("bug")

        sim.schedule(1.0, boom)
        sim.schedule(2.0, fired.append, "later")
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.pending() == 1
        sim.run()  # resume past the fault
        assert fired == ["later"]

    def test_exception_in_one_task_does_not_corrupt_others(self, sim):
        progress = []

        def healthy():
            while sim.now < 5.0:
                progress.append(sim.now)
                yield 1.0

        def buggy():
            yield 1.5
            raise RuntimeError("bug")

        sim.spawn(healthy(), "healthy")
        sim.spawn(buggy(), "buggy")
        with pytest.raises(RuntimeError):
            sim.run()
        sim.run()  # the healthy task continues to completion
        assert progress == [0.0, 1.0, 2.0, 3.0, 4.0]
