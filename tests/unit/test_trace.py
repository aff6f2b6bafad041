"""Unit tests for the structured event tracer."""

from __future__ import annotations

import pytest

from repro.chaos.inject import FaultSchedule
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import Scenario, run_scenario
from repro.runtime import CATEGORIES, TraceEvent, Tracer
from repro.transport.network import NetworkConfig
from repro.workloads.generators import PoissonWorkload


class TestTracerUnit:
    def test_records_and_selects(self):
        tracer = Tracer()
        tracer.record(1.0, "node", 0, "crash")
        tracer.record(2.0, "round", 1, "commit", k=3)
        assert len(tracer) == 2
        assert tracer.select(category="node")[0].action == "crash"
        assert tracer.select(node=1)[0].details == {"k": 3}
        assert tracer.select(action="commit", node=0) == []

    def test_category_filter(self):
        tracer = Tracer(categories=["node"])
        tracer.record(1.0, "node", 0, "crash")
        tracer.record(1.0, "round", 0, "commit")
        assert len(tracer) == 1

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            Tracer(categories=["nonsense"])

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(max_events=5)
        for index in range(8):
            tracer.record(float(index), "node", 0, "start", i=index)
        assert len(tracer) == 5
        assert tracer.dropped == 3
        assert tracer.events[0].details == {"i": 3}
        assert "3 earlier events dropped" in tracer.format_text()

    def test_counts_and_format(self):
        tracer = Tracer()
        tracer.record(1.0, "node", 0, "crash")
        tracer.record(2.0, "node", 1, "crash")
        assert tracer.counts() == {"node/crash": 2}
        line = TraceEvent(1.5, "fd", 2, "suspect", {"peer": 0}).format()
        assert "n2 fd/suspect" in line and "peer=0" in line

    def test_all_categories_are_known(self):
        assert set(CATEGORIES) == {"node", "round", "checkpoint",
                                   "state-transfer", "decision", "fd"}


class TestTracedRuns:
    def run_traced(self, **scenario_kwargs):
        tracer = Tracer()
        run_scenario(Scenario(tracer=tracer, **scenario_kwargs))
        return tracer

    def test_untraced_run_records_nothing(self):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=3, seed=1, protocol="basic"),
            workload=PoissonWorkload(1.0, 4.0, seed=1), duration=8.0))
        assert result.cluster.sim.tracer is None

    def test_crash_and_recovery_are_traced(self):
        tracer = self.run_traced(
            cluster=ClusterConfig(n=3, seed=2, protocol="basic",
                                  network=NetworkConfig(loss_rate=0.05)),
            workload=PoissonWorkload(1.0, 6.0, seed=2),
            faults=FaultSchedule().crash(2.0, 1).recover(4.0, 1),
            duration=12.0, settle_limit=120.0)
        crashes = tracer.select(category="node", action="crash")
        assert [event.node for event in crashes] == [1]
        assert tracer.select(category="node", action="recover")[0].node == 1
        # Ordering progress was traced too.
        assert tracer.select(category="round", action="commit")
        assert tracer.select(category="decision", action="locked")

    def test_trace_explains_recovery_path(self):
        """Traces distinguish state-transfer catch-up from replay."""
        from repro.core.alternative import AlternativeConfig
        tracer = Tracer()
        from repro.harness.cluster import Cluster
        cluster = Cluster(ClusterConfig(
            n=3, seed=3, protocol="alternative",
            network=NetworkConfig(loss_rate=0.03),
            alt=AlternativeConfig(checkpoint_interval=2.0, delta=2)))
        cluster.sim.tracer = tracer
        cluster.start()
        cluster.run(until=1.0)
        cluster.nodes[2].crash()
        for j in range(25):
            cluster.sim.schedule(1.5 + 0.15 * j, cluster.submit, 0,
                                 ("m", j))
        cluster.run(until=8.0)
        cluster.nodes[2].recover()
        cluster.run(until=60.0)
        adoptions = tracer.select(category="state-transfer",
                                  action="adopted")
        assert adoptions and adoptions[0].node == 2
        assert adoptions[0].details["skipped"] > 0

    def test_traces_are_deterministic(self):
        def formatted():
            tracer = self.run_traced(
                cluster=ClusterConfig(n=3, seed=4, protocol="basic"),
                workload=PoissonWorkload(1.0, 5.0, seed=4),
                duration=10.0)
            return tracer.format_text()

        assert formatted() == formatted()


class TestTracerHotPath:
    """Regressions for the deque ring buffer and strict categories."""

    def test_overflow_is_o1_deque(self):
        from collections import deque
        tracer = Tracer(max_events=3)
        assert isinstance(tracer.events, deque)
        for index in range(10):
            tracer.record(float(index), "node", 0, "start", i=index)
        assert len(tracer) == 3
        assert tracer.dropped == 7
        assert [event.details["i"] for event in tracer.events] == [7, 8, 9]
        text = tracer.format_text()
        assert "7 earlier events dropped" in text
        # Tail limiting still slices from the end.
        tail = tracer.format_text(limit=2)
        assert "i=8" in tail and "i=9" in tail and "i=7" not in tail

    def test_record_rejects_unknown_category(self):
        # A typo at an instrumentation site must fail loudly instead of
        # silently dropping the events it was meant to capture.
        tracer = Tracer()
        with pytest.raises(ValueError, match="unknown trace category"):
            tracer.record(1.0, "nodes", 0, "crash")
        assert len(tracer) == 0

    def test_record_still_filters_known_categories(self):
        tracer = Tracer(categories=["node"])
        tracer.record(1.0, "round", 0, "commit")  # valid, filtered
        with pytest.raises(ValueError):
            tracer.record(1.0, "roundz", 0, "commit")  # invalid: raise
        assert len(tracer) == 0
