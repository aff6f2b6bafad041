"""Unit tests for the run's one event stream: the collector's trace ring
and the events every layer emits through ``Runtime.trace``."""

from __future__ import annotations

import pytest

from repro.chaos.inject import FaultSchedule
from repro.core.ids import MessageId
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import Scenario, run_scenario
from repro.membership.scenario import churn_scenario
from repro.metrics import collector as collector_module
from repro.metrics.collector import CATEGORIES, MetricsCollector, TraceEvent
from repro.transport.network import NetworkConfig
from repro.workloads.generators import PoissonWorkload


def traced_collector() -> MetricsCollector:
    collector = MetricsCollector()
    collector.keep_events()
    return collector


class TestTracerUnit:
    def test_records_and_selects(self):
        collector = traced_collector()
        collector.record(1.0, "node", 0, "crash", (), {})
        collector.record(2.0, "checkpoint", 1, "taken", (), {"k": 3})
        assert len(collector.events) == 2
        assert collector.select(category="node")[0].action == "crash"
        assert collector.select(node=1)[0].details == {"k": 3}
        assert collector.select(action="taken", node=0) == []

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown trace category"):
            MetricsCollector().record(1.0, "nonsense", 0, "x", (), {})

    def test_ring_buffer_drops_oldest(self, monkeypatch):
        monkeypatch.setattr(collector_module, "TRACE_LIMIT", 5)
        collector = traced_collector()
        for index in range(8):
            collector.record(float(index), "node", 0, "start", (),
                             {"i": index})
        assert len(collector.events) == 5
        assert collector.dropped == 3
        assert collector.events[0].details == {"i": 3}
        assert "3 earlier events dropped" in collector.format_text()

    def test_counts_and_format(self):
        collector = traced_collector()
        collector.record(1.0, "node", 0, "crash", (), {})
        collector.record(2.0, "node", 1, "crash", (), {})
        assert collector.counts() == {"node/crash": 2}
        line = TraceEvent(1.5, "fd", 2, "suspect", {"peer": 0}).format()
        assert "n2 fd/suspect" in line and "peer=0" in line

    def test_all_categories_are_known(self):
        assert set(CATEGORIES) == {"node", "broadcast", "deliver",
                                   "decision", "view", "round",
                                   "checkpoint", "state-transfer", "fd"}

    def test_archived_fields_are_named_in_the_ring(self):
        collector = traced_collector()
        mid = MessageId(0, 1, 1)
        collector.record(1.0, "deliver", 2, "apply", (mid, 1), {})
        assert collector.deliveries == [(2, 1, mid, 1.0)]
        assert collector.events[0].details == {"mid": mid, "stream": 1}

    def test_an_untraced_collector_keeps_no_events(self):
        collector = MetricsCollector()
        mid = MessageId(0, 1, 1)
        collector.record(1.0, "broadcast", 0, "submit", (mid, "p"), {})
        collector.record(1.0, "checkpoint", 0, "taken", (), {"k": 0})
        assert collector.events is None
        assert collector.broadcast_times == {mid: 1.0}
        assert collector.format_text() == ""
        with pytest.raises(ValueError):
            collector.record(1.0, "roundz", 0, "commit", (), {})


class TestTracedRuns:
    def run_traced(self, **scenario_kwargs):
        result = run_scenario(Scenario(trace=True, **scenario_kwargs))
        return result.cluster.collector

    def test_untraced_run_records_nothing(self):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=3, seed=1, protocol="basic"),
            workload=PoissonWorkload(1.0, 4.0, seed=1), duration=8.0))
        assert result.cluster.sim.sink is result.cluster.collector
        assert result.cluster.collector.events is None

    def test_crash_and_recovery_are_traced(self):
        collector = self.run_traced(
            cluster=ClusterConfig(n=3, seed=2, protocol="basic",
                                  network=NetworkConfig(loss_rate=0.05)),
            workload=PoissonWorkload(1.0, 6.0, seed=2),
            faults=FaultSchedule().crash(2.0, 1).recover(4.0, 1),
            duration=12.0, settle_limit=120.0)
        crashes = collector.select(category="node", action="crash")
        assert [event.node for event in crashes] == [1]
        assert collector.select(category="node", action="recover")[0].node \
            == 1
        assert collector.crash_times == {1: [event.time
                                             for event in crashes]}
        # Ordering progress was traced too.
        assert collector.select(category="round", action="commit")
        assert collector.select(category="decision", action="locked")

    def test_trace_explains_recovery_path(self):
        """Traces distinguish state-transfer catch-up from replay."""
        from repro.core.alternative import AlternativeConfig
        from repro.harness.cluster import Cluster
        cluster = Cluster(ClusterConfig(
            n=3, seed=3, protocol="alternative",
            network=NetworkConfig(loss_rate=0.03),
            alt=AlternativeConfig(checkpoint_interval=2.0, delta=2)))
        cluster.collector.keep_events()
        cluster.start()
        cluster.run(until=1.0)
        cluster.nodes[2].crash()
        for j in range(25):
            cluster.sim.schedule(1.5 + 0.15 * j, cluster.submit, 0,
                                 ("m", j))
        cluster.run(until=8.0)
        cluster.nodes[2].recover()
        cluster.run(until=60.0)
        adoptions = cluster.collector.select(category="state-transfer",
                                             action="adopted")
        assert adoptions and adoptions[0].node == 2
        assert adoptions[0].details["skipped"] > 0

    def test_traces_are_deterministic(self):
        def formatted():
            collector = self.run_traced(
                cluster=ClusterConfig(n=3, seed=4, protocol="basic"),
                workload=PoissonWorkload(1.0, 5.0, seed=4),
                duration=10.0)
            return collector.format_text()

        assert formatted() == formatted()


class TestTracerHotPath:
    """Regressions for the deque ring buffer and strict categories."""

    def test_overflow_is_o1_deque(self, monkeypatch):
        from collections import deque
        monkeypatch.setattr(collector_module, "TRACE_LIMIT", 3)
        collector = traced_collector()
        assert isinstance(collector.events, deque)
        for index in range(10):
            collector.record(float(index), "node", 0, "start", (),
                             {"i": index})
        assert len(collector.events) == 3
        assert collector.dropped == 7
        assert [event.details["i"] for event in collector.events] \
            == [7, 8, 9]
        text = collector.format_text()
        assert "7 earlier events dropped" in text
        # Tail limiting still slices from the end.
        tail = collector.format_text(limit=2)
        assert "i=8" in tail and "i=9" in tail and "i=7" not in tail

    def test_record_rejects_unknown_category(self):
        # A typo at an instrumentation site must fail loudly instead of
        # silently dropping the events it was meant to capture.
        collector = traced_collector()
        with pytest.raises(ValueError, match="unknown trace category"):
            collector.record(1.0, "nodes", 0, "crash", (), {})
        assert len(collector.events) == 0


class TestOneEventStream:
    """Every layer reports through the runtime's one sink."""

    def test_a_traced_churn_run_records_every_view_install(self):
        scenario = churn_scenario(seed=0)
        scenario.trace = True
        result = run_scenario(scenario)
        assert result.report is not None
        collector = result.cluster.collector
        installs = collector.select(category="view", action="install")
        assert collector.view_installs
        assert [(event.node, event.details["epoch"],
                 event.details["members"], event.time,
                 event.details["origin"]) for event in installs] \
            == collector.view_installs

    @pytest.mark.parametrize("protocol", ["basic", "ct"])
    def test_every_locked_decision_reaches_the_stream(self, protocol):
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=3, seed=5, protocol=protocol),
            workload=PoissonWorkload(1.0, 5.0, seed=5), duration=10.0,
            trace=True))
        cluster = result.cluster
        events = cluster.collector.select(category="decision")
        locked = {(node_id, k)
                  for node_id, consensus in cluster.consensuses.items()
                  for k in range(result.report.rounds + 2)
                  if consensus.decided_value(k) is not None}
        emitted = [(event.node, event.details["k"]) for event in events]
        assert locked
        assert sorted(emitted) == sorted(locked)
        assert cluster.collector.decisions == {
            event.details["k"]: event.details["value"] for event in events}

    def test_tracing_does_not_perturb_the_run(self):
        def run(trace):
            result = run_scenario(Scenario(
                cluster=ClusterConfig(n=3, seed=6, protocol="alternative",
                                      network=NetworkConfig(loss_rate=0.1)),
                workload=PoissonWorkload(1.5, 6.0, seed=6),
                faults=FaultSchedule().crash(2.0, 2).recover(3.5, 2),
                duration=10.0, settle_limit=120.0, trace=trace))
            collector = result.cluster.collector
            assert (collector.events is not None) == trace
            return result.signature(), (
                collector.broadcast_times, collector.deliveries,
                collector.decisions, collector.view_installs)

        assert run(True) == run(False)
