"""The scenario runner: one driver for both runtimes.

:func:`~repro.harness.scenario.run_scenario` builds, drives, settles and
verifies every run — a timeline replayed on the live runtime exactly as
on the simulator, the overload-safety check included — and
:func:`~repro.harness.scenario.check_reproducible` is the one
reproducibility check.
"""

from __future__ import annotations

import itertools

import pytest

from repro.chaos.events import ChaosEvent
from repro.errors import ReproError, VerificationError
from repro.flow.controller import FlowConfig
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import (Scenario, check_reproducible,
                                    run_scenario)


class _DriftingWorkload:
    """Submits through a different node on every run: a hidden input."""

    runs = itertools.count()  # class state, so every deep copy shares it

    def install(self, cluster):
        cluster.runtime.schedule(1.0, cluster.submit,
                                 next(self.runs) % 2, "drift")


class _MiscountedRejection:
    """Makes node 0's admission controller count a rejection it never
    made — the accounting bug the overload check exists to catch."""

    def install(self, cluster):
        cluster.runtime.schedule(0.5, self._miscount, cluster)

    @staticmethod
    def _miscount(cluster):
        cluster.flows[0].rejected += 1


def _live_overload(workload=None) -> Scenario:
    """Twenty submissions inside 0.2 s against a bucket of four."""
    timeline = [ChaosEvent(0.1 + 0.01 * i, "submit", node=0,
                           payload=f"sat-{i}") for i in range(20)]
    return Scenario(
        ClusterConfig(n=3, seed=5, gossip_interval=0.1,
                      flow=FlowConfig(rate=4.0, burst=4)),
        runtime="live", workload=workload, timeline=timeline,
        duration=1.0, settle_limit=30.0)


class TestReproducibility:
    def test_divergent_second_run_is_caught(self):
        scenario = Scenario(ClusterConfig(n=3, seed=4),
                            workload=_DriftingWorkload(), duration=5.0)
        with pytest.raises(VerificationError, match="not reproducible"):
            check_reproducible(scenario)

    def test_live_scenarios_are_refused(self):
        with pytest.raises(ReproError, match="sim runtime"):
            check_reproducible(Scenario(ClusterConfig(), runtime="live"))


class TestLiveRuns:
    def test_crash_recover_timeline(self, tmp_path):
        timeline = [ChaosEvent(0.1 + 0.1 * i, "submit", node=i % 2,
                               payload=f"m{i}") for i in range(10)]
        timeline += [ChaosEvent(0.4, "crash", node=2),
                     ChaosEvent(1.0, "recover", node=2)]
        timeline.sort(key=lambda event: event.time)
        result = run_scenario(Scenario(
            ClusterConfig(n=3, seed=8, gossip_interval=0.1),
            runtime="live", timeline=timeline, duration=1.5,
            settle_limit=30.0, directory=str(tmp_path)))
        payloads = result.cluster.collector.broadcast_payloads
        assert sorted(payloads[mid] for mid in result.report.canonical) \
            == sorted(f"m{i}" for i in range(10))
        kinds = [event.kind for event in result.timeline]
        assert kinds.count("crash") == kinds.count("recover") == 1
        assert result.cluster.nodes[2].recovery_count == 1
        assert result.metrics.node_stats[2]["crashes"] == 1

    def test_overload_accounting_is_verified(self):
        result = run_scenario(_live_overload())
        assert result.metrics.total_flow_rejected() > 0
        # A run that miscounts fails, and still reports what it did.
        with pytest.raises(VerificationError,
                           match="overload accounting") as failure:
            run_scenario(_live_overload(_MiscountedRejection()))
        partial = failure.value.scenario_result
        assert any(event.args.get("rejected") for event in partial.timeline)
