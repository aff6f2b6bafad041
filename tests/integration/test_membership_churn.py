"""Integration tests for elastic reconfiguration: the seeded churn
scenario, view-timeline reproducibility and the chaos churn nemesis."""

from __future__ import annotations

from repro.chaos.controller import SimChaosController
from repro.chaos.engine import ChaosConfig, explore
from repro.chaos.events import ChaosEvent
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.scenario import check_reproducible, run_scenario
from repro.membership.scenario import ChurnReport, churn_scenario


def run_churn(seed):
    """One verified churn run, with this scenario's extra demand: every
    joiner bootstrapped through a real state transfer.  (Not a general
    invariant — a joiner can complete its join in place — so the runner
    does not check it.)"""
    result = run_scenario(churn_scenario(seed=seed))
    report = ChurnReport(result)
    for joiner in report.joiners:
        assert result.cluster.abcasts[joiner].state_transfers_adopted >= 1
    return report


class TestChurnScenario:
    def test_seeded_churn_run_verifies(self):
        report = run_churn(seed=0)
        # n=5 grew by two state-transfer joins, then shrank by two
        # evictions (one while the victim was crashed) and a leave.
        assert report.final_view.epoch == 5
        assert report.final_view.members == (0, 1, 5, 6)
        assert report.joiners == [5, 6]
        assert report.transfers_adopted >= 2
        # Uniform total order held across every epoch.
        assert report.verification is not None

    def test_joiners_bootstrap_by_state_transfer(self):
        report = run_churn(seed=2)
        for joiner in report.joiners:
            assert joiner in report.final_view.members

    def test_view_timeline_reproducible(self):
        # Same seed, two full runs: the (node, epoch, members, origin)
        # install sequence — with the rest of the signature — must be
        # bit-identical.
        check_reproducible(churn_scenario(seed=0))

    def test_view_installs_monotone_per_node(self):
        report = run_churn(seed=1)
        last: dict = {}
        for install in report.view_installs:
            node_id, epoch = install[0], install[1]
            assert epoch > last.get(node_id, -1)
            last[node_id] = epoch

    def test_evicted_but_up_node_is_covered(self):
        # Node 2 is evicted while down and recovers afterwards: it runs
        # outside the final view and must not hold settling hostage.
        result = run_scenario(churn_scenario(seed=0))
        assert result.cluster.nodes[2].up
        assert 2 not in result.cluster.current_view().members
        # Node 3 is evicted while up, which crashes it.
        assert not result.cluster.nodes[3].up


class TestChurnNemesis:
    def test_small_churn_sweep_verifies(self):
        config = ChaosConfig(seeds=3, churn=True, master_seed=7)
        report = explore(config)
        assert report.ok, [f.error for f in report.failures]

    def test_churn_absent_from_default_sweep(self):
        config = ChaosConfig(seeds=1)
        assert all(nemesis.name != "churn" for nemesis in config.nemeses)

    def test_churn_flag_appends_nemesis(self):
        config = ChaosConfig(seeds=1, churn=True)
        assert any(nemesis.name == "churn" for nemesis in config.nemeses)


class TestChurnControllerGuards:
    def _controller(self, n=3):
        cluster = Cluster(ClusterConfig(n=n, seed=0,
                                        protocol="alternative"))
        cluster.start()
        cluster.sim.run(until=1.0)
        return SimChaosController(cluster, base_loss=0.0)

    def test_join_of_existing_node_skipped(self):
        controller = self._controller()
        controller.apply(ChaosEvent(1.0, "join", node=2))
        assert controller.applied == []

    def test_removal_below_two_members_skipped(self):
        controller = self._controller(n=2)
        controller.apply(ChaosEvent(1.0, "leave", node=1))
        assert controller.applied == []
        assert controller.cluster.current_view().members == (0, 1)

    def test_removal_of_non_member_skipped(self):
        controller = self._controller()
        controller.apply(ChaosEvent(1.0, "evict", node=9))
        assert controller.applied == []

    def test_evict_crashes_running_victim(self):
        controller = self._controller()
        controller.apply(ChaosEvent(1.0, "evict", node=2))
        assert not controller.cluster.nodes[2].up
        kinds = [event.kind for event in controller.applied]
        assert kinds == ["evict", "crash"]

    def test_leave_keeps_victim_running(self):
        controller = self._controller()
        controller.apply(ChaosEvent(1.0, "leave", node=2))
        assert controller.cluster.nodes[2].up
        controller.cluster.sim.run(until=5.0)
        assert controller.cluster.current_view().members == (0, 1)
