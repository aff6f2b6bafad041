"""Chaos-sweep property: uniform agreed-delivery order, 50 seeds.

Each seed fully determines one scenario — cluster size, protocol, base
loss, stubborn channels, nemesis subset, fault timeline and workload —
so this file is a seeded property test where the generator is the chaos
engine itself.  Two layers of checking:

* the sweep: 50 seeds run through :func:`repro.chaos.engine.run_seed`,
  whose scenario runner hands every cluster to the omniscient verifier
  (Validity, Integrity, Uniform Total Order, Termination);
* an independent re-derivation: for a handful of seeds the raw delivery
  trace is re-examined here, without the verifier, by asserting that any
  two delivery sequences agree on the relative order of every message
  they share.  That is Uniform Total Order stated directly on the trace
  (Section 3.4) — crashed incarnations included, since the collector
  records deliveries per (node, incarnation).
"""

from __future__ import annotations

import pytest

from repro.chaos.engine import ChaosConfig, explore, plan_scenario
from repro.chaos.events import ChaosEvent
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import Scenario, run_scenario
from repro.transport.network import NetworkConfig

N_SEEDS = 50
MASTER_SEED = 7


def test_fifty_chaos_seeds_all_verify():
    config = ChaosConfig(seeds=N_SEEDS, master_seed=MASTER_SEED)
    report = explore(config)
    failures = "\n".join(result.describe() + "\n" + (result.error or "")
                         for result in report.failures)
    assert report.ok, f"{len(report.failures)}/{N_SEEDS} seeds failed:\n" \
                      f"{failures}"
    # The sweep must not be vacuous: real faults and real deliveries.
    totals = report.totals()
    assert totals.get("delivered", 0) > 0
    assert totals.get("crash", 0) + totals.get("disk_crash", 0) > 0
    assert totals.get("partition", 0) > 0
    assert totals.get("loss", 0) > 0


def _orders_for_seed(seed: int):
    """Run one derived scenario and return every delivery sequence.

    Mirrors the engine's scenario through public API only (no
    FaultyStorage: armed-disk events then no-op, which the controller's
    ``_apply_torn_write`` guard permits), so this check cannot silently
    depend on the engine's own derivation of the run.
    """
    config = ChaosConfig(seeds=1, master_seed=MASTER_SEED)
    params, _, events = plan_scenario(config, seed)
    result = run_scenario(Scenario(
        ClusterConfig(n=params["n"], seed=params["cluster_seed"],
                      protocol=params["protocol"],
                      network=NetworkConfig(loss_rate=params["base_loss"]),
                      stubborn=params["stubborn"]),
        timeline=events + [ChaosEvent(config.horizon, "restore")],
        duration=config.horizon, settle_limit=config.horizon + 300.0))
    collector = result.cluster.collector
    orders = []
    for node_id in result.cluster.nodes:
        for incarnation in collector.incarnations_of(node_id):
            sequence = collector.delivered_ids(node_id, incarnation)
            if sequence:
                orders.append(((node_id, incarnation), sequence))
    return orders


def _relative_order_conflicts(a, b):
    """Message pairs the two sequences deliver in opposite orders."""
    pos_a = {mid: i for i, mid in enumerate(a)}
    pos_b = {mid: i for i, mid in enumerate(b)}
    common = [mid for mid in a if mid in pos_b]
    conflicts = []
    for i, first in enumerate(common):
        for second in common[i + 1:]:
            if pos_b[first] > pos_b[second]:
                conflicts.append((first, second))
    return conflicts


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_uniform_order_rederived_from_raw_trace(seed):
    orders = _orders_for_seed(seed)
    assert orders, "scenario produced no deliveries at all"
    for i, (who_a, a) in enumerate(orders):
        for who_b, b in orders[i + 1:]:
            conflicts = _relative_order_conflicts(a, b)
            assert not conflicts, (
                f"{who_a} and {who_b} disagree on relative delivery "
                f"order of {conflicts[:3]}")
    # No incarnation ever delivers the same message twice (Integrity).
    for who, sequence in orders:
        assert len(sequence) == len(set(sequence)), \
            f"{who} delivered a message twice"
