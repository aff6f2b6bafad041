"""Cross-runtime conformance: sim and live A-deliver the same stream.

One scenario — 3 nodes, 30 single-sender broadcasts, one kill/restart of
the highest node — runs on both runtime implementations:

* ``SimRuntime``: virtual time, simulated lossy network, in-memory
  storage surviving crashes;
* ``LiveRuntime``: real asyncio timing, localhost UDP datagrams with
  injected loss/duplication, fsync'd files surviving a process-style
  kill (socket closed, storage handle discarded, recovery replays from
  disk).

Both runs must pass the omniscient verifier (Validity, Integrity, Total
Order, Termination) and produce the *identical* canonical delivery
order.  A single sender makes that comparison sound: batches respect the
deterministic MessageId order and gossip carries whole Unordered sets,
so any batch containing message *i+1* also contains every undelivered
message up to *i* — the canonical sequence is then a pure function of
the submission sequence, whatever the timing.

Both runs are one timeline through one runner
(:func:`~repro.harness.scenario.run_scenario`), and both clusters are
one :class:`~repro.harness.cluster.ClusterCore` body, so the same module
also pins the surface: the two classes drive their clocks through the
same methods, ``metrics()`` has the same shape on both, and
cluster-level crash/recover do nothing to a node already in that state.
"""

from __future__ import annotations

import pytest

from repro.chaos.events import ChaosEvent
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.live import LiveCluster
from repro.harness.scenario import Scenario, run_scenario
from repro.harness.verify import verify_run
from repro.metrics.collector import RunMetrics
from repro.transport.network import NetworkConfig

N_NODES = 3
N_MESSAGES = 30
SEED = 11
PAYLOADS = [f"conf-{i}" for i in range(N_MESSAGES)]
# One timeline for both runtimes (virtual seconds == wall seconds):
# 30 submissions from node 0 over [0.05, 1.55), node 2 killed at 0.8
# (mid-stream) and restarted at 1.4, so recovery must replay from its
# log while the sender keeps broadcasting.
SUBMIT_TIMES = [0.05 + i * 0.05 for i in range(N_MESSAGES)]
KILL_AT = 0.8
RESTART_AT = 1.4
RUN_UNTIL = 2.0
VICTIM = N_NODES - 1


def _config() -> ClusterConfig:
    return ClusterConfig(
        n=N_NODES, seed=SEED, protocol="basic",
        network=NetworkConfig(loss_rate=0.05, duplicate_rate=0.05),
        gossip_interval=0.1)


def _canonical_payloads(cluster) -> list:
    report = verify_run(cluster)
    payloads = cluster.collector.broadcast_payloads
    return [payloads[mid] for mid in report.canonical]


def _run(runtime: str, directory=None) -> tuple:
    """The one timeline through the scenario runner on ``runtime``."""
    timeline = [ChaosEvent(when, "submit", node=0, payload=payload)
                for when, payload in zip(SUBMIT_TIMES, PAYLOADS)]
    timeline += [ChaosEvent(KILL_AT, "crash", node=VICTIM),
                 ChaosEvent(RESTART_AT, "recover", node=VICTIM)]
    timeline.sort(key=lambda event: event.time)
    result = run_scenario(Scenario(
        _config(), runtime=runtime, timeline=timeline, duration=RUN_UNTIL,
        settle_limit=RUN_UNTIL + 30.0, directory=directory))
    cluster = result.cluster
    assert cluster.nodes[VICTIM].recovery_count == 1
    # The kill really crossed a process boundary: datagrams flowed.
    assert cluster.network.metrics.sent > 0
    payloads = cluster.collector.broadcast_payloads
    return [payloads[mid] for mid in result.report.canonical], result.metrics


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    live = _run("live", str(tmp_path_factory.mktemp("live-cluster")))
    return {"sim": _run("sim"), "live": live}


@pytest.fixture(scope="module")
def canonical_orders(runs):
    return {runtime: order for runtime, (order, _) in runs.items()}


@pytest.mark.parametrize("runtime", ["sim", "live"])
def test_runtime_passes_verifier_and_delivers_everything(
        canonical_orders, runtime):
    # The scenario runner already ran the omniscient verifier (it raises
    # on any property violation); here we pin down completeness.
    order = canonical_orders[runtime]
    assert len(order) == N_MESSAGES
    assert sorted(order) == sorted(PAYLOADS)


def test_delivery_order_identical_across_runtimes(canonical_orders):
    assert canonical_orders["live"] == canonical_orders["sim"]
    # And the single-sender argument predicts submission order exactly.
    assert canonical_orders["sim"] == PAYLOADS


def _public_methods(cls) -> set:
    return {name for name in dir(cls)
            if not name.startswith("_") and callable(getattr(cls, name))}


def test_cluster_surfaces_differ_only_in_the_clock():
    # run(until) / run_for(seconds) / settle(within) drive either clock.
    sim, live = _public_methods(Cluster), _public_methods(LiveCluster)
    assert sim - live == set()
    assert live - sim == {"close", "kill", "restart"}
    # kill/restart are names for the shared crash/recover, not a fork.
    assert LiveCluster.kill is LiveCluster.crash
    assert LiveCluster.restart is LiveCluster.recover


def test_metrics_have_the_same_shape_on_both_runtimes(runs):
    sim, live = runs["sim"][1], runs["live"][1]
    assert isinstance(live, RunMetrics)
    assert sorted(live.node_stats) == sorted(sim.node_stats)
    for node_id, stats in sim.node_stats.items():
        assert live.node_stats[node_id].keys() == stats.keys()
    for metrics in (sim, live):
        assert metrics.node_stats[VICTIM]["recoveries"] == 1
        assert metrics.node_stats[VICTIM]["crashes"] == 1


def _assert_crash_recover_idempotent(cluster, fingerprint) -> None:
    """``fingerprint(node_id)`` is everything a redundant call must not
    touch: the storage handle, the counters and (live) the UDP port."""
    cluster.start()
    before = fingerprint(0)
    cluster.recover(0)                      # already up
    assert fingerprint(0) == before
    cluster.crash(VICTIM)
    down = fingerprint(VICTIM)
    cluster.crash(VICTIM)                   # already down
    assert fingerprint(VICTIM) == down
    cluster.recover(VICTIM)
    node = cluster.nodes[VICTIM]
    assert (node.up, node.crash_count, node.recovery_count) == (True, 1, 1)


def test_redundant_crash_and_recover_do_nothing_on_sim():
    cluster = Cluster(_config())

    def fingerprint(node_id):
        node = cluster.nodes[node_id]
        return node.storage, node.crash_count, node.recovery_count

    _assert_crash_recover_idempotent(cluster, fingerprint)


def test_redundant_kill_and_restart_do_nothing_on_live(tmp_path):
    """``restart`` of an up node used to re-bind its socket (new port,
    coalescing buffers dropped) and ``kill`` of a down node used to swap
    the storage handle a second time."""
    with LiveCluster(_config(), str(tmp_path)) as cluster:

        def fingerprint(node_id):
            node = cluster.nodes[node_id]
            return (cluster.network.ports.get(node_id), node.storage,
                    node.crash_count, node.recovery_count)

        _assert_crash_recover_idempotent(cluster, fingerprint)


def test_live_survives_heavy_loss_via_stubborn_channels(tmp_path):
    """20% injected UDP loss, zero protocol-level message loss.

    The live network drops every fifth datagram on the floor; the
    stubborn-channel layer (on by default for the live harness) must
    turn that fair-lossy link back into a reliable one by ack-gated
    retransmission, so the verifier still sees every submission
    A-delivered everywhere.  This is the Aguilera/Chen/Toueg stubborn
    link assumption the paper's protocols are written against,
    demonstrated on real sockets rather than assumed.
    """
    n_messages = 20
    cluster = LiveCluster(ClusterConfig(
        n=N_NODES, seed=SEED, protocol="basic",
        network=NetworkConfig(loss_rate=0.2),
        gossip_interval=0.1), str(tmp_path))
    with cluster:
        cluster.start()
        for i in range(n_messages):
            cluster.runtime.schedule(0.05 + i * 0.05, cluster.submit,
                                     0, f"loss-{i}")
        cluster.run_for(0.05 + n_messages * 0.05)
        assert cluster.settle(within=30.0), "lossy live run did not settle"
        order = _canonical_payloads(cluster)
        # Zero protocol-level loss: everything submitted was ordered
        # and delivered, in submission order (single sender).
        assert order == [f"loss-{i}" for i in range(n_messages)]
        # The loss was real and the recovery mechanism did the work.
        assert cluster.network.metrics.lost > 0
        assert cluster.stubborn is not None
        assert cluster.stubborn.metrics.retransmissions > 0
        assert cluster.stubborn.metrics.acks_received > 0
