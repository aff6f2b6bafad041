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


def test_live_survives_heavy_loss_via_protocol_repair(tmp_path):
    """20% injected UDP loss, zero protocol-level message loss.

    The live network drops every fifth datagram on the floor, and no
    stubborn layer stands between it and the protocols: the gossip
    re-push, the leader's pull, Paxos retries with ``Query`` and
    ``pull_decision`` must turn that fair-lossy link into complete
    delivery by themselves, exactly as on the simulator, so the verifier
    still sees every submission A-delivered everywhere.
    """
    n_messages = 20
    cluster = LiveCluster(ClusterConfig(
        n=N_NODES, seed=SEED, protocol="basic",
        network=NetworkConfig(loss_rate=0.2),
        gossip_interval=0.1), str(tmp_path))
    pushed = {}
    send = cluster.network.send

    def counting(src, dst, message):
        if message.type == "ab.gossip":
            for payload in message.payloads:
                key = (dst, payload.id)
                pushed[key] = pushed.get(key, 0) + 1
        send(src, dst, message)
    cluster.network.send = counting
    with cluster:
        assert cluster.stubborn is None
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
        # The loss was real and the protocols repaired it: a decision
        # pulled with a Query, or a payload pushed again to a peer.
        assert cluster.network.metrics.lost > 0
        queries = cluster.network.metrics.by_type.get("paxos.query", 0)
        assert queries > 0 or max(pushed.values(), default=0) > 1


def test_live_restarted_node_pulls_the_rounds_it_missed(tmp_path):
    """With no stubborn layer, a restarted node learns every round
    decided while it was down at a round trip each, not a gossip tick
    each: its round reaches the leader's within a second."""
    cluster = LiveCluster(ClusterConfig(
        n=N_NODES, seed=SEED, protocol="basic", gossip_interval=0.1),
        str(tmp_path))
    with cluster:
        assert cluster.stubborn is None
        cluster.start()
        cluster.run_for(0.3)
        victim = cluster.abcasts[VICTIM]
        back = victim.k
        cluster.kill(VICTIM)
        for i in range(N_MESSAGES):
            cluster.runtime.schedule(0.02 + i * 0.04, cluster.submit,
                                     0, f"gap-{i}")
        cluster.run_for(0.02 + N_MESSAGES * 0.04 + 0.3)
        leader_k = cluster.abcasts[0].k
        assert leader_k - back >= 10
        cluster.restart(VICTIM)
        restarted = cluster.runtime.now
        while victim.k < leader_k and cluster.runtime.now < restarted + 5:
            cluster.run_for(0.01)
        assert victim.k >= leader_k
        assert cluster.runtime.now - restarted <= 1.0
        assert cluster.settle(within=10.0)
        assert len(_canonical_payloads(cluster)) == N_MESSAGES
