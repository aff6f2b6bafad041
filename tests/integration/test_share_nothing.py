"""Nodes share nothing but the medium, checked where values are sized.

The simulator delivers the sender's object and ``MemoryStorage`` keeps
the logged one, so a mutable container in a sent or logged value would
couple nodes by reference.  The size model refuses one at any depth
(:func:`repro.storage.codec.size`); both media refuse a storage object
shared by two nodes.  Each test below fails if its check is removed.
"""

from __future__ import annotations

import pytest

from repro.apps.bank import Bank
from repro.apps.certifier import CertifyingDatabase, make_transaction
from repro.apps.counter import SequenceRecorder
from repro.apps.kvstore import KeyValueStore
from repro.core.ids import MessageId
from repro.core.messages import AppMessage, GossipMessage
from repro.errors import SimulationError
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.verify import verify_run
from repro.runtime.live import LiveRuntime
from repro.runtime.live_net import LiveNetwork
from repro.runtime.node import Node
from repro.storage import codec
from repro.storage.memory import MemoryStorage


def started(**overrides):
    config = dict(n=3, seed=3)
    config.update(overrides)
    cluster = Cluster(ClusterConfig(**config))
    cluster.start()
    cluster.run(until=1.0)
    return cluster


PROBE = AppMessage(MessageId(0, 77, 1), "probe")


def held_anywhere(cluster, mid):
    return any(mid in ab.unordered or
               any(m.id == mid for m in ab.agreed.sequence())
               for ab in cluster.abcasts.values())


class TestMutableMessagesAreRefusedAtTheFirstSend:
    @pytest.mark.parametrize("fields", [
        dict(payloads={PROBE}),                               # a set field
        dict(payloads=frozenset({PROBE}),
             known=("digest", set())),                        # nested
    ], ids=["set-field", "nested-set"])
    def test_gossip_raises_and_delivers_nothing(self, fields):
        cluster = started()
        ab = cluster.abcasts[0]
        gossip = GossipMessage(ab.k, **fields)
        with pytest.raises(TypeError, match="immutable"):
            ab.endpoint.multisend(gossip)
        cluster.run(until=cluster.sim.now + 2.0)
        assert not held_anywhere(cluster, PROBE.id)


class TestMutablePayloadIsRefusedAtSubmit:
    @pytest.mark.parametrize("protocol", ["basic", "sequencer"])
    def test_list_payload_raises_and_consumes_no_id(self, protocol):
        cluster = started(protocol=protocol)
        ab = cluster.abcasts[1]
        seq = ab._seq
        with pytest.raises(TypeError, match="list"):
            cluster.submit(1, ["put", "k", 1])
        assert ab._seq == seq
        accepted = cluster.submit(1, ("put", "k", 1))
        assert accepted.id.seq == seq + 1
        assert cluster.settle(within=30.0)
        verify_run(cluster)
        assert all(accepted in other.agreed
                   for other in cluster.abcasts.values())


def applied(app, payloads):
    for seq, payload in enumerate(payloads, start=1):
        app.apply(AppMessage(MessageId(0, 1, seq), payload))
    return app


@pytest.mark.parametrize("app", [
    applied(SequenceRecorder(), ["a", ("b", 2), None]),
    applied(KeyValueStore(), [("put", "k", 1), ("append", "l", "x"),
                              ("append", "l", "y"), ("del", "k")]),
    applied(Bank(), [("open", "a", 10), ("deposit", "b", 5),
                     ("transfer", "a", "b", 3), ("transfer", "b", "a", 99)]),
    applied(CertifyingDatabase(), [
        make_transaction("t1", [("x", 0)], [("x", 1)]),
        make_transaction("t2", [("x", 0)], [("y", 2)])]),
], ids=["recorder", "kvstore", "bank", "certifier"])
def test_application_snapshots_are_immutable_values(app):
    state = app.snapshot()
    assert codec.size(state) > 0
    clone = type(app)()
    clone.restore(state)
    assert clone.snapshot() == state


class TestStorageIsNotShared:
    def test_sim_network_refuses_a_shared_storage(self):
        shared = MemoryStorage()
        with pytest.raises(SimulationError, match="shares its storage"):
            Cluster(ClusterConfig(n=3, storage_factory=lambda i: shared))

    def test_live_network_refuses_a_shared_storage(self):
        runtime = LiveRuntime(seed=0)
        try:
            network = LiveNetwork(runtime)
            shared = MemoryStorage()
            network.register(Node(runtime, 0, shared))
            with pytest.raises(SimulationError, match="shares its storage"):
                network.register(Node(runtime, 1, shared))
            network.register(Node(runtime, 1, MemoryStorage()))
            assert network.node_ids() == (0, 1)
        finally:
            runtime.close()
