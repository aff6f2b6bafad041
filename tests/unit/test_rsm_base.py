"""Unit tests for the ReplicatedStateMachine glue component."""

from __future__ import annotations

import pytest

from repro.apps.base import Application, ReplicatedStateMachine
from repro.harness.cluster import Cluster, ClusterConfig
from repro.transport.network import NetworkConfig


def build(protocol="basic", seed=0):
    cluster = Cluster(ClusterConfig(
        n=3, seed=seed, protocol=protocol,
        network=NetworkConfig(loss_rate=0.02)))
    cluster.start()
    return cluster


class TestWiring:
    def test_app_factory_called_per_start(self):
        cluster = build(seed=81)
        rsm = cluster.rsms[0]
        first_app = rsm.app
        cluster.nodes[0].crash()
        cluster.nodes[0].recover()
        assert rsm.app is not first_app  # fresh volatile state

    def test_incarnation_and_stream_counters(self):
        cluster = build(seed=82)
        rsm = cluster.rsms[1]
        assert rsm.incarnation == 1
        assert rsm.stream == 1
        cluster.nodes[1].crash()
        cluster.nodes[1].recover()
        assert rsm.incarnation == 2
        assert rsm.stream == 2
        rsm.on_restore(None)
        assert rsm.stream == 3  # restores open a new delivery stream

    def test_applied_count_tracks_deliveries(self):
        cluster = build(seed=83)
        for j in range(5):
            cluster.sim.schedule(0.5 + 0.2 * j, cluster.submit, 0, j)
        cluster.run(until=12.0)
        assert cluster.rsms[2].applied_count == 5

    def test_submit_records_broadcast_with_collector(self):
        cluster = build(seed=84)
        cluster.run(until=0.5)
        message = cluster.rsms[0].submit("tracked")
        assert message.id in cluster.collector.broadcast_times
        assert cluster.collector.broadcast_payloads[message.id] == \
            "tracked"

    def test_blocking_broadcast_generator(self):
        cluster = build(seed=85)
        done = []

        def client():
            yield 0.5
            message = yield from cluster.rsms[1].broadcast("blocking")
            done.append(message.payload)

        cluster.nodes[1].spawn(client(), "client")
        cluster.run(until=12.0)
        assert done == ["blocking"]

    def test_checkpoint_provider_registered_on_alternative(self):
        cluster = build(protocol="alternative", seed=86)
        abcast = cluster.abcasts[0]
        assert abcast._app_checkpoint is not None
        # The provider is the live app's snapshot method.
        snapshot = abcast._app_checkpoint()
        assert snapshot == cluster.rsms[0].app.snapshot()

    def test_abstract_application_contract(self):
        app = Application()
        from repro.core.ids import MessageId
        from repro.core.messages import AppMessage
        with pytest.raises(NotImplementedError):
            app.apply(AppMessage(MessageId(0, 1, 1), None))
        with pytest.raises(NotImplementedError):
            app.snapshot()
        with pytest.raises(NotImplementedError):
            app.restore(None)
