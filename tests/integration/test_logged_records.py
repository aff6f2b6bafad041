"""Logged records are immutable values, kept by reference.

Stable storage returns the object ``log`` was given, so on the
``alternative`` stack, whose checkpoint base carries the application
state from ``A-checkpoint``, that state must be an immutable value the
application never changes after handing it out, and ``restore`` must
copy what it is given.
"""

from __future__ import annotations

import copy

from repro.apps.kvstore import KeyValueStore
from repro.core.alternative import AlternativeConfig
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.verify import verify_run


def build(**overrides):
    config = dict(n=3, seed=7, protocol="alternative",
                  alt=AlternativeConfig(checkpoint_interval=None,
                                        delta=None, log_unordered=True))
    config.update(overrides)
    cluster = Cluster(ClusterConfig(**config))
    cluster.start()
    return cluster


def put(cluster, node_id, first, count):
    for j in range(first, first + count):
        cluster.submit(node_id, ("put", f"k{j}", j))
    cluster.run(until=cluster.sim.now + 3.0)


class TestApplicationStateInTheBase:
    def test_logged_state_survives_restore_and_later_commands(self):
        cluster = build(app_factory=KeyValueStore)
        ab, storage = cluster.abcasts[2], cluster.nodes[2].storage
        put(cluster, 0, 0, 6)
        ab.take_checkpoint()            # the first tick folds: a base
        base = storage.retrieve(ab.CHECKPOINT_KEY)
        state = base[1][0]
        items, version = state
        assert dict(items) == {f"k{j}": j for j in range(6)}
        assert version == 6
        expected = copy.deepcopy(state)

        cluster.nodes[2].crash()
        cluster.nodes[2].recover()      # restores the app from ``state``
        put(cluster, 0, 6, 6)
        assert cluster.settle(within=60.0)
        verify_run(cluster)

        assert cluster.app(2).data == {f"k{j}": j for j in range(12)}
        assert storage.retrieve(ab.CHECKPOINT_KEY) is base
        assert state == expected and base[1][0] is state
