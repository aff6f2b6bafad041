"""Logged records are immutable values, kept by reference.

``MemoryStorage`` returns the object ``log`` was given, so two things
must hold on the ``alternative`` stack, whose checkpoint base is the one
record with a mutable value nested inside it (the application state
from ``A-checkpoint``): the application never mutates a state it handed
out, and ``restore`` copies what it is given.  And because the records
changed from lists to tuples, a ``FileStorage`` directory written in the
list layout must still recover.
"""

from __future__ import annotations

import copy

from repro.apps.kvstore import KeyValueStore
from repro.core.alternative import AlternativeConfig
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.verify import verify_run
from repro.storage.file import FileStorage


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
        assert state["data"] == {f"k{j}": j for j in range(6)}
        expected = copy.deepcopy(state)

        cluster.nodes[2].crash()
        cluster.nodes[2].recover()      # restores the app from ``state``
        put(cluster, 0, 6, 6)
        assert cluster.settle(within=60.0)
        verify_run(cluster)

        assert cluster.app(2).data == {f"k{j}": j for j in range(12)}
        assert storage.retrieve(ab.CHECKPOINT_KEY) is base
        assert state == expected and base[1][0] is state


def as_lists(value):
    """The record layout before logged records became tuples: every
    plain tuple a list, all the way down."""
    if type(value) is tuple:
        return [as_lists(item) for item in value]
    return value


class TestListLayoutStillRecovers:
    def test_base_segment_and_unordered_log_written_as_lists(self, tmp_path):
        cluster = build(storage_factory=lambda i: FileStorage(
            str(tmp_path / f"node{i}")))
        ab, storage = cluster.abcasts[2], cluster.nodes[2].storage
        put(cluster, 0, 0, 6)
        ab.take_checkpoint()            # base
        put(cluster, 1, 6, 4)
        ab.take_checkpoint()            # a segment extending it
        k, delivered = ab.k, ab.delivered_count()
        pending = cluster.submit(2, ("put", "late", 1))
        cluster.nodes[2].crash()        # logged in Unordered, not ordered

        keys = [ab.CHECKPOINT_KEY, ab.UNORDERED_KEY] + \
            list(storage.keys(ab.SEGMENT_KEY))
        assert len(keys) == 3
        for key in keys:
            record = storage.retrieve(key)
            assert type(record) is tuple
            storage.log(key, as_lists(record))
        assert storage.retrieve_list(ab.UNORDERED_KEY) == [pending]

        cluster.nodes[2].recover()
        ab = cluster.abcasts[2]
        assert (ab.k, ab.delivered_count()) == (k, delivered)
        assert pending.id in ab.unordered
        cluster.run(until=cluster.sim.now + 3.0)
        assert cluster.settle(within=60.0)
        verify_run(cluster)
        assert all(pending in other.agreed
                   for other in cluster.abcasts.values())
