"""A node's turn is one write barrier, and its frames leave after it.

A turn is one handler call, one step of a task the node spawned, or the
start hooks of a start or a recovery (:meth:`repro.runtime.node.Node._turn`).
On a store with a disk its records are one journal frame — one append
and one fsync — and the frames it sends reach the medium only once that
frame is durable, whatever the order of ``log`` and ``send`` inside the
code: the paper's log-before-send (Section 4.2) by construction.  A
store without a disk commits nothing, and its frames go straight to the
medium.
"""

from __future__ import annotations

import errno
import itertools
import os

import pytest

from repro.errors import SimulationError
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.live import LiveCluster
from repro.harness.verify import verify_run
from repro.metrics.collector import MetricsCollector
from repro.runtime import Node, NodeComponent, SeedSequence, SimRuntime
from repro.runtime.live_net import LiveNetwork
from repro.storage.disk import InjectedCrashFault, OsDisk, SimDisk
from repro.storage.stable import StableStorage
from repro.transport.endpoint import Endpoint
from repro.transport.message import WireMessage
from repro.transport.network import Network, NetworkConfig


class Ping(WireMessage):
    type = "test.ping"
    fields = ("value",)

    def __init__(self, value):
        self.value = value


class Pong(Ping):
    type = "test.pong"


class Replier(NodeComponent):
    """Answers a ping: logs it under ``logs`` keys and sends a pong, in
    the order the test picks; ``fail`` raises after both."""

    def __init__(self, endpoint, send_first=False, logs=1, fail=False):
        super().__init__()
        self.endpoint = endpoint
        self.send_first = send_first
        self.logs = logs
        self.fail = fail
        self.pongs = []

    def on_start(self):
        self.endpoint.register(Ping.type, self._on_ping)
        self.endpoint.register(Pong.type,
                               lambda msg, sender: self.pongs.append(msg.value))

    def _on_ping(self, msg, sender):
        if self.send_first:
            self.endpoint.send(sender, Pong(msg.value))
        for index in range(self.logs):
            self.node.storage.log(("ping", index), msg.value)
        if not self.send_first:
            self.endpoint.send(sender, Pong(msg.value))
        if self.fail:
            raise ValueError("handler failed after its log and send")


class Pair:
    """Node 0 on ``store``, answering pings; node 1 without a disk."""

    def __init__(self, store, **replier):
        self.sim = SimRuntime()
        self.network = Network(self.sim, SeedSequence(0).stream("net"),
                               NetworkConfig())
        self.nodes, self.repliers = {}, {}
        for node_id, storage in ((0, store), (1, StableStorage())):
            node = Node(self.sim, node_id, storage)
            endpoint = node.add_component(Endpoint(self.network))
            self.repliers[node_id] = node.add_component(
                Replier(endpoint, **replier))
            self.network.register(node)
            self.nodes[node_id] = node
            node.start()

    def ping(self, value):
        """Hand node 0 a ping from node 1, as the transport does."""
        return self.nodes[0].deliver(Ping(value), 1)


def spy(events, obj, name, label):
    real = getattr(obj, name)

    def recording(*args, **kwargs):
        events.append(label)
        return real(*args, **kwargs)
    setattr(obj, name, recording)


class TestSimDisk:
    def test_a_turn_that_crashes_at_its_commit_sends_nothing(self):
        disk = SimDisk()
        pair = Pair(StableStorage(disk))
        pair.ping(1)
        pair.sim.run(until=1.0)
        assert pair.repliers[1].pongs == [1]
        sent = pair.network.metrics.sent

        disk.arm_crash_write("fail")
        with pytest.raises(InjectedCrashFault):
            pair.ping(2)
        pair.sim.run(until=2.0)
        # The pong of the failed turn never reached the medium...
        assert pair.network.metrics.sent == sent
        assert pair.repliers[1].pongs == [1]
        # ...and the store the node restarts on is the previous turn's.
        pair.nodes[0].crash()
        assert pair.nodes[0].storage.retrieve(("ping", 0)) == 1

    @pytest.mark.parametrize("send_first", [False, True],
                             ids=["log-then-send", "send-then-log"])
    def test_the_frame_leaves_after_the_commit(self, send_first):
        disk = SimDisk()
        pair = Pair(StableStorage(disk), send_first=send_first)
        events = []
        spy(events, disk, "append", "append")
        spy(events, disk, "fsync", "fsync")
        spy(events, pair.network, "send", "send")
        pair.ping(1)
        assert events == ["append", "fsync", "send"]
        pair.sim.run(until=1.0)
        assert pair.repliers[1].pongs == [1]

    def test_without_a_disk_the_frame_goes_straight_to_the_medium(self):
        pair = Pair(StableStorage(), send_first=True, logs=0)
        events = []
        spy(events, pair.network, "send", "send")
        real = pair.repliers[0]._on_ping

        def handler(msg, sender):
            real(msg, sender)
            events.append("returned")
        pair.nodes[0].register_handler(Ping.type, handler)
        pair.ping(1)
        assert events == ["send", "returned"]

    def test_a_failing_turn_commits_what_it_logged_and_sends_what_it_sent(
            self):
        disk = SimDisk()
        pair = Pair(StableStorage(disk), fail=True)
        with pytest.raises(ValueError):
            pair.ping(7)
        pair.sim.run(until=1.0)
        assert pair.repliers[1].pongs == [7]
        assert StableStorage(disk).retrieve(("ping", 0)) == 7

    def test_a_barrier_open_past_a_yield_is_refused(self):
        pair = Pair(StableStorage(SimDisk()))
        node = pair.nodes[0]

        def holds_a_barrier_across_a_yield():
            with node.storage.write_barrier():
                node.storage.log("k", 1)
                yield 0.1

        node.spawn(holds_a_barrier_across_a_yield(), "bad")
        with pytest.raises(SimulationError, match="write barrier open"):
            pair.sim.run(until=1.0)


class TestFailingTurns:
    @pytest.mark.parametrize("failing", ["append", "fsync"])
    def test_a_commit_that_fails_sends_nothing(self, tmp_path, failing):
        disk = OsDisk(str(tmp_path))
        pair = Pair(StableStorage(disk))

        def broken(*args):
            raise OSError(5, "Input/output error")
        setattr(disk, failing, broken)
        with pytest.raises(OSError):
            pair.ping(1)
        pair.sim.run(until=1.0)
        assert pair.network.metrics.sent == 0
        assert pair.repliers[1].pongs == []
        assert pair.nodes[0].outbox is None

    def test_a_commit_that_fails_stops_the_node(self, tmp_path):
        disk = OsDisk(str(tmp_path))
        pair = Pair(StableStorage(disk), logs=2)
        pair.ping(1)
        append = disk.append

        def fails_once(data):
            disk.append = append
            raise OSError(errno.EIO, "Input/output error")
        disk.append = fails_once
        node = pair.nodes[0]
        with pytest.raises(OSError):
            pair.ping(2)
        # Fail-stop: down, with no frame of the failed turn released...
        assert not node.up and node.crash_count == 1
        pair.sim.run(until=1.0)
        assert pair.repliers[1].pongs == [1]
        # ...and it restarts on what its journal holds.
        node.recover()
        journal = StableStorage(OsDisk(str(tmp_path)))
        assert [(key, node.storage.retrieve(key))
                for key in node.storage.keys()] == \
            [(key, journal.retrieve(key)) for key in journal.keys()]
        assert node.storage.retrieve(("ping", 1)) == 1

    def test_a_commit_that_fails_on_live_closes_the_socket(self, tmp_path):
        # The live twin: a node that stops itself closes what a process
        # kill closes, and its recovery binds the socket again.
        cluster = LiveCluster(ClusterConfig(n=3, seed=5, protocol="basic",
                                            gossip_interval=0.1),
                              str(tmp_path))
        with cluster:
            cluster.start()
            node, network = cluster.nodes[0], cluster.network
            disk = node.storage.disk
            append = disk.append

            def fails_once(data):
                disk.append = append
                raise OSError(errno.EIO, "Input/output error")
            disk.append = fails_once
            cluster.submit(0, "m-0")
            cluster.run_for(1.0)
            assert not node.up and node.crash_count == 1
            assert 0 not in network._transports
            assert [type(error) for error, _ in
                    cluster.runtime.errors] == [OSError]
            cluster.runtime.errors.clear()
            cluster.recover(0)
            assert node.up and 0 in network._transports
            cluster.submit(0, "m-1")
            assert cluster.settle(within=30.0)

    def test_a_frame_the_medium_refuses_fails_at_its_send(self):
        pair = Pair(StableStorage(SimDisk()), send_first=True)
        with pytest.raises(TypeError):
            pair.ping([1])  # a list cannot cross the medium
        # The handler stopped at the send: its log after it never ran.
        assert pair.nodes[0].storage.retrieve(("ping", 0)) is None
        assert pair.network.metrics.sent == 0


def contents(store):
    return {key: store.retrieve(key) for key in store.keys()}


class TestCrashBetweenCommitAndRelease:
    """A turn's fsync succeeds, then its node dies before any of the
    turn's frames leaves: the journal holds the turn, and the run still
    delivers everything, because the protocols re-send what they owe."""

    @pytest.mark.parametrize("protocol", ["basic", "alternative"])
    def test_the_store_holds_the_turn_and_everything_is_delivered(
            self, protocol):
        cluster = Cluster(ClusterConfig(
            n=3, seed=2, protocol=protocol,
            storage_factory=lambda node_id: StableStorage(SimDisk())))
        victim, network = cluster.nodes[1], cluster.network
        disk = victim.storage.disk
        committed = {}   # the victim's map when the cut turn committed
        cut = []         # True while the cut turn's frames are held
        fsync = disk.fsync

        def committing():
            fsync()
            if not committed and cluster.sim.now >= 0.5 and victim.outbox:
                committed.update(contents(victim.storage))
                cut.append(True)
        disk.fsync = committing

        def releasing(send):
            def release(src, *args):
                if src == victim.node_id and cut:
                    cut.clear()
                    cluster.crash(src)
                if cluster.nodes[src].up:
                    send(src, *args)
            return release
        network.send = releasing(network.send)
        network.multisend = releasing(network.multisend)

        cluster.start()
        for j in range(12):
            cluster.sim.schedule(0.1 + 0.1 * j, cluster.submit, j % 2 * 2,
                                 ("m", j))
        cluster.run(until=2.0)
        assert committed and victim.crash_count == 1
        # The store the crash reopened from the journal holds the turn.
        assert contents(victim.storage) == committed
        cluster.recover(victim.node_id)
        assert cluster.settle(within=60.0)
        report = verify_run(cluster)
        assert len(report.canonical) == 12


class TestGroupCommit:
    def test_one_turn_with_n_logs_is_one_frame(self):
        disk = SimDisk()
        pair = Pair(StableStorage(disk), logs=5)
        store = pair.nodes[0].storage
        events = []
        spy(events, disk, "append", "append")
        spy(events, disk, "fsync", "fsync")
        commits, records = store.group_commits, store.group_commit_records
        pair.ping(3)
        assert events == ["append", "fsync"]
        assert store.group_commits == commits + 1
        assert store.group_commit_records == records + 5
        assert store.metrics.log_ops == 5

    def test_a_task_step_is_one_frame(self):
        pair = Pair(StableStorage(SimDisk()))
        node = pair.nodes[0]
        store = node.storage

        def two_steps():
            for step in range(2):
                for index in range(3):
                    store.log(("step", step, index), index)
                yield 0.1

        commits = store.group_commits
        node.spawn(two_steps(), "writer")
        pair.sim.run(until=1.0)
        assert store.group_commits == commits + 2
        assert store.retrieve(("step", 1, 2)) == 2

    def test_a_start_is_one_frame_and_opens_its_stream_once_durable(self):
        disk = SimDisk()
        sim = SimRuntime()
        sim.sink = collector = MetricsCollector()
        node = Node(sim, 0, StableStorage(disk))

        class Writer(NodeComponent):
            def on_start(self):
                for index in range(3):
                    self.node.storage.log(("boot", index), index)

        node.add_component(Writer())
        node.start()
        assert node.storage.group_commits == 1
        assert (node.starts, len(collector.streams[0])) == (1, 1)
        node.crash()
        disk.arm_crash_write("fail")
        with pytest.raises(InjectedCrashFault):
            node.recover()
        # A recovery cut short by the disk is only a crash.
        assert (node.starts, len(collector.streams[0])) == (1, 1)


def test_live_each_turns_fsync_precedes_the_sendto_of_its_frames(
        tmp_path, monkeypatch):
    """Every turn of a live run that both commits and sends: its fsync
    comes before its frames reach the medium, and no frame of a node
    reaches the socket while that node has a turn not yet durable."""
    serial = itertools.count()
    events = []             # (index, kind, node, turn)
    open_turn = {}          # node -> serial of its turn in progress
    disk_owner = {}         # OsDisk directory -> node

    real_turn = Node._turn

    def turn(self, step, *args):
        if self.outbox is not None or self.storage.disk is None:
            return real_turn(self, step, *args)
        open_turn[self.node_id] = next(serial)
        try:
            return real_turn(self, step, *args)
        finally:
            del open_turn[self.node_id]

    real_fsync, real_send = OsDisk.fsync, LiveNetwork.send
    real_transmit = LiveNetwork._transmit

    def fsync(self):
        node = disk_owner[self.directory]
        events.append((len(events), "fsync", node, open_turn.get(node)))
        real_fsync(self)

    def send(self, src, dst, message):
        events.append((len(events), "release", src, open_turn.get(src)))
        real_send(self, src, dst, message)

    def transmit(self, src, dst, data):
        events.append((len(events), "sendto", src, open_turn.get(src)))
        real_transmit(self, src, dst, data)

    monkeypatch.setattr(Node, "_turn", turn)
    monkeypatch.setattr(OsDisk, "fsync", fsync)
    monkeypatch.setattr(LiveNetwork, "send", send)
    monkeypatch.setattr(LiveNetwork, "_transmit", transmit)
    cluster = LiveCluster(ClusterConfig(n=3, seed=5, protocol="basic",
                                        gossip_interval=0.1), str(tmp_path))
    with cluster:
        for node_id in cluster.nodes:
            disk_owner[os.path.join(str(tmp_path), f"node{node_id}")] = \
                node_id
        cluster.start()
        for i in range(20):
            cluster.runtime.schedule(0.05 + i * 0.02, cluster.submit,
                                     i % 3, f"m-{i}")
        cluster.run_for(0.6)
        assert cluster.settle(within=30.0)

    by_turn = {}
    for index, kind, node, turn_id in events:
        if turn_id is not None:
            by_turn.setdefault(turn_id, []).append((index, kind))
    committed = [marks for marks in by_turn.values()
                 if {"fsync", "release"} <= {kind for _, kind in marks}]
    assert len(committed) >= 20
    for marks in committed:
        fsyncs = [index for index, kind in marks if kind == "fsync"]
        sends = [index for index, kind in marks if kind != "fsync"]
        assert max(fsyncs) < min(sends), marks
    # A datagram leaves only outside its node's turn, or in the turn's
    # release, after its fsync: never between a turn's start and commit.
    for index, kind, node, turn_id in events:
        if kind == "sendto" and turn_id is not None:
            assert all(i < index for i, k in by_turn[turn_id]
                       if k == "fsync")
