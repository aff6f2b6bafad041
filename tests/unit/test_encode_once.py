"""Each value is encoded once: the codec's caches, and where they end.

An ``AppMessage`` keeps its encoding from its first encode (or from the
frame it was decoded from) until the Agreed queue takes it; a message
keeps its ``(type-id, body)`` once encoded; stable storage reads its
map, so no read touches a file.  A cache must never change a byte: warm
encodings equal cold ones, and a received frame re-encodes to exactly
the bytes it arrived as.
"""

from __future__ import annotations

import os
import random

from repro.consensus.paxos import make_ballot
from repro.core.ids import MessageId
from repro.core.messages import AppMessage, GossipMessage
from repro.harness.cluster import ClusterConfig
from repro.harness.live import LiveCluster
from repro.runtime import wire, wirefuzz
from repro.runtime.live import LiveRuntime
from repro.runtime.live_net import LiveNetwork
from repro.runtime.node import Node
from repro.storage import codec
from repro.storage.disk import JOURNAL, OsDisk
from repro.storage.stable import StableStorage


def on_files(directory):
    return StableStorage(OsDisk(str(directory)))


def msg(seq, payload="p"):
    return AppMessage(MessageId(0, 1, seq), payload)


class TestWarmEqualsCold:
    def test_every_message_class(self):
        """Two equal messages built apart: encoding one twice (cold, then
        from its caches) and the other once give the same frame."""
        for tag, cls in wirefuzz.registered_classes():
            for seed in range(12):
                fields = wirefuzz.random_fields(cls, random.Random(seed))
                twin = wirefuzz.random_fields(cls, random.Random(seed))
                message = wire.rebuild(cls, fields)
                cold = wire.encode_frame(3, message)
                assert message._wire is not None, tag
                assert wire.encode_frame(3, message) == cold, tag
                assert wire.encode_frame(3, wire.rebuild(cls, twin)) == \
                    cold, tag

    def test_multisend_legs_share_one_body(self, monkeypatch):
        """A message's ``(type-id, body)`` is computed on its first encode
        and kept: the next leg of a multisend packs no field again."""
        packed = []
        pack = codec.pack

        def counting_pack(value, out, depth=0):
            packed.append(value)
            pack(value, out, depth)

        monkeypatch.setattr(codec, "pack", counting_pack)
        message = GossipMessage(2, frozenset({msg(1)}))
        first = wire.encode_frame(0, message)
        body, calls = message._wire, len(packed)
        second = wire.encode_frame(1, message)
        assert calls > 0 and len(packed) == calls
        assert message._wire is body
        assert body[1] in first and body[1] in second

    def test_every_codec_registered_class(self):
        # AppMessage is the one registered class; an acceptor record
        # (ballot, value, commit point) carries it inside a tuple.
        for make in (lambda: msg(7, ("put", "k", 1.5)),
                     lambda: (make_ballot(3, 2, 1),
                              frozenset({msg(8)}), 1 << 40)):
            value = make()
            cold = codec.encode(value)
            assert codec.encode(value) == cold
            assert codec.encode(make()) == cold
            assert codec.encode((value, 1)) == codec.encode((make(), 1))
            assert codec.decode(cold) == value

    def test_app_message_caches_until_released(self):
        message = msg(4)
        assert message._encoded is None
        cold = codec.encode(message)
        assert message._encoded == cold
        message.release_encoding()
        assert codec.encode(message) == cold
        assert message._encoded is False     # released for good


class TestReceivedFrames:
    def test_received_frame_reencodes_byte_identically(self):
        rng = random.Random(5)
        for _ in range(300):
            message = wirefuzz.random_message(rng)
            data = wire.encode_frame(9, message)
            sender, got = wire.decode(data)
            assert sender == 9
            assert wire.encode_frame(9, got) == data

    def test_app_message_keeps_the_bytes_it_arrived_as(self):
        payloads = frozenset({msg(1, "alpha"), msg(2, ("tuple", 7))})
        data = wire.encode_frame(0, GossipMessage(3, payloads))
        _, got = wire.decode(data)
        for message in got.payloads:
            assert message._encoded == \
                codec.encode(AppMessage(message.id, message.payload))
            assert message._encoded in data


class TestKnownKeys:
    """The store's map is what it holds: no read and no listing of keys
    touches the disk."""

    def _count_opens(self, monkeypatch):
        opened = []
        real_open, real_os_open = open, os.open

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return real_open(path, *args, **kwargs)

        def counting_os_open(path, *args, **kwargs):
            opened.append(path)
            return real_os_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        monkeypatch.setattr(os, "open", counting_os_open)
        return opened

    def test_absent_key_read_makes_no_open_call(self, tmp_path, monkeypatch):
        storage = on_files(tmp_path)
        storage.log(("consensus", 0, "proposal"), frozenset({msg(1)}))
        opened = self._count_opens(monkeypatch)
        for k in range(20):
            assert storage.retrieve(("consensus", k, "decision")) is None
            assert storage.retrieve(("paxos", k, "acceptor"), (-1, None)) \
                == (-1, None)
        assert not storage.contains("nothing")
        assert storage.retrieve(("consensus", 0, "proposal")) == \
            frozenset({msg(1)})
        assert opened == []

    def test_keys_come_from_the_set_not_the_directory(self, tmp_path,
                                                      monkeypatch):
        storage = on_files(tmp_path)
        for key in ("a/1", "a/2", "b"):
            storage.log(key, 0)
        storage.delete("a/1")
        reopened = on_files(tmp_path)

        def no_listdir(path):
            raise AssertionError("keys() listed the directory")

        monkeypatch.setattr(os, "listdir", no_listdir)
        assert list(reopened.keys()) == ["a/2", "b"]
        with reopened.write_barrier():
            reopened.log("c", 1)
            reopened.delete("b")
            assert list(reopened.keys()) == ["a/2", "c"]
        assert list(reopened.keys()) == ["a/2", "c"]

    def test_quarantine_forgets_the_key(self, tmp_path):
        storage = on_files(tmp_path)
        storage.log("k", "value")
        journal = os.path.join(str(tmp_path), JOURNAL)
        with open(journal, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.write(b"!")              # the frame fails its CRC
        reopened = on_files(tmp_path)
        assert reopened.retrieve("k", "gone") == "gone"
        assert reopened.metrics.quarantined == 1
        assert list(reopened.keys()) == []
        reopened.log("k", "again")
        assert on_files(tmp_path).retrieve("k") == "again"


def test_live_bytes_sent_is_the_encoded_frame():
    runtime = LiveRuntime(seed=1)
    try:
        network = LiveNetwork(runtime)
        for node_id in (0, 1):
            network.register(Node(runtime, node_id, StableStorage()))
        gossip = GossipMessage(1, frozenset({msg(1)}))
        network.send(0, 1, gossip)           # no socket: lost, but charged
        assert network.metrics.bytes_sent == len(wire.encode_frame(0, gossip))
        network.send(0, 0, gossip)           # loopback: never encoded...
        assert network.metrics.bytes_sent == \
            2 * len(wire.encode_frame(0, gossip))  # ...but charged its frame
    finally:
        runtime.close()


def test_no_agreed_message_holds_an_encoding(tmp_path, monkeypatch):
    """After a live run with a kill and restart, every message in every
    Agreed queue has dropped its encoding — and most had one to drop."""
    released = []
    real_release = AppMessage.release_encoding

    def recording_release(self):
        released.append(isinstance(self._encoded, bytes))
        real_release(self)

    monkeypatch.setattr(AppMessage, "release_encoding", recording_release)
    cluster = LiveCluster(ClusterConfig(n=3, seed=4, protocol="basic",
                                        gossip_interval=0.1), str(tmp_path))
    with cluster:
        cluster.start()
        for i in range(30):
            cluster.runtime.schedule(0.05 + i * 0.03, cluster.submit,
                                     i % 2, f"m-{i}")
        cluster.run_for(0.4)
        cluster.kill(2)
        cluster.run_for(0.5)
        cluster.restart(2)
        cluster.run_for(0.3)
        assert cluster.settle(within=30.0)
        for abcast in cluster.abcasts.values():
            assert len(abcast.agreed) == 30
            assert not any(isinstance(message._encoded, bytes)
                           for message in abcast.agreed.sequence())
    assert sum(released) > len(released) / 2
