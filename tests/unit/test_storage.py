"""Unit tests for stable storage (without a disk and journalled to
files, codec)."""

from __future__ import annotations

import pytest

from repro.core.ids import MessageId
from repro.core.messages import AppMessage
from repro.errors import StorageError
from repro.storage import codec
from repro.storage.disk import OsDisk
from repro.storage.stable import StableStorage


def on_files(path):
    return StableStorage(OsDisk(str(path)))


@pytest.fixture(params=["memory", "file"])
def storage(request, tmp_path):
    if request.param == "memory":
        return StableStorage()
    return on_files(tmp_path / "store")


class TestLogRetrieve:
    def test_round_trip(self, storage):
        storage.log("a", ("x", 1))
        assert storage.retrieve("a") == ("x", 1)

    def test_missing_key_default(self, storage):
        assert storage.retrieve("nope") is None
        assert storage.retrieve("nope", 42) == 42

    def test_structured_keys_normalise(self, storage):
        storage.log(("paxos", 3, "acceptor"), (1, 2, None))
        assert storage.retrieve("paxos/3/acceptor") == (1, 2, None)

    def test_overwrite(self, storage):
        storage.log("k", 1)
        storage.log("k", 2)
        assert storage.retrieve("k") == 2

    def test_contains(self, storage):
        assert not storage.contains("k")
        storage.log("k", None)
        assert storage.contains("k")

    def test_values_are_isolated_from_caller(self, storage):
        """A mutable value is refused on both backends, at any depth, so
        no logged value can be mutated by its writer or a reader."""
        storage.log("k", ("inner", (1, 2)))
        for value in ({"inner": [1, 2]}, ("inner", [1, 2]),
                      ("digest", set()), (("k", {"v": 1}),)):
            with pytest.raises(TypeError, match="immutable"):
                storage.log("k", value)
            with pytest.raises(TypeError, match="immutable"):
                storage.append("log", value)
        assert storage.retrieve("k") == ("inner", (1, 2))
        assert not storage.contains("log")

    def test_delete(self, storage):
        storage.log("k", 1)
        storage.delete("k")
        assert not storage.contains("k")
        storage.delete("k")  # idempotent

    def test_keys_iteration_sorted(self, storage):
        for key in ("b", "a/1", "a/2"):
            storage.log(key, 0)
        assert list(storage.keys()) == ["a/1", "a/2", "b"]
        assert list(storage.keys("a")) == ["a/1", "a/2"]

    def test_delete_prefix(self, storage):
        for key in ("ab/1", "ab/2", "abc", "other"):
            storage.log(key, 0)
        deleted = storage.delete_prefix("ab")
        # "abc" is NOT under the "ab" prefix (segment boundary matters).
        assert deleted == 2
        assert list(storage.keys()) == ["abc", "other"]


class TestAppendLogs:
    def test_append_accumulates(self, storage):
        storage.append("log", 1)
        storage.append("log", 2)
        assert storage.retrieve_list("log") == [1, 2]

    def test_retrieve_list_missing(self, storage):
        assert storage.retrieve_list("nope") == []

    def test_append_to_non_list_rejected(self, storage):
        storage.log("k", "scalar")
        with pytest.raises(StorageError):
            storage.append("k", 1)

    def test_retrieve_list_on_non_list_rejected(self, storage):
        storage.log("k", "scalar")
        with pytest.raises(StorageError):
            storage.retrieve_list("k")


class TestMetrics:
    def test_log_ops_counted(self, storage):
        storage.log("a", 1)
        storage.append("b", 2)
        assert storage.metrics.log_ops == 2

    def test_bytes_by_value_size(self, storage):
        storage.log("a", "x" * 100)
        assert storage.metrics.bytes_logged >= 100

    def test_append_charges_only_new_item(self, storage):
        storage.log("full", tuple(range(100)))
        full_bytes = storage.metrics.bytes_logged
        storage.append("incr", 1)
        incr_bytes = storage.metrics.bytes_logged - full_bytes
        assert incr_bytes < full_bytes / 10

    def test_prefix_attribution(self, storage):
        storage.log(("consensus", 0, "proposal"), "v")
        storage.log(("consensus", 1, "proposal"), "v")
        storage.log(("ab", "ckpt"), "c")
        assert storage.metrics.ops_by_prefix == {"consensus": 2, "ab": 1}

    def test_retrievals_counted(self, storage):
        storage.retrieve("a")
        storage.retrieve("b")
        assert storage.metrics.retrievals == 2

    def test_residency_tracks_live_values_only(self, storage):
        storage.log("big", "x" * 1000)
        before = storage.total_bytes_stored()
        storage.log("big", "y")  # overwrite shrinks residency
        assert storage.total_bytes_stored() < before

    def test_bad_key_type_rejected(self, storage):
        with pytest.raises(StorageError):
            storage.log(123, "v")


class TestFileDurability:
    def test_values_survive_reopen(self, tmp_path):
        path = str(tmp_path / "store")
        first = on_files(path)
        first.log(("consensus", 0, "proposal"), ("a", 1))
        second = on_files(path)  # a brand-new process incarnation
        assert second.retrieve(("consensus", 0, "proposal")) == ("a", 1)

    def test_keys_with_slashes_escape_correctly(self, tmp_path):
        storage = on_files(tmp_path / "store")
        storage.log(("a", "b%c", 1), "v")
        assert list(storage.keys()) == ["a/b%c/1"]
        assert on_files(tmp_path / "store").retrieve("a/b%c/1") == "v"

    def test_app_messages_round_trip_through_files(self, tmp_path):
        storage = on_files(tmp_path / "store")
        batch = frozenset({AppMessage(MessageId(1, 1, 3), ("put", "k", 5)),
                           AppMessage(MessageId(2, 1, 1), None)})
        storage.log("proposal", batch)
        got = on_files(tmp_path / "store").retrieve("proposal")
        assert got == batch
        assert {m.payload for m in got} == {("put", "k", 5), None}


class TestCodec:
    def test_round_trip_primitives(self):
        for value in (None, True, 0, -5, 2.5, "s", (1, (2,)),
                      frozenset({3}), (("k", "v"),), ((1, "nonstr"),)):
            assert codec.decode(codec.encode(value)) == value

    def test_mutable_containers_are_refused_both_ways(self):
        # Nothing encodes a list, set or dict, and their old tags (l, S,
        # d) decode as unknown tags: no file holds one.
        for value in ([1, [2]], {1, 2}, {"k": "v"}):
            with pytest.raises(TypeError, match="immutable"):
                codec.encode(value)
        one, two = codec.encode(1), codec.encode(2)
        for encoded in (b"l\x02" + one + b"l\x01" + two,
                        b"S\x02" + one + two,
                        b"d\x01" + codec.encode("k") + codec.encode("v")):
            with pytest.raises(codec.CodecError, match="unknown value tag"):
                codec.decode(encoded)

    def test_unregistered_type_rejected(self):
        class Mystery:
            pass

        with pytest.raises(StorageError):
            codec.encode(Mystery())

    def test_duplicate_tag_rejected(self):
        with pytest.raises(StorageError, match="already registered"):
            codec.register(int, 1, lambda x: x, lambda x: x)  # AppMessage
        with pytest.raises(StorageError, match="one byte"):
            codec.register(int, 256, lambda x: x, lambda x: x)

    def test_unknown_tag_rejected(self):
        # A registered-class value ("R", one-byte code, plain value)
        # whose code nothing registered.
        with pytest.raises(StorageError, match="unknown codec code 9"):
            codec.decode(b"R\x09" + codec.encode(1))
        with pytest.raises(StorageError, match="unknown value tag"):
            codec.decode(b"?")
        # "M" once tagged a nested message frame; it is unassigned now.
        with pytest.raises(codec.CodecError, match="unknown value tag"):
            codec.decode(b"M\x01\x00")

    def test_deterministic_encoding(self):
        value = frozenset({("b", 1), ("a", 2)})
        assert codec.encode(value) == \
            codec.encode(frozenset((("a", 2), ("b", 1))))


class TestCodecNonFiniteFloats:
    """The original defect: non-finite floats leaked into the stored
    text as bare ``NaN``/``Infinity`` tokens that no strict reader
    accepts.  The binary codec stores every float as a tagged IEEE-754
    double, so ``nan``, the infinities and ``-0.0`` survive bit for bit."""

    def test_nan_round_trips(self):
        import math
        got = codec.decode(codec.encode(math.nan))
        assert isinstance(got, float) and math.isnan(got)

    def test_infinities_round_trip(self):
        import math
        for value in (math.inf, -math.inf):
            assert codec.decode(codec.encode(value)) == value

    def test_negative_zero_round_trips_with_sign(self):
        import math
        got = codec.decode(codec.encode(-0.0))
        assert got == 0.0 and math.copysign(1.0, got) == -1.0

    def test_encoded_floats_are_tagged_ieee_doubles(self):
        """Each float is its tag and its eight IEEE-754 bytes — no
        token a reader could mistake — alone or inside containers."""
        import math
        import struct
        for value in (math.nan, math.inf, -math.inf, -0.0, 1.5):
            single = b"f" + struct.pack("!d", value)
            assert codec.encode(value) == single
            assert single in codec.encode((1, value))
            assert single in codec.encode(frozenset({("k", (value, 2))}))

    def test_non_finite_inside_containers(self):
        import math
        value = (("floats", (math.inf, -math.inf)), ("t", (1, -0.0)))
        got = dict(codec.decode(codec.encode(value)))
        assert got["floats"] == (math.inf, -math.inf)
        assert got["t"][0] == 1
        assert math.copysign(1.0, got["t"][1]) == -1.0


class TestSnapshotIsolation:
    """What a read shares with the writer: an immutable logged value
    comes back as the very object that was logged."""

    def test_immutable_values_are_shared_not_copied(self):
        storage = StableStorage()
        message = AppMessage(MessageId(1, 0, 7), ("payload", 3))
        storage.log("m", message)
        assert storage.retrieve("m") is message  # no copy needed
        value = ("a", 1, MessageId(0, 0, 1), frozenset({message}))
        storage.log("t", value)
        assert storage.retrieve("t") is value

    def test_namedtuple_of_immutables_passes_through(self):
        storage = StableStorage()
        mid = MessageId(3, 1, 4)
        storage.log("id", mid)
        got = storage.retrieve("id")
        assert got is mid and isinstance(got, MessageId)


class TestMemoryStorageKeepsReferences:
    """The store keeps references: logged values are immutable records
    (shared on read: TestSnapshotIsolation), and sizing the write
    refuses a mutable container."""

    @pytest.mark.parametrize("value", [[1, 2], {"k": 1}, {1, 2},
                                       bytearray(b"x")],
                             ids=["list", "dict", "set", "bytearray"])
    def test_mutable_top_level_value_raises(self, value):
        storage = StableStorage()
        storage.log("k", ("old",))
        with pytest.raises(TypeError, match="immutable"):
            storage.log("k", value)
        with pytest.raises(TypeError, match="immutable"):
            storage.log("fresh", value)
        assert storage.retrieve("k") == ("old",)
        assert not storage.contains("fresh")

    def test_append_stores_a_new_tuple(self):
        storage = StableStorage()
        storage.append("log", 1)
        first = storage.retrieve("log")
        storage.append("log", 2)
        assert first == (1,) and storage.retrieve("log") == (1, 2)
        assert storage.retrieve_list("log") == [1, 2]


class TestFileStorageWriteBarrier:
    """A store journalled to files commits once per outermost write
    barrier (batching details and fsync counts:
    test_storage_group_commit.py)."""

    def test_writes_outside_barrier_flush_per_write(self, tmp_path):
        storage = on_files(tmp_path / "store")
        storage.log("a", 1)
        storage.log("b", 2)
        assert storage.group_commits == 2
        assert storage.group_commit_records == 2

    def test_nested_barriers_flush_once_at_outermost_exit(self, tmp_path):
        storage = on_files(tmp_path / "store")
        with storage.write_barrier():
            storage.log("a", 1)
            with storage.write_barrier():
                storage.log("b", 2)
            assert storage.group_commits == 0  # still deferred
        assert storage.group_commits == 1
        assert storage.group_commit_records == 2

    def test_empty_barrier_flushes_nothing(self, tmp_path):
        storage = on_files(tmp_path / "store")
        with storage.write_barrier():
            pass
        assert storage.group_commits == 0
        assert not (tmp_path / "store" / "journal").exists()

    def test_memory_backend_barrier_is_noop(self):
        storage = StableStorage()
        with storage.write_barrier():
            storage.log("k", 1)
        assert storage.retrieve("k") == 1
        assert storage.group_commits == 0
