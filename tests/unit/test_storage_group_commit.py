"""Unit tests for the journal's group commit and compaction.

Crash atomicity and damage live in test_storage_crash_atomicity.py;
here we pin the batching itself: one append and one fsync per barrier,
read-your-writes inside the barrier, replay after a crash, the
anti-resurrection discipline for deletes, an append journalled as its
item alone, and the compaction that bounds the journal.
"""

from __future__ import annotations

import os

import pytest

from repro.storage import codec
from repro.storage import stable as stable_mod
from repro.storage.disk import JOURNAL, OsDisk, SimDisk
from repro.storage.stable import StableStorage, frame_record, read_journal


def on_files(directory):
    return StableStorage(OsDisk(str(directory)))


@pytest.fixture
def storage(tmp_path):
    return on_files(tmp_path)


def fsync_counter(monkeypatch):
    real_fsync = os.fsync
    calls = {"n": 0}

    def counting_fsync(fd):
        calls["n"] += 1
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    return calls


def journal_of(directory):
    with open(os.path.join(str(directory), JOURNAL), "rb") as handle:
        return handle.read()


class TestBatching:
    def test_one_fsync_per_barrier(self, storage, monkeypatch):
        calls = fsync_counter(monkeypatch)
        with storage.write_barrier():
            for index in range(10):
                storage.log(("batch", index), ("v", index))
        assert calls["n"] == 1
        assert storage.group_commits == 1
        assert storage.group_commit_records == 10
        for index in range(10):
            assert storage.retrieve(("batch", index)) == ("v", index)

    def test_read_your_writes_inside_barrier(self, storage):
        storage.log("outside", 1)
        with storage.write_barrier():
            storage.log("inside", 2)
            storage.log("none-valued", None)
            assert storage.retrieve("inside") == 2
            assert storage.retrieve("outside") == 1
            # A logged None is a present value, not a miss.
            assert storage.contains("none-valued")
            assert storage.retrieve("none-valued", "default") is None
        assert storage.retrieve("inside") == 2

    def test_keys_see_pending_overlay(self, storage):
        storage.log("kept", 1)
        storage.log("doomed", 2)
        with storage.write_barrier():
            storage.log("fresh", 3)
            storage.delete("doomed")
            assert sorted(storage.keys()) == ["fresh", "kept"]
        assert sorted(storage.keys()) == ["fresh", "kept"]


class TestOpenJournal:
    def test_the_journal_is_opened_once_across_commits(self, tmp_path,
                                                       monkeypatch):
        real_open = os.open
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", counting_open)
        storage = on_files(tmp_path)
        commits = 25
        for index in range(commits):
            storage.log(("commit", index), ("v", index))
        monkeypatch.undo()
        # The journal once, and no file per record.
        assert opened == [JOURNAL]
        assert os.listdir(str(tmp_path)) == [JOURNAL]
        storage.disk.crash()
        storage.disk.crash()            # idempotent
        reopened = on_files(tmp_path)
        for index in range(commits):
            assert reopened.retrieve(("commit", index)) == ("v", index)


class TestEncodeOnce:
    """A barrier's records are encoded once, together, into its frame,
    and reads never decode: the map holds the logged objects."""

    def test_journal_bytes_and_encode_count(self, tmp_path, monkeypatch):
        storage = on_files(tmp_path)
        logged = ((1, (2, frozenset({3}))), ("k", (1, ("__t", "x"))),
                  frozenset({("a", 1), ("b", 2)}))
        batch = {path: value for path, value in
                 zip(("a", "b/c", "d"), logged)}
        expected = frame_record(codec.encode(tuple(
            ("w", path, value) for path, value in batch.items())))
        calls = []
        real_encode = codec.encode
        monkeypatch.setattr(
            codec, "encode",
            lambda value: calls.append(value) or real_encode(value))
        monkeypatch.setattr(codec, "decode", None)   # a read would fail
        with storage.write_barrier():
            for path, value in batch.items():
                storage.log(path, value)
        assert len(calls) == 1                  # once per barrier
        assert journal_of(tmp_path) == expected
        for path, value in batch.items():
            assert storage.retrieve(path) is value


class TestAppend:
    def test_an_append_journals_only_its_item(self, tmp_path):
        storage = on_files(tmp_path)
        for item in range(4):
            storage.append("unordered", ("m", item))
        assert storage.retrieve("unordered") == tuple(
            ("m", item) for item in range(4))
        batches = [batch for batch, _ in read_journal(journal_of(
            tmp_path))[0]]
        assert batches == [(("a", "unordered", ("m", item)),)
                           for item in range(4)]
        reopened = on_files(tmp_path)
        assert reopened.retrieve_list("unordered") == \
            [("m", item) for item in range(4)]
        # A rewrite starts the sequence over; replay extends that.
        reopened.log("unordered", (("m", 9),))
        reopened.append("unordered", ("m", 10))
        assert on_files(tmp_path).retrieve("unordered") == \
            (("m", 9), ("m", 10))


class TestCrashRecovery:
    def test_journal_replay_restores_buffered_writes(self):
        disk = SimDisk()
        storage = StableStorage(disk)
        with storage.write_barrier():
            for index in range(6):
                storage.log(("r", index), ("value", index))
        # A crash loses only what was not fsynced: the barrier was.
        reopened = storage.reopen()
        assert reopened is not storage
        for index in range(6):
            assert reopened.retrieve(("r", index)) == ("value", index)
        assert reopened.metrics.log_ops == 0    # replay is not a log

    def test_torn_journal_tail_is_tolerated(self, tmp_path):
        storage = on_files(tmp_path)
        with storage.write_barrier():
            storage.log("a", 1)
        with open(os.path.join(str(tmp_path), JOURNAL), "ab") as handle:
            # A torn write.
            handle.write(frame_record(codec.encode((("w", "b", 2),)))[:-3])
        reopened = on_files(tmp_path)
        assert reopened.retrieve("a") == 1
        assert reopened.retrieve("b") is None
        assert reopened.metrics.quarantined == 0  # cut short, not damaged
        # The tail was cut off, so later records are not stranded
        # behind it.
        reopened.log("c", 3)
        again = on_files(tmp_path)
        assert (again.retrieve("a"), again.retrieve("c")) == (1, 3)

    def test_delete_does_not_resurrect_after_replay(self, tmp_path):
        storage = on_files(tmp_path)
        with storage.write_barrier():
            storage.log("key", "value")
        storage.delete("key")
        reopened = on_files(tmp_path)
        assert not reopened.contains("key")
        assert reopened.retrieve("key") is None

    def test_values_survive_plain_reopen(self, tmp_path):
        storage = on_files(tmp_path)
        with storage.write_barrier():
            storage.log("x", ("deep", (1, (2, 3))))
        reopened = on_files(tmp_path)
        assert reopened.retrieve("x") == ("deep", (1, (2, 3)))


class TestCheckpoint:
    def test_checkpoint_syncs_files_then_truncates_journal(self, tmp_path,
                                                           monkeypatch):
        """Once dead bytes outweigh live ones, and pass
        ``_COMPACT_BYTES``, the journal is compacted: the snapshot is
        fsynced *before* it is renamed over the journal, and the
        directory after; the journal then holds one record per live
        key (and what was logged after the compaction)."""
        monkeypatch.setattr(stable_mod, "_COMPACT_BYTES", 4096)
        storage = on_files(tmp_path)
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def recording_fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            return real_fsync(fd)

        def recording_replace(src, dst):
            events.append(("rename", os.stat(src).st_ino))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        chunk = "x" * 512
        written = 0
        while not any(kind == "rename" for kind, _ in events):
            assert written < 64, "journal never compacted"
            storage.log(("hot", written % 2), (written, chunk))
            storage.log(("cold", written), written)
            written += 1
        monkeypatch.undo()

        renamed = next(index for index, (kind, _) in enumerate(events)
                       if kind == "rename")
        snapshot = events[renamed][1]
        assert ("fsync", snapshot) in events[:renamed]
        assert ("fsync", os.stat(str(tmp_path)).st_ino) in \
            events[renamed + 1:]
        assert os.listdir(str(tmp_path)) == [JOURNAL]
        records = [record for batch, _ in read_journal(journal_of(
            tmp_path))[0] for record in batch]
        keys = [record[1] for record in records]
        assert len(keys) == len(set(keys)) and \
            sorted(keys) == list(storage.keys())
        assert all(record[0] == "w" for record in records)

        reopened = on_files(tmp_path)
        assert reopened.metrics.quarantined == 0
        for index in range(written):
            assert reopened.retrieve(("cold", index)) == index
        assert reopened.retrieve(("hot", (written - 1) % 2)) == \
            (written - 1, chunk)
