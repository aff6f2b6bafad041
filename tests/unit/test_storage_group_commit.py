"""Unit tests for FileStorage group commit (journalled write barriers).

Crash atomicity and self-healing live in
test_storage_crash_atomicity.py; here we pin the batching itself: one
journal fsync per barrier, read-your-writes inside the barrier, replay
after a crash, the anti-resurrection discipline for deletes, and the
checkpoint that bounds the journal.
"""

from __future__ import annotations

import os

import pytest

from repro.storage import codec
from repro.storage.file import (FileStorage, _CHECKPOINT_BYTES,
                                _JOURNAL_NAME, _SUFFIX, frame_record)


@pytest.fixture
def storage(tmp_path):
    return FileStorage(str(tmp_path))


def fsync_counter(monkeypatch):
    real_fsync = os.fsync
    calls = {"n": 0}

    def counting_fsync(fd):
        calls["n"] += 1
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    return calls


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
        directory = str(tmp_path)
        real_open = os.open
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", counting_open)
        storage = FileStorage(directory)
        commits = 25
        for index in range(commits):
            storage.log(("commit", index), ("v", index))
        monkeypatch.undo()
        # One record file a commit, and the journal once.
        assert opened.count(_JOURNAL_NAME) == 1
        assert len(opened) == commits + 1
        storage.close()
        storage.close()                 # idempotent
        reopened = FileStorage(directory)
        for index in range(commits):
            assert reopened.retrieve(("commit", index)) == ("v", index)
        reopened.close()


class TestEncodeOnce:
    """The value is encoded once and its bytes spliced into the journal
    entry: the journal's bytes are what encoding the entry whole gives."""

    VALUES = [
        None, 0, -0.0, float("inf"), "", "caf\u00e9 \"quoted\" \\ \n",
        (), frozenset(), (1, (2, frozenset({3}))), ("k", (1, ("__t", "x"))),
        ((1, "non-string key"),), frozenset({("a", 1), ("b", 2)}),
    ]
    PATHS = ["k", "paxos/3/acceptor", 'odd "path" \\ \u00fc/%2F']

    def test_spliced_entry_equals_whole_encoding(self):
        from repro.storage.file import _journal_write_entry
        for path in self.PATHS:
            for value in self.VALUES:
                assert _journal_write_entry(path, codec.encode(value)) == \
                    codec.encode(("w", path, value))

    def test_journal_bytes_and_encode_count(self, tmp_path, monkeypatch):
        storage = FileStorage(str(tmp_path))
        logged = ((1, (2, frozenset({3}))), ("k", (1, ("__t", "x"))),
                  frozenset({("a", 1), ("b", 2)}))
        batch = {path: value for path, value in
                 zip(("a", "b/c", "d"), logged)}
        expected = b"".join(
            frame_record(codec.encode(("w", path, value)))
            for path, value in batch.items())
        calls = []
        real_encode = codec.encode
        monkeypatch.setattr(
            codec, "encode",
            lambda value: calls.append(value) or real_encode(value))
        with storage.write_barrier():
            for path, value in batch.items():
                storage.log(path, value)
        assert len(calls) == len(batch)         # once per record, not twice
        with open(os.path.join(str(tmp_path), _JOURNAL_NAME), "rb") as handle:
            assert handle.read() == expected
        for path, value in batch.items():
            assert storage.retrieve(path) == value


class TestCrashRecovery:
    def test_journal_replay_restores_buffered_writes(self, tmp_path):
        storage = FileStorage(str(tmp_path))
        with storage.write_barrier():
            for index in range(6):
                storage.log(("r", index), ("value", index))
        # Crash: per-key files were written buffered (no fsync); model
        # the worst case by corrupting one of them outright.  The
        # journal alone must bring the value back.
        victim = next(name for name in os.listdir(str(tmp_path))
                      if name != _JOURNAL_NAME)
        with open(os.path.join(str(tmp_path), victim), "wb") as handle:
            handle.write(b"\x00torn")
        reopened = FileStorage(str(tmp_path))
        for index in range(6):
            assert reopened.retrieve(("r", index)) == ("value", index)
        assert any(key == _JOURNAL_NAME
                   for key, _ in reopened.recovery_report)
        # Replay healed the torn file: nothing was quarantined.
        assert not any("quarantine" in defect
                       for _, defect in reopened.recovery_report)

    def test_torn_journal_tail_is_tolerated(self, tmp_path):
        storage = FileStorage(str(tmp_path))
        with storage.write_barrier():
            storage.log("a", 1)
        journal = os.path.join(str(tmp_path), _JOURNAL_NAME)
        with open(journal, "ab") as handle:
            # A torn write.
            handle.write(frame_record(codec.encode(("w", "b", 2)))[:-3])
        reopened = FileStorage(str(tmp_path))
        assert reopened.retrieve("a") == 1
        assert reopened.retrieve("b") is None

    def test_delete_does_not_resurrect_after_replay(self, tmp_path):
        storage = FileStorage(str(tmp_path))
        with storage.write_barrier():
            storage.log("key", "value")
        storage.delete("key")
        reopened = FileStorage(str(tmp_path))
        assert not reopened.contains("key")
        assert reopened.retrieve("key") is None

    def test_values_survive_plain_reopen(self, tmp_path):
        storage = FileStorage(str(tmp_path))
        with storage.write_barrier():
            storage.log("x", ("deep", (1, (2, 3))))
        reopened = FileStorage(str(tmp_path))
        assert reopened.retrieve("x") == ("deep", (1, (2, 3)))


class TestCheckpoint:
    def test_checkpoint_syncs_files_then_truncates_journal(self, tmp_path,
                                                           monkeypatch):
        """Past ``_CHECKPOINT_BYTES`` the applied files and the directory
        are fsynced *before* the journal that backs them is emptied;
        afterwards the files stand alone."""
        directory = str(tmp_path)
        journal = os.path.join(directory, _JOURNAL_NAME)
        storage = FileStorage(directory)
        events = []
        real_fsync = os.fsync
        real_truncate = storage._truncate_journal

        def recording_fsync(fd):
            events.append(os.fstat(fd).st_ino)
            return real_fsync(fd)

        def recording_truncate():
            events.append("truncate")
            return real_truncate()

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(storage, "_truncate_journal", recording_truncate)
        chunk = "x" * (_CHECKPOINT_BYTES // 8)
        written = 0
        while "truncate" not in events:
            assert written < 16, "journal never checkpointed"
            storage.log(("big", written), (written, chunk))
            written += 1
        monkeypatch.undo()

        synced_first = set(events[:events.index("truncate")])
        record_files = [name for name in os.listdir(directory)
                        if name.endswith(_SUFFIX)]
        assert len(record_files) == written
        for name in record_files:
            assert os.stat(os.path.join(directory, name)).st_ino \
                in synced_first
        assert os.stat(directory).st_ino in synced_first
        assert os.path.getsize(journal) == 0

        # Nothing to replay: every value is read from its own file.
        reopened = FileStorage(directory)
        assert reopened.recovery_report == []
        for index in range(written):
            assert reopened.retrieve(("big", index)) == (index, chunk)

        # A record corrupted now is older than the last checkpoint, so no
        # journal entry can heal it: quarantined, read as never logged.
        victim = os.path.join(directory, record_files[0])
        with open(victim, "r+b") as handle:
            handle.seek(-2, os.SEEK_END)
            handle.write(b"!!")
        healed = FileStorage(directory)
        assert healed.metrics.quarantined == 1
        values = [healed.retrieve(("big", index)) for index in range(written)]
        assert values.count(None) == 1
        assert not os.path.exists(victim)
