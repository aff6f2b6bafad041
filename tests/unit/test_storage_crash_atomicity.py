"""Crash-atomicity and self-healing tests for file-backed stable storage.

The crash-recovery model assumes ``log`` is atomic: a crash during a
write must leave either the old value or the new one, never a torn
file.  FileStorage makes the journal fsync the durability point — before
it the write may be lost whole, after it replay restores the write
whatever happened to the per-key file — and frames every record with a
CRC32: a record corrupted anyway is rewritten from the journal while the
journal still holds it, and quarantined once it does not.  These tests
kill the store at each I/O step and corrupt records on both sides of
that line.  Every store is built the way the live harness builds it:
``FileStorage(directory)``.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.storage import file as file_mod
from repro.storage.faulty import FaultyStorage, InjectedCrashFault
from repro.storage.file import (FileStorage, _JOURNAL_NAME, _SUFFIX,
                                _iter_frames, unframe_record)
from repro.storage.memory import MemoryStorage


class SimulatedCrash(Exception):
    """The process died at an instrumented I/O step."""


class CrashAt:
    """Kill the process at the Nth I/O step FileStorage takes.

    A step is a call that changes what a later incarnation finds on
    disk: ``open`` for writing, or ``os.fsync``.  The step raises before
    it takes effect — or, with ``after``, just after (a file opened for
    writing is left truncated; an fsync has completed) — and every later
    step raises too: a dead process does not run its ``finally`` blocks
    against the disk.  ``step=None`` only counts, to size a sweep.
    """

    def __init__(self, patch, step=None, after=False):
        self.step = step
        self.after = after
        self.taken = 0
        patch.setattr(file_mod, "open", self._stepped(open), raising=False)
        patch.setattr(os, "fsync", self._stepped(os.fsync))

    def _stepped(self, real):
        def call(*args, **kwargs):
            if real is open and args[1] == "rb":
                return real(*args, **kwargs)
            self.taken += 1
            if self.step is None or self.taken < self.step:
                return real(*args, **kwargs)
            if self.taken == self.step and self.after:
                handle = real(*args, **kwargs)
                if handle is not None:
                    handle.close()
            raise SimulatedCrash(f"I/O step {self.taken}")
        return call


OLD, NEW = {"v": "old"}, {"v": "new"}
KEYS = ("single", "batch-1", "batch-2", "doomed", "last")


def seed_old_values(directory):
    """Every key holds OLD in its own file; the journal is empty."""
    storage = FileStorage(directory)
    for key in KEYS:
        storage.log(key, OLD)
    return FileStorage(directory)  # reopening replays and truncates


def overwrite_everything(storage, patch, acked):
    """A lone write, a batch, a delete, then a write that checkpoints;
    ``acked`` collects each key once the call that wrote it returned."""
    storage.log("single", NEW)
    acked.add("single")
    with storage.write_barrier():
        storage.log("batch-1", NEW)
        storage.log("batch-2", NEW)
    acked.update(("batch-1", "batch-2"))
    storage.delete("doomed")
    acked.add("doomed")
    patch.setattr(file_mod, "_CHECKPOINT_BYTES", 1)
    storage.log("last", NEW)
    acked.add("last")


def record_files(directory):
    return [os.path.join(directory, name)
            for name in sorted(os.listdir(directory))
            if name.endswith(_SUFFIX)]


class TestCrashDuringWrite:
    def test_every_crash_point_leaves_old_or_new(self, tmp_path,
                                                 monkeypatch):
        """Sweep the kill over every I/O step — before the journal write,
        between the write and its fsync, between the fsync and each
        per-key apply, through the checkpoint — and both sides of each."""
        storage = seed_old_values(str(tmp_path / "count"))
        with monkeypatch.context() as patch:
            counter = CrashAt(patch)
            overwrite_everything(storage, patch, set())
        # 4 commits x (journal open, fsync) + 4 applied files (a delete
        # unlinks, it opens nothing) + the checkpoint's 4 file fsyncs,
        # directory fsync, journal truncate and its fsync.
        assert counter.taken == 19

        for step in range(1, counter.taken + 1):
            for after in (False, True):
                directory = str(tmp_path / f"step{step}-{after}")
                storage = seed_old_values(directory)
                acked = set()
                with monkeypatch.context() as patch:
                    CrashAt(patch, step, after)
                    with pytest.raises(SimulatedCrash):
                        overwrite_everything(storage, patch, acked)
                where = f"killed {'after' if after else 'before'} " \
                        f"I/O step {step}"
                reopened = FileStorage(directory)
                assert reopened.metrics.quarantined == 0, where
                for target in record_files(directory):
                    with open(target, "rb") as handle:
                        unframe_record(handle.read())  # raises if torn
                for key in KEYS:
                    new = None if key == "doomed" else NEW
                    got = reopened.retrieve(key)
                    assert got in (OLD, new), f"{key}: {where}"
                    if key in acked:
                        # The call returned: the write is durable.
                        assert got == new, f"{key}: {where}"

    def test_crash_before_journal_write_preserves_old_value(self, tmp_path,
                                                            monkeypatch):
        directory = str(tmp_path / "store")
        storage = FileStorage(directory)
        storage.log("key", "old")
        with monkeypatch.context() as patch:
            CrashAt(patch, step=1)  # opening the journal to append
            with pytest.raises(SimulatedCrash):
                storage.log("key", "new")
        # A fresh incarnation over the same directory sees the old value.
        assert FileStorage(directory).retrieve("key") == "old"

    def test_crash_on_first_write_leaves_key_absent(self, tmp_path,
                                                    monkeypatch):
        directory = str(tmp_path / "store")
        storage = FileStorage(directory)
        with monkeypatch.context() as patch:
            CrashAt(patch, step=1)
            with pytest.raises(SimulatedCrash):
                storage.log("never", "written")
        assert FileStorage(directory).retrieve("never") is None

    def test_kill_halfway_through_the_write_keeps_old_value(self, tmp_path,
                                                            monkeypatch):
        # Kill the commit between the journal write and its fsync, then
        # let only part of the unsynced blob have reached the disk: the
        # torn tail is discarded at replay and the old record stands.
        # (Had the whole blob landed, replay would serve the new value —
        # equally legal, and covered by the sweep above.)
        directory = str(tmp_path / "store")
        journal = os.path.join(directory, _JOURNAL_NAME)
        storage = FileStorage(directory)
        storage.log("key", {"v": "old"})
        committed = os.path.getsize(journal)
        with monkeypatch.context() as patch:
            CrashAt(patch, step=2)  # the journal fsync
            with pytest.raises(SimulatedCrash):
                storage.log("key", {"v": "new"})
        written = os.path.getsize(journal)
        assert written > committed
        with open(journal, "r+b") as handle:
            handle.truncate(committed + (written - committed) // 2)
        reopened = FileStorage(directory)
        assert reopened.retrieve("key") == {"v": "old"}
        assert reopened.metrics.quarantined == 0
        assert reopened.recovery_report == [
            (_JOURNAL_NAME, "replayed 1 journalled records")]

    def test_no_temp_file_litter_after_crash(self, tmp_path, monkeypatch):
        # Replay is the one place a record is renamed into position; a
        # crash there must leave no temp file and an intact journal, so
        # the next incarnation replays again and loses nothing.
        directory = str(tmp_path / "store")
        FileStorage(directory).log("key", "value")

        def exploding_replace(src, dst):
            raise OSError("simulated crash before rename")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", exploding_replace)
            with pytest.raises(OSError):
                FileStorage(directory)
        leftovers = [name for name in os.listdir(directory)
                     if name.endswith(".tmp")]
        assert leftovers == []
        assert FileStorage(directory).retrieve("key") == "value"

    def test_successful_write_is_complete_record(self, tmp_path):
        directory = str(tmp_path / "store")
        storage = FileStorage(directory)
        storage.log(("consensus", 0, "proposal"), {"complex": [1, (2,)]})
        # Read the raw bytes: the record file's frame must verify and its
        # payload decode standalone, and so must the journal's copy.
        from repro.storage import codec
        (target,) = record_files(directory)
        with open(target, "rb") as handle:
            payload = unframe_record(handle.read())
        assert codec.decode(payload) == {"complex": [1, (2,)]}
        with open(os.path.join(directory, _JOURNAL_NAME), "rb") as handle:
            (entry,) = _iter_frames(handle.read())
        assert codec.decode(entry) == \
            ("w", "consensus/0/proposal", {"complex": [1, (2,)]})


def _record_file(directory):
    (target,) = record_files(directory)
    return target


def _tear(target):
    with open(target, "rb") as handle:
        raw = handle.read()
    with open(target, "wb") as handle:
        handle.write(raw[:len(raw) // 2])


class TestSelfHealing:
    """A corrupt record is healed from the journal while the journal
    still holds it, and quarantined once it does not.  A restart is what
    empties the journal here; the size-driven checkpoint is exercised in
    test_storage_group_commit.py."""

    def test_torn_tail_is_detected_and_recovered_from(self, tmp_path):
        directory = str(tmp_path / "store")
        storage = FileStorage(directory)
        storage.log("round", {"proposal": list(range(50))})
        _tear(_record_file(directory))

        # Inside the journal window: rewritten from the journal.
        healed = FileStorage(directory)
        assert healed.retrieve("round") == {"proposal": list(range(50))}
        assert healed.metrics.quarantined == 0

        # Reopening emptied the journal; the same tear is now final.
        _tear(_record_file(directory))
        recovered = FileStorage(directory)
        assert recovered.retrieve("round") is None  # never durably logged
        assert recovered.metrics.quarantined == 1
        assert [key for key, _ in recovered.recovery_report] == ["round"]
        # The record can be re-logged and read back cleanly.
        recovered.log("round", {"proposal": [1]})
        assert recovered.retrieve("round") == {"proposal": [1]}

    def test_bit_flip_is_detected_and_recovered_from(self, tmp_path):
        directory = str(tmp_path / "store")
        storage = FileStorage(directory)
        storage.log("epoch", 41)
        FileStorage(directory)  # a restart replays and empties the journal
        target = _record_file(directory)
        with open(target, "rb") as handle:
            raw = bytearray(handle.read())
        raw[-2] ^= 0x10  # flip one payload bit
        with open(target, "wb") as handle:
            handle.write(raw)

        recovered = FileStorage(directory)
        assert recovered.retrieve("epoch") is None
        assert recovered.metrics.quarantined == 1
        assert "checksum" in recovered.recovery_report[0][1]

    def test_lazy_detection_without_reopen(self, tmp_path):
        # Corruption after the open-time scan is caught at read time.
        directory = str(tmp_path / "store")
        storage = FileStorage(directory)
        storage.log("k", "value")
        target = _record_file(directory)
        with open(target, "wb") as handle:
            handle.write(b"garbage, no frame header at all")
        assert storage.retrieve("k", default="fallback") == "fallback"
        assert storage.metrics.quarantined == 1
        assert "k" not in list(storage.keys())

    def test_quarantined_records_are_preserved_for_forensics(self, tmp_path):
        directory = str(tmp_path / "store")
        storage = FileStorage(directory)
        storage.log("k", "value")
        FileStorage(directory)  # a restart replays and empties the journal
        target = _record_file(directory)
        with open(target, "wb") as handle:
            handle.write(b"xx")
        FileStorage(directory)
        pen = os.path.join(directory, "quarantine")
        assert os.path.isdir(pen)
        assert len(os.listdir(pen)) == 1

    def test_stale_temp_files_are_swept_on_open(self, tmp_path):
        directory = str(tmp_path / "store")
        FileStorage(directory)
        with open(os.path.join(directory, "dead.tmp"), "w") as handle:
            handle.write("half a rec")
        reopened = FileStorage(directory)
        assert not any(n.endswith(".tmp") for n in os.listdir(directory))
        assert ("dead.tmp", "stale temp file") in reopened.recovery_report

    def test_healthy_records_survive_the_scan(self, tmp_path):
        directory = str(tmp_path / "store")
        storage = FileStorage(directory)
        for k in range(5):
            storage.log(("key", k), {"n": k})
        reopened = FileStorage(directory)
        # Replay is reported; nothing was swept or quarantined.
        assert reopened.recovery_report == [
            (_JOURNAL_NAME, "replayed 5 journalled records")]
        assert reopened.metrics.quarantined == 0
        for k in range(5):
            assert reopened.retrieve(("key", k)) == {"n": k}
        assert FileStorage(directory).recovery_report == []


class TestFaultyStorage:
    """The seeded disk-fault injector used by the chaos engine."""

    def test_armed_fail_crashes_before_the_write(self, tmp_path):
        inner = FileStorage(str(tmp_path / "store"))
        faulty = FaultyStorage(inner, random.Random(3), node_hint=2)
        faulty.log("k", "old")
        faulty.arm_crash_write("fail")
        with pytest.raises(InjectedCrashFault) as excinfo:
            faulty.log("k", "new")
        assert excinfo.value.node_hint == 2
        assert faulty.injected["write_crash"] == 1
        # Old value untouched; fault is one-shot.
        assert faulty.retrieve("k") == "old"
        faulty.log("k", "newer")
        assert faulty.retrieve("k") == "newer"

    def test_armed_torn_write_lands_corrupt_and_heals(self, tmp_path):
        directory = str(tmp_path / "store")
        inner = FileStorage(directory)
        faulty = FaultyStorage(inner, random.Random(5))
        faulty.log("k", {"payload": list(range(40))})
        faulty.arm_crash_write("torn")
        with pytest.raises(InjectedCrashFault):
            faulty.log("k", {"payload": list(range(80))})
        assert faulty.injected["torn_write"] == 1
        # The torn record is on disk, the old one still in the journal:
        # a recovering incarnation puts the old value back.
        recovered = FileStorage(directory)
        assert recovered.retrieve("k") == {"payload": list(range(40))}
        assert recovered.metrics.quarantined == 0

        # That restart emptied the journal, so now there is nothing to heal
        # from: the torn write is quarantined and the key reads absent.
        faulty = FaultyStorage(recovered, random.Random(5))
        faulty.arm_crash_write("torn")
        with pytest.raises(InjectedCrashFault):
            faulty.log("k", {"payload": list(range(80))})
        recovered = FileStorage(directory)
        assert recovered.retrieve("k") is None
        assert recovered.metrics.quarantined == 1

    def test_barrier_reaches_the_inner_backend(self, tmp_path):
        directory = str(tmp_path / "store")
        inner = FileStorage(directory)
        faulty = FaultyStorage(inner, random.Random(4))
        with faulty.write_barrier():
            for index in range(3):
                faulty.log(("batch", index), index)
        # One commit for the barrier, not one per record.
        assert inner.group_commits == 1
        assert inner.group_commit_records == 3

        # A crash on the second write of a barrier: the first is whole
        # or absent (the barrier promises no more), never torn.
        with pytest.raises(InjectedCrashFault):
            with faulty.write_barrier():
                faulty.log("first", "v1")
                faulty.arm_crash_write("fail")
                faulty.log("second", "v2")
        recovered = FileStorage(directory)
        assert recovered.retrieve("first") in (None, "v1")
        assert recovered.retrieve("second") is None
        assert recovered.metrics.quarantined == 0

    def test_torn_degrades_to_fail_on_memory_backend(self):
        faulty = FaultyStorage(MemoryStorage(), random.Random(1))
        faulty.arm_crash_write("torn")
        with pytest.raises(InjectedCrashFault) as excinfo:
            faulty.log("k", "v")
        assert excinfo.value.mode == "write-crash"
        assert faulty.injected["write_crash"] == 1
        assert faulty.retrieve("k") is None

    def test_bit_flip_corrupts_then_reader_heals(self, tmp_path):
        directory = str(tmp_path / "store")
        inner = FileStorage(directory)
        faulty = FaultyStorage(inner, random.Random(9))
        faulty.log("k", {"stable": "data"})
        assert faulty.flip_bit("k") is True
        assert faulty.injected["bit_flip"] == 1
        # The shared metrics object records the quarantine on read.
        assert faulty.retrieve("k") is None
        assert inner.metrics.quarantined == 1
        assert faulty.metrics is inner.metrics

    def test_probabilistic_faults_are_seed_deterministic(self, tmp_path):
        def run(seed):
            inner = MemoryStorage()
            faulty = FaultyStorage(inner, random.Random(seed),
                                   fail_rate=0.3)
            outcomes = []
            for k in range(30):
                try:
                    faulty.log(("key", k), k)
                    outcomes.append("ok")
                except InjectedCrashFault:
                    outcomes.append("fault")
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)
        assert "fault" in run(7) and "ok" in run(7)

    def test_disarm_stops_all_faults(self):
        faulty = FaultyStorage(MemoryStorage(), random.Random(2),
                               fail_rate=1.0)
        faulty.arm_crash_write("fail")
        faulty.disarm()
        faulty.log("k", "v")
        assert faulty.retrieve("k") == "v"
