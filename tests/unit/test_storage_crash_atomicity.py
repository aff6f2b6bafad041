"""Crash-atomicity and damage tests for journalled stable storage.

The crash-recovery model assumes ``log`` is atomic: a crash during a
write must leave either the old value or the new one, never a blend.
The journal's fsync is the durability point — before it the write may
be lost whole, after it replay restores it — and every frame carries a
CRC32: replay stops at the first frame that fails its check, so a torn
or damaged tail reads as never logged.  These tests kill the store at
each I/O step on real files (:class:`~repro.storage.disk.OsDisk`), cut a
simulated disk at every byte, and damage journals on purpose.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.runtime import Node
from repro.storage import stable as stable_mod
from repro.storage.disk import JOURNAL, InjectedCrashFault, OsDisk, SimDisk
from repro.storage.stable import StableStorage, read_journal


class SimulatedCrash(Exception):
    """The process died at an instrumented I/O step."""


_OPEN = os.open
_WRITE_FLAGS = os.O_WRONLY | os.O_RDWR


class CrashAt:
    """Kill the process at the Nth I/O step the store takes.

    A step is a call that changes what a later incarnation finds on
    disk: ``os.open`` for writing, ``os.write``, ``os.fsync`` or
    ``os.replace``.  The step raises before it takes effect — or, with
    ``after``, just after (a file opened for writing is left created or
    truncated; a write, an fsync or a rename has completed) — and every
    later step raises too: a dead process does not run its ``finally``
    blocks against the disk.  ``step=None`` only counts, to size a
    sweep.
    """

    def __init__(self, patch, step=None, after=False):
        self.step = step
        self.after = after
        self.taken = 0
        for name in ("open", "write", "fsync", "replace"):
            patch.setattr(os, name, self._stepped(getattr(os, name)))

    def _stepped(self, real):
        def call(*args, **kwargs):
            if real is _OPEN and not args[1] & _WRITE_FLAGS:
                return real(*args, **kwargs)
            self.taken += 1
            if self.step is None or self.taken < self.step:
                return real(*args, **kwargs)
            if self.taken == self.step and self.after:
                result = real(*args, **kwargs)
                if real is _OPEN:
                    os.close(result)    # the dead process's descriptor
            raise SimulatedCrash(f"I/O step {self.taken}")
        return call


def on_files(directory):
    return StableStorage(OsDisk(str(directory)))


def contents(store):
    return {key: store.retrieve(key) for key in store.keys()}


OLD, NEW = ("v", "old"), ("v", "new")
KEYS = ("single", "batch-1", "batch-2", "doomed", "last")


def seed_old_values(directory):
    """Every key holds OLD; the handle is a fresh incarnation's."""
    storage = on_files(directory)
    for key in KEYS:
        storage.log(key, OLD)
    return on_files(directory)


def overwrite_everything(storage, patch, acked):
    """A lone write, a batch, a delete, then a write that compacts;
    ``acked`` collects each key once the call that wrote it returned."""
    storage.log("single", NEW)
    acked.add("single")
    with storage.write_barrier():
        storage.log("batch-1", NEW)
        storage.log("batch-2", NEW)
    acked.update(("batch-1", "batch-2"))
    storage.delete("doomed")
    acked.add("doomed")
    patch.setattr(stable_mod, "_COMPACT_BYTES", 1)
    storage.log("last", NEW)
    acked.add("last")


class TestCrashDuringWrite:
    def test_every_crash_point_leaves_old_or_new(self, tmp_path,
                                                 monkeypatch):
        """Sweep the kill over every I/O step — opening the journal,
        each append and its fsync, the compaction's snapshot, rename and
        directory fsync — and both sides of each."""
        storage = seed_old_values(tmp_path / "count")
        with monkeypatch.context() as patch:
            counter = CrashAt(patch)
            overwrite_everything(storage, patch, set())
        # Opening the journal, 4 commits x (append, fsync), then the
        # compaction: open the snapshot, write, fsync, rename, and fsync
        # the directory.
        assert counter.taken == 14

        for step in range(1, counter.taken + 1):
            for after in (False, True):
                directory = tmp_path / f"step{step}-{after}"
                storage = seed_old_values(directory)
                acked = set()
                with monkeypatch.context() as patch:
                    CrashAt(patch, step, after)
                    with pytest.raises(SimulatedCrash):
                        overwrite_everything(storage, patch, acked)
                where = f"killed {'after' if after else 'before'} " \
                        f"I/O step {step}"
                reopened = on_files(directory)
                assert reopened.metrics.quarantined == 0, where
                assert set(os.listdir(str(directory))) <= \
                    {JOURNAL, JOURNAL + ".snapshot"}, where
                for key in KEYS:
                    new = None if key == "doomed" else NEW
                    got = reopened.retrieve(key)
                    assert got in (OLD, new), f"{key}: {where}"
                    if key in acked:
                        # The call returned: the write is durable.
                        assert got == new, f"{key}: {where}"

    def test_crash_before_journal_write_preserves_old_value(self, tmp_path,
                                                            monkeypatch):
        storage = on_files(tmp_path)
        storage.log("key", "old")
        with monkeypatch.context() as patch:
            CrashAt(patch, step=1)  # the journal write
            with pytest.raises(SimulatedCrash):
                storage.log("key", "new")
        # A fresh incarnation over the same directory sees the old value.
        assert on_files(tmp_path).retrieve("key") == "old"

    def test_crash_on_first_write_leaves_key_absent(self, tmp_path,
                                                    monkeypatch):
        storage = on_files(tmp_path)
        with monkeypatch.context() as patch:
            CrashAt(patch, step=1)  # opening the journal to append
            with pytest.raises(SimulatedCrash):
                storage.log("never", "written")
        assert on_files(tmp_path).retrieve("never") is None

    def test_kill_halfway_through_the_write_keeps_old_value(self, tmp_path,
                                                            monkeypatch):
        # Kill the commit between the journal write and its fsync, then
        # let only part of the unsynced frame have reached the disk: the
        # torn tail is dropped at replay and the old record stands.
        # (Had the whole frame landed, replay would serve the new value —
        # equally legal, and covered by the sweep above.)
        journal = os.path.join(str(tmp_path), JOURNAL)
        storage = on_files(tmp_path)
        storage.log("key", ("v", "old"))
        committed = os.path.getsize(journal)
        with monkeypatch.context() as patch:
            CrashAt(patch, step=2)  # the journal fsync
            with pytest.raises(SimulatedCrash):
                storage.log("key", ("v", "new"))
        written = os.path.getsize(journal)
        assert written > committed
        with open(journal, "r+b") as handle:
            handle.truncate(committed + (written - committed) // 2)
        reopened = on_files(tmp_path)
        assert reopened.retrieve("key") == ("v", "old")
        assert reopened.metrics.quarantined == 0
        # The tail was cut off the journal: it holds the old record only.
        assert os.path.getsize(journal) == committed

    def test_no_temp_file_litter_after_crash(self, tmp_path, monkeypatch):
        # A compaction whose rename fails leaves no snapshot behind and
        # the journal intact, so the next incarnation loses nothing.
        storage = on_files(tmp_path)
        storage.log("key", "value")

        def exploding_replace(src, dst):
            raise OSError("simulated failure before rename")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", exploding_replace)
            with pytest.raises(OSError):
                storage.compact()
        assert os.listdir(str(tmp_path)) == [JOURNAL]
        assert on_files(tmp_path).retrieve("key") == "value"

    def test_successful_write_is_complete_record(self, tmp_path):
        storage = on_files(tmp_path)
        storage.log(("consensus", 0, "proposal"), ("complex", (1, (2,))))
        # The journal is the store: its one frame verifies and decodes
        # standalone to the record.
        with open(os.path.join(str(tmp_path), JOURNAL), "rb") as handle:
            (frame,), damaged = read_journal(handle.read())
        assert not damaged
        assert frame[0] == \
            (("w", "consensus/0/proposal", ("complex", (1, (2,)))),)


def _flip(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ 0x10]))


class TestSelfHealing:
    """Replay stops at the first frame that fails its check; the tail
    from there on reads as never logged, and the journal is rewritten
    without it, so later writes are not stranded behind it."""

    def test_torn_tail_is_detected_and_recovered_from(self, tmp_path):
        journal = os.path.join(str(tmp_path), JOURNAL)
        storage = on_files(tmp_path)
        storage.log("round", ("proposal", tuple(range(50))))
        committed = os.path.getsize(journal)
        storage.log("round", ("proposal", tuple(range(60))))
        with open(journal, "r+b") as handle:
            handle.truncate((committed + os.path.getsize(journal)) // 2)

        recovered = on_files(tmp_path)
        assert recovered.retrieve("round") == ("proposal", tuple(range(50)))
        assert recovered.metrics.quarantined == 0   # cut short, not damaged
        # The record can be re-logged and read back cleanly.
        recovered.log("round", ("proposal", (1,)))
        assert on_files(tmp_path).retrieve("round") == ("proposal", (1,))

    def test_bit_flip_is_detected_and_recovered_from(self, tmp_path):
        # A bit flipped in the middle of the journal: the damaged frame
        # and everything after it are dropped, and counted.
        journal = os.path.join(str(tmp_path), JOURNAL)
        storage = on_files(tmp_path)
        ends = []
        for index in range(5):
            storage.log(("epoch", index), 40 + index)
            ends.append(os.path.getsize(journal))
        _flip(journal, ends[2] - 2)            # in frame 2's payload

        recovered = on_files(tmp_path)
        assert contents(recovered) == {"epoch/0": 40, "epoch/1": 41}
        assert recovered.metrics.quarantined == 1
        assert os.path.getsize(journal) < ends[2]
        recovered.log("epoch/9", 49)
        again = on_files(tmp_path)
        assert again.retrieve("epoch/9") == 49
        assert again.metrics.quarantined == 0

    def test_healthy_records_survive_the_scan(self, tmp_path):
        journal = os.path.join(str(tmp_path), JOURNAL)
        storage = on_files(tmp_path)
        for k in range(5):
            storage.log(("key", k), ("n", k))
        with open(journal, "rb") as handle:
            before = handle.read()
        reopened = on_files(tmp_path)
        assert reopened.metrics.quarantined == 0
        for k in range(5):
            assert reopened.retrieve(("key", k)) == ("n", k)
        with open(journal, "rb") as handle:
            assert handle.read() == before      # nothing to rewrite


class TestSimDiskCrashSweep:
    def test_every_byte_offset_reads_a_prefix_of_the_barriers(self):
        disk = SimDisk()
        store = StableStorage(disk)
        states, ends = [{}], [0]

        def barrier(*writes):
            with store.write_barrier():
                for write in writes:
                    write()
            states.append(contents(store))
            ends.append(len(disk.read()))

        barrier(lambda: store.log("a", 1),
                lambda: store.log("b", ("x", 2)))
        barrier(lambda: store.append("s", "m1"),
                lambda: store.delete("a"),
                lambda: store.log("c", tuple(range(40))))
        barrier(lambda: store.log("b", 3),
                lambda: store.append("s", "m2"))
        barrier(lambda: store.log("a", "again"))
        journal = disk.read()
        assert ends[-1] == len(journal)
        for cut in range(len(journal) + 1):
            torn = SimDisk()
            torn.replace(journal[:cut])
            reopened = StableStorage(torn)
            kept = max(index for index, end in enumerate(ends) if end <= cut)
            assert contents(reopened) == states[kept], cut
            assert reopened.metrics.quarantined == 0, cut

    def test_a_crash_loses_what_was_not_fsynced(self):
        disk = SimDisk()
        store = StableStorage(disk)
        store.log("kept", 1)
        synced = disk.read()
        disk.append(b"an append that never reached its fsync")
        assert disk.read() != synced
        assert store.reopen().retrieve("kept") == 1
        assert disk.read() == synced


class TestFaultyStorage:
    """The seeded disk faults a chaos run arms, on a SimDisk."""

    def test_armed_fail_crashes_before_the_write(self):
        disk = SimDisk(random.Random(3), node_hint=2)
        store = StableStorage(disk)
        store.log("k", "old")
        disk.arm_crash_write("fail")
        with pytest.raises(InjectedCrashFault) as excinfo:
            store.log("k", "new")
        assert excinfo.value.node_hint == 2
        assert disk.injected["write_crash"] == 1
        # The process died: its successor finds the old value.  The
        # fault is one-shot.
        store = store.reopen()
        assert store.retrieve("k") == "old"
        store.log("k", "newer")
        assert store.reopen().retrieve("k") == "newer"

    def test_armed_torn_write_lands_corrupt_and_heals(self):
        disk = SimDisk(random.Random(5))
        store = StableStorage(disk)
        store.log("k", ("payload", tuple(range(40))))
        committed = len(disk.read())
        disk.arm_crash_write("torn")
        with pytest.raises(InjectedCrashFault) as excinfo:
            store.log("k", ("payload", tuple(range(80))))
        assert excinfo.value.mode == "torn-write"
        assert disk.injected["torn_write"] == 1
        # Part of the new frame is on the disk, durably.
        assert committed < len(disk.read())
        recovered = store.reopen()
        assert recovered.retrieve("k") == ("payload", tuple(range(40)))
        assert recovered.metrics.quarantined == 0
        assert len(disk.read()) == committed    # the tear was cut off

    def test_barrier_reaches_the_inner_backend(self):
        disk = SimDisk(random.Random(4))
        store = StableStorage(disk)
        with store.write_barrier():
            for index in range(3):
                store.log(("batch", index), index)
        # One commit for the barrier, not one per record.
        assert store.group_commits == 1
        assert store.group_commit_records == 3

        # A write crash at the barrier's commit: its records survive
        # together or not at all.
        with pytest.raises(InjectedCrashFault):
            with store.write_barrier():
                store.log("first", "v1")
                disk.arm_crash_write("fail")
                store.log("second", "v2")
        recovered = store.reopen()
        assert recovered.retrieve("first") is None
        assert recovered.retrieve("second") is None
        assert recovered.retrieve(("batch", 2)) == 2
        assert recovered.metrics.quarantined == 0

    def test_bit_flip_corrupts_then_reader_heals(self):
        disk = SimDisk(random.Random(9))
        store = StableStorage(disk)
        store.log("k", ("stable", "data"))
        assert disk.flip_bit() is True
        assert disk.injected["bit_flip"] == 1
        # The running process reads its map; the damage shows at reopen.
        assert store.retrieve("k") == ("stable", "data")
        recovered = store.reopen()
        assert recovered.retrieve("k") is None
        assert recovered.metrics.quarantined == 1
        assert disk.read() == b""

    def test_the_damage_count_outlives_the_next_crash(self, sim):
        # A bit flipped mid-journal is counted at the reopen that drops
        # it, and still counted after the node's next crash, whose
        # reopen finds the journal clean.
        disk = SimDisk(random.Random(9))
        node = Node(sim, 0, StableStorage(disk))
        node.start()
        ends = []
        for index in range(5):
            node.storage.log(("epoch", index), 40 + index)
            ends.append(len(disk.read()))
        damaged = bytearray(disk.read())
        damaged[ends[2] - 2] ^= 1                 # in frame 2's payload
        disk.replace(bytes(damaged))
        for _ in range(2):
            node.crash()
            assert node.storage.metrics.quarantined == 1
            assert contents(node.storage) == {"epoch/0": 40, "epoch/1": 41}
            node.recover()

    def test_probabilistic_faults_are_seed_deterministic(self):
        def run(seed):
            store = StableStorage(SimDisk(random.Random(seed),
                                          fail_rate=0.3))
            outcomes = []
            for k in range(30):
                try:
                    store.log(("key", k), k)
                    outcomes.append("ok")
                except InjectedCrashFault:
                    outcomes.append("fault")
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)
        assert "fault" in run(7) and "ok" in run(7)

    def test_disarm_stops_all_faults(self):
        disk = SimDisk(random.Random(2), fail_rate=1.0)
        store = StableStorage(disk)
        disk.arm_crash_write("fail")
        disk.set_latency(0.1, 0.2)
        disk.disarm()
        store.log("k", "v")
        assert store.reopen().retrieve("k") == "v"
        assert disk.injected == {"write_crash": 0, "torn_write": 0,
                                 "bit_flip": 0, "slow_write": 0}

    def test_a_slow_write_reports_its_stall(self):
        disk = SimDisk(random.Random(6))
        stalls = []
        disk.set_latency(0.05, 0.2)
        disk.on_stall = stalls.append
        store = StableStorage(disk)
        with store.write_barrier():
            store.log("a", 1)
            store.log("b", 2)
        store.log("c", 3)
        assert len(stalls) == disk.injected["slow_write"] == 2
        assert all(0.05 <= stall <= 0.2 for stall in stalls)
        disk.clear_latency()
        store.log("d", 4)
        assert len(stalls) == 2
