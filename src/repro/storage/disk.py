"""The disks a :class:`~repro.storage.stable.StableStorage` journals to.

A disk holds one file, the journal: ``append`` to it, ``fsync`` the
appends, ``read`` it whole, ``replace`` it whole (a compaction's
snapshot, swapped in with one rename); ``crash`` is what a process
death does to it.

* :class:`OsDisk` is a directory on the real file system (the live
  runtime).  A crash closes the descriptor; bytes already written stay
  in the page cache, as they do when a process is killed.
* :class:`SimDisk` keeps its bytes in memory (the simulator).  A crash
  of its node loses whatever was appended but not fsynced, and it
  injects the seeded faults a crash-recovery protocol must survive: a
  **write crash** (an append raises :class:`InjectedCrashFault` before
  any byte lands — the paper's crash mid-``log``), a **torn write**
  (the append lands cut short at a seeded byte, then raises), a **bit
  flip** of one durable bit, and a **slow write** (the append succeeds
  but draws a stall, reported through :attr:`SimDisk.on_stall` so the
  node stays slow-but-alive that long).  Write crashes are armed
  one-shot or drawn per append, so a chaos run reproduces from its seed
  alone; :attr:`SimDisk.injected` tallies what the disk really did.
"""

from __future__ import annotations

import os
import random
from typing import Any, Dict, Optional, Protocol

from repro.errors import ReproError

__all__ = ["Disk", "InjectedCrashFault", "JOURNAL", "OsDisk", "SimDisk"]

JOURNAL = "journal"


class Disk(Protocol):
    """What :class:`~repro.storage.stable.StableStorage` asks of a disk:
    append to the journal, fsync the appends, read it whole (empty if
    there is none), replace it whole, durably and at once, and crash."""

    def append(self, data: bytes) -> None: ...
    def fsync(self) -> None: ...
    def read(self) -> bytes: ...
    def replace(self, data: bytes) -> None: ...
    def crash(self) -> None: ...


class InjectedCrashFault(ReproError):
    """A deliberately injected storage failure.

    Raised synchronously out of a ``log`` call; the harness driving the
    fault treats it as the victim process crashing mid-write (the
    exception unwinds only that node's callback — the runtimes execute
    one node's code per callback).
    """

    def __init__(self, node_hint: Optional[int], mode: str,
                 path: Optional[str] = None):
        where = "" if path is None else f" on {path!r}"
        super().__init__(f"injected {mode} fault{where}")
        self.node_hint = node_hint
        self.mode = mode
        self.path = path


def _write_all(fd: int, data: bytes) -> None:
    """``os.write`` until every byte of ``data`` is written."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class OsDisk:
    """The journal as ``<directory>/journal``; a compaction writes
    ``journal.snapshot``, fsyncs it and renames it over the journal.

    The journal is opened once, for appending, on the first append after
    an open, a crash or a replace.
    """

    def __init__(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.path = os.path.join(directory, JOURNAL)
        self._fd: Optional[int] = None

    def append(self, data: bytes) -> None:
        if self._fd is None:
            self._fd = os.open(self.path,
                               os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666)
        _write_all(self._fd, data)

    def fsync(self) -> None:
        if self._fd is not None:
            os.fsync(self._fd)

    def read(self) -> bytes:
        try:
            with open(self.path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return b""

    def replace(self, data: bytes) -> None:
        snapshot = self.path + ".snapshot"
        fd = os.open(snapshot, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            _write_all(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        try:
            os.replace(snapshot, self.path)
        except OSError:
            os.unlink(snapshot)
            raise
        self.crash()  # the descriptor still names the replaced journal
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)  # the rename itself survives a power cut
        finally:
            os.close(fd)

    def crash(self) -> None:
        fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)

    def __del__(self) -> None:
        if getattr(self, "_fd", None) is not None:
            self.crash()


class SimDisk:
    """A journal in memory that loses its unsynced bytes at a crash.

    Faults are drawn from ``rng``; ``fail_rate`` is the per-append
    probability of a write crash, and ``node_hint`` the owning node,
    carried in raised faults so a chaos controller crashes the right
    process.
    """

    def __init__(self, rng: Optional[random.Random] = None,
                 fail_rate: float = 0.0,
                 node_hint: Optional[int] = None) -> None:
        self._durable = bytearray()
        self._unsynced = bytearray()
        self.rng = rng or random.Random(0)
        self.fail_rate = fail_rate
        self.node_hint = node_hint
        self._armed: Optional[str] = None
        self.injected: Dict[str, int] = {
            "write_crash": 0, "torn_write": 0, "bit_flip": 0,
            "slow_write": 0}
        # Gray failure: per-append latency bounds (None = healthy disk)
        # and the callback receiving each drawn stall (wired by the
        # chaos controller to Node.stall).
        self.latency_range: Optional[tuple] = None
        self.on_stall: Optional[Any] = None

    # -- the disk ------------------------------------------------------------

    def append(self, data: bytes) -> None:
        mode = self._draw_fault()
        if mode == "torn":
            # At least one byte lands and at least one is lost.
            cut = self.rng.randrange(1, len(data))
            self.fsync()
            self._durable += data[:cut]
            self.injected["torn_write"] += 1
            raise InjectedCrashFault(self.node_hint, "torn-write")
        if mode == "fail":
            self.injected["write_crash"] += 1
            raise InjectedCrashFault(self.node_hint, "write-crash")
        if self.latency_range is not None:
            stall = self.rng.uniform(*self.latency_range)
            self.injected["slow_write"] += 1
            if self.on_stall is not None:
                self.on_stall(stall)
        self._unsynced += data

    def fsync(self) -> None:
        self._durable += self._unsynced
        self._unsynced.clear()

    def read(self) -> bytes:
        return bytes(self._durable + self._unsynced)

    def replace(self, data: bytes) -> None:
        self._durable = bytearray(data)
        self._unsynced.clear()

    def crash(self) -> None:
        self._unsynced.clear()

    # -- fault controls ------------------------------------------------------

    def arm_crash_write(self, mode: str = "fail") -> None:
        """Make the *next* append fail once: ``"fail"`` or ``"torn"``."""
        if mode not in ("fail", "torn"):
            raise ValueError(f"unknown crash-write mode {mode!r}")
        self._armed = mode

    def disarm(self) -> None:
        """Cancel probabilistic and one-shot faults and heal a limping
        disk (chaos finish phase)."""
        self._armed = None
        self.fail_rate = 0.0
        self.latency_range = None

    def set_latency(self, low: float, high: float) -> None:
        """Make the disk limp: every append draws a stall in [low, high]."""
        if low < 0 or high < low:
            raise ValueError(f"bad latency bounds [{low}, {high}]")
        self.latency_range = (low, high)

    def clear_latency(self) -> None:
        """Restore a healthy disk."""
        self.latency_range = None

    def flip_bit(self) -> bool:
        """Flip one seeded bit of the durable journal; ``False`` if it is
        empty."""
        if not self._durable:
            return False
        position = self.rng.randrange(len(self._durable))
        self._durable[position] ^= 1 << self.rng.randrange(8)
        self.injected["bit_flip"] += 1
        return True

    def _draw_fault(self) -> Optional[str]:
        if self._armed is not None:
            mode, self._armed = self._armed, None
            return mode
        if self.fail_rate and self.rng.random() < self.fail_rate:
            return "fail"
        return None
