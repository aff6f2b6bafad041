"""Seeded disk-fault injection over any stable-storage backend.

:class:`FaultyStorage` wraps a real :class:`~repro.storage.stable.StableStorage`
and injects the failure modes a crash-recovery protocol must survive:

* **write crash** — the ``log`` call raises :class:`InjectedCrashFault`
  *before* the record lands (an fsync failure / power cut before the
  rename): the old value stays intact and the caller's process is
  expected to crash, exactly the paper's model of a ``log`` that did not
  return;
* **torn write** — the record lands with a truncated payload (a power
  cut mid-flush on a backend without atomic rename), *then* the call
  raises: the self-healing reader must detect and quarantine it;
* **bit flip** — silent corruption of an already-stored record (media
  rot), applied on demand by the chaos engine;
* **slow write** — a gray failure: the write *succeeds* but takes a
  seeded latency draw (a limping disk); the stall duration is reported
  through :attr:`on_stall` so the runtime can model the process being
  slow-but-alive for that long.

Faults are drawn from a seeded RNG (``fail_rate``/``torn_rate`` per
write) or armed one-shot (:meth:`arm_crash_write`), so chaos runs are
reproducible from their seed alone.  Torn writes and bit flips need
byte-level access and are therefore only injected when the wrapped
backend is a :class:`~repro.storage.file.FileStorage`; over other
backends those modes degrade to a clean write crash.

The wrapper shares the inner backend's metrics object, so log-operation
accounting and quarantine counts appear exactly once, and keeps its own
:attr:`injected` tally for chaos reports.
"""

from __future__ import annotations

import os
import random
from typing import Any, Dict, Iterable, Optional

from repro.errors import ReproError
from repro.storage.file import FileStorage, frame_record
from repro.storage.stable import StableStorage

__all__ = ["FaultyStorage", "InjectedCrashFault"]


class InjectedCrashFault(ReproError):
    """A deliberately injected storage failure.

    Raised synchronously out of a ``log`` call; the harness driving the
    fault treats it as the victim process crashing mid-write (the
    exception unwinds only that node's callback — the runtimes execute
    one node's code per callback).
    """

    def __init__(self, node_hint: Optional[int], mode: str, path: str):
        super().__init__(f"injected {mode} fault on {path!r}")
        self.node_hint = node_hint
        self.mode = mode
        self.path = path


class FaultyStorage(StableStorage):
    """A stable-storage decorator injecting seeded disk faults.

    Parameters
    ----------
    inner:
        The real backend (any :class:`StableStorage`).
    rng:
        Seeded stream the probabilistic faults are drawn from.
    fail_rate:
        Per-write probability of a clean write crash.
    torn_rate:
        Per-write probability of a torn write (file backends only).
    node_hint:
        Owning node id, carried in raised faults so a chaos controller
        can crash the right process.
    """

    def __init__(self, inner: StableStorage,
                 rng: Optional[random.Random] = None,
                 fail_rate: float = 0.0,
                 torn_rate: float = 0.0,
                 node_hint: Optional[int] = None):
        super().__init__()
        self.inner = inner
        self.metrics = inner.metrics  # single accounting stream
        self.rng = rng or random.Random(0)  # repro: noqa(DET004) -- fixed default seed; tests inject their own
        self.fail_rate = fail_rate
        self.torn_rate = torn_rate
        self.node_hint = node_hint
        self._armed: Optional[str] = None
        self.injected: Dict[str, int] = {
            "write_crash": 0, "torn_write": 0, "bit_flip": 0,
            "slow_write": 0}
        # Gray failure: per-write latency bounds (None = healthy disk)
        # and the callback receiving each drawn stall (wired by the
        # chaos controller to Node.stall).
        self.latency_range: Optional[tuple] = None
        self.on_stall: Optional[Any] = None
        self.total_stall = 0.0

    # -- fault controls ------------------------------------------------------

    def arm_crash_write(self, mode: str = "fail") -> None:
        """Make the *next* write fail once: ``"fail"`` or ``"torn"``."""
        if mode not in ("fail", "torn"):
            raise ValueError(f"unknown crash-write mode {mode!r}")
        self._armed = mode

    def disarm(self) -> None:
        """Cancel probabilistic and one-shot faults (chaos finish phase)."""
        self._armed = None
        self.fail_rate = 0.0
        self.torn_rate = 0.0
        self.latency_range = None

    def set_latency(self, low: float, high: float) -> None:
        """Make the disk limp: every write draws a stall in [low, high]."""
        if low < 0 or high < low:
            raise ValueError(f"bad latency bounds [{low}, {high}]")
        self.latency_range = (low, high)

    def clear_latency(self) -> None:
        """Restore a healthy disk."""
        self.latency_range = None

    def flip_bit(self, key: Any) -> bool:
        """Flip one bit of the stored record for ``key`` (file backends).

        Returns ``True`` if a record was corrupted; silent corruption is
        only expressible when the inner backend stores real bytes.
        """
        inner = self.inner
        if not isinstance(inner, FileStorage):
            return False
        from repro.storage.stable import _normalize
        target = inner._file_for(_normalize(key))
        try:
            with open(target, "rb") as handle:
                raw = bytearray(handle.read())
        except FileNotFoundError:
            return False
        if not raw:
            return False
        # Deterministic position from the seeded stream; skip the header
        # line so the flip lands in the payload the CRC protects.
        start = raw.find(b"\n") + 1
        if start >= len(raw):
            start = 0
        position = self.rng.randrange(start, len(raw))
        raw[position] ^= 1 << self.rng.randrange(8)
        with open(target, "wb") as handle:
            handle.write(raw)
        self.injected["bit_flip"] += 1
        return True

    # -- backend hooks (decorate the inner backend's raw hooks) --------------

    def _write(self, path: str, value: Any) -> None:
        mode = self._draw_fault()
        if mode == "torn":
            if self._write_torn(path, value):
                self.injected["torn_write"] += 1
                raise InjectedCrashFault(self.node_hint, "torn-write", path)
            mode = "fail"  # backend cannot express torn bytes
        if mode == "fail":
            self.injected["write_crash"] += 1
            raise InjectedCrashFault(self.node_hint, "write-crash", path)
        if self.latency_range is not None:
            stall = self.rng.uniform(*self.latency_range)
            self.injected["slow_write"] += 1
            self.total_stall += stall
            if self.on_stall is not None:
                self.on_stall(stall)
        self.inner._write(path, value)

    def _draw_fault(self) -> Optional[str]:
        if self._armed is not None:
            mode, self._armed = self._armed, None
            return mode
        if self.torn_rate and self.rng.random() < self.torn_rate:
            return "torn"
        if self.fail_rate and self.rng.random() < self.fail_rate:
            return "fail"
        return None

    def _write_torn(self, path: str, value: Any) -> bool:
        """Land a truncated record in the *final* file, bypassing the
        atomic-rename discipline (that is the fault being modelled)."""
        inner = self.inner
        if not isinstance(inner, FileStorage):
            return False
        from repro.storage import codec
        raw = frame_record(codec.encode(value))
        # Keep the header and some payload, lose the tail.
        cut = raw.find(b"\n") + 1
        keep = cut + self.rng.randrange(0, max(1, len(raw) - cut))
        with open(inner._file_for(path), "wb") as handle:
            handle.write(raw[:keep])
            handle.flush()
            os.fsync(handle.fileno())
        return True

    def _barrier_begin(self) -> None:
        self.inner._barrier_begin()

    def _barrier_end(self) -> None:
        self.inner._barrier_end()

    def _read(self, path: str, default: Any) -> Any:
        return self.inner._read(path, default)

    def _delete_raw(self, path: str) -> None:
        self.inner._delete_raw(path)

    def _keys(self) -> Iterable[str]:
        return self.inner._keys()
