"""Stable storage: the ``log`` / ``retrieve`` primitives of Section 2.1.

The paper's efficiency argument is counted in *log operations*: the basic
protocol performs exactly one log per consensus round (the proposal, which
the Consensus black box would log anyway), while the alternative protocol
trades additional logs for faster recovery and earlier ``A-broadcast``
returns.  :class:`StorageMetrics` therefore counts every durable write and
its encoded length (:func:`repro.storage.codec.size`); experiments
E2/E4/E7 read these counters.

Two concrete backends exist:

* :class:`~repro.storage.memory.MemoryStorage` — crash-surviving in-memory
  store for simulation (the simulator owns it; node crashes never touch it).
* :class:`~repro.storage.file.FileStorage` — journalled, checksummed
  record files in the wire's binary codec, for real deployments and
  durability tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Tuple,
                    Union)

from repro.errors import StorageError
from repro.storage import codec

__all__ = ["StableStorage", "StorageMetrics", "Key"]

# Keys are flat strings or structured tuples like ("paxos", 3, "accepted").
Key = Union[str, Tuple[Any, ...]]


def _normalize(key: Key) -> str:
    """Flatten a structured key to a canonical string path."""
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    raise StorageError(f"unsupported key type: {type(key).__name__}")


class StorageMetrics:
    """Counters for durable writes; the unit of the paper's cost model.

    Writes are attributed to the first segment of the storage key
    (``consensus``, ``paxos``, ``ab``, ``fd`` …) so experiment E2 can
    check the paper's claim that Atomic Broadcast performs **no** log
    operations beyond those of the Consensus black box.
    """

    __slots__ = ("log_ops", "bytes_logged", "retrievals", "deletes",
                 "quarantined", "ops_by_prefix", "bytes_by_prefix")

    def __init__(self) -> None:
        self.log_ops = 0
        self.bytes_logged = 0
        self.retrievals = 0
        self.deletes = 0
        # Records found torn or corrupt and set aside by a self-healing
        # backend (FileStorage's CRC scan) instead of being served.
        self.quarantined = 0
        self.ops_by_prefix: Dict[str, int] = {}
        self.bytes_by_prefix: Dict[str, int] = {}

    def record_write(self, path: str, size: int) -> None:
        """Account one durable write of ``size`` bytes under ``path``."""
        self.log_ops += 1
        self.bytes_logged += size
        prefix = path.split("/", 1)[0]
        self.ops_by_prefix[prefix] = self.ops_by_prefix.get(prefix, 0) + 1
        self.bytes_by_prefix[prefix] = \
            self.bytes_by_prefix.get(prefix, 0) + size

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy, for metric collection."""
        return {
            "log_ops": self.log_ops,
            "bytes_logged": self.bytes_logged,
            "retrievals": self.retrievals,
            "deletes": self.deletes,
            "quarantined": self.quarantined,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"StorageMetrics(ops={self.log_ops}, "
                f"bytes={self.bytes_logged})")


class StableStorage:
    """Abstract stable storage with operation accounting.

    Subclasses implement ``_read``/``_write``/``_delete_raw``/``_keys``;
    this base class normalises keys and maintains :class:`StorageMetrics`.
    """

    def __init__(self) -> None:
        self.metrics = StorageMetrics()

    # -- primitive interface (paper: log / retrieve) -------------------------

    def log(self, key: Key, value: Any) -> None:
        """Durably record ``value`` under ``key`` (one log operation).

        A logged value is immutable — tuples and frozensets, not lists,
        sets or dicts: a backend may keep the object itself
        (:class:`~repro.storage.memory.MemoryStorage` does).  Sizing the
        write refuses a mutable container at any depth with
        :class:`TypeError` (:func:`repro.storage.codec.size`).
        """
        path = _normalize(key)
        self.metrics.record_write(path, codec.size(value))
        self._write(path, value)

    def retrieve(self, key: Key, default: Any = None) -> Any:
        """Read back the value logged under ``key`` (or ``default``)."""
        self.metrics.retrievals += 1
        return self._read(_normalize(key), default)

    def contains(self, key: Key) -> bool:
        """True if ``key`` has a logged value (not counted as a retrieval)."""
        sentinel = object()
        return self._read(_normalize(key), sentinel) is not sentinel

    # -- incremental logs (Section 5.5) ---------------------------------------

    def append(self, key: Key, item: Any) -> None:
        """Append ``item`` to the sequence logged under ``key``.

        This is the incremental-logging primitive: only the *new* part is
        charged, so appending is cheaper than re-logging the whole value.
        The stored sequence is a tuple, and ``item``, like any logged
        value, is immutable.
        """
        path = _normalize(key)
        self.metrics.record_write(path, codec.size(item))
        existing = self._read(path, ())
        if not isinstance(existing, tuple):
            raise StorageError(f"append to non-sequence key {path!r}")
        self._write(path, existing + (item,))

    def retrieve_list(self, key: Key) -> List[Any]:
        """Read back an appended-to sequence as a fresh list (empty if
        absent)."""
        value = self.retrieve(key, default=())
        if not isinstance(value, tuple):
            raise StorageError(f"key {_normalize(key)!r} is not a sequence")
        return list(value)

    # -- write barriers ----------------------------------------------------------

    @contextmanager
    def write_barrier(self):
        """Group several ``log`` calls into one logical durability barrier.

        Backends may coalesce per-write flush work (e.g. the journal
        fsync) and perform it once when the barrier exits.  The
        contract is deliberately weak: every record keeps its individual
        atomicity (old value or new value, never a blend), but the
        *durability* of writes inside the barrier is only guaranteed
        after the barrier exits, and a crash mid-barrier may persist any
        subset of them.  Only writes that are individually safe to lose
        — the paper's model for every ``log`` call — may be grouped.

        The default implementation is a no-op, so protocol code can use
        barriers unconditionally; metric accounting is unaffected either
        way (a batched write is still one log op).
        :class:`~repro.storage.file.FileStorage` batches the barrier's
        records into one journal write with a single fsync as the
        durability point; wrappers forward both hooks to the backend
        they decorate.
        """
        self._barrier_begin()
        try:
            yield self
        finally:
            self._barrier_end()

    def _barrier_begin(self) -> None:
        """Backend hook: a write barrier opened (may nest)."""

    def _barrier_end(self) -> None:
        """Backend hook: a write barrier closed (may nest)."""

    # -- maintenance -------------------------------------------------------------

    def delete(self, key: Key) -> None:
        """Discard the value under ``key`` (log truncation, Section 5.1)."""
        self.metrics.deletes += 1
        self._delete_raw(_normalize(key))

    def delete_prefix(self, prefix: Key) -> int:
        """Discard every key under ``prefix``; returns the number deleted."""
        path = _normalize(prefix)
        doomed = [k for k in self._keys() if k == path or
                  k.startswith(path + "/")]
        for key in doomed:
            self.metrics.deletes += 1
            self._delete_raw(key)
        return len(doomed)

    def keys(self, prefix: Optional[Key] = None) -> Iterator[str]:
        """Iterate stored keys, optionally restricted to a prefix."""
        if prefix is None:
            yield from sorted(self._keys())
            return
        path = _normalize(prefix)
        for key in sorted(self._keys()):
            if key == path or key.startswith(path + "/"):
                yield key

    def total_bytes_stored(self) -> int:
        """Current footprint of the store (size of all live values).

        This is the quantity bounded by application-level checkpoints
        (Section 5.2): counters measure write *traffic*, this measures
        *residency*.
        """
        return sum(codec.size(self._read(key, None))
                   for key in self._keys())

    # -- backend hooks --------------------------------------------------------------

    def _write(self, path: str, value: Any) -> None:
        raise NotImplementedError

    def _read(self, path: str, default: Any) -> Any:
        raise NotImplementedError

    def _delete_raw(self, path: str) -> None:
        raise NotImplementedError

    def _keys(self) -> Iterable[str]:
        raise NotImplementedError
