"""Stable storage: the ``log`` / ``retrieve`` primitives of Section 2.1.

The paper's efficiency argument is counted in *log operations*: the basic
protocol performs exactly one log per consensus round (the proposal, which
the Consensus black box would log anyway), while the alternative protocol
trades additional logs for faster recovery and earlier ``A-broadcast``
returns.  :class:`StorageMetrics` therefore counts every durable write and
its encoded length (:func:`repro.storage.codec.size`); experiments
E2/E4/E7 read these counters.

**One engine.**  :class:`StableStorage` keeps a key → value map of the
very objects ``log`` was given, so a read never touches a disk.  That is
safe because every logged value is immutable, and ``log`` sizes it
first: the size model refuses a ``list``, ``dict``, ``set`` or
``bytearray`` at any depth.  Without a disk the map is the store, and
the object survives its node's crashes (the simulator's default).
Given a :class:`~repro.storage.disk.Disk` the engine also keeps one
append-only journal of frames, one per batch of records::

    <crc32 of payload, 8 hex digits> <payload length in bytes>\\n
    <payload: the batch, binary, repro.storage.codec>

A record is ``("w", key, value)``, ``("a", key, item)`` (an
:meth:`~StableStorage.append`) or ``("d", key)``.  The codec is the
wire's, so an :class:`~repro.core.messages.AppMessage` logged as it
arrived is not encoded again.  A write barrier's records are one frame,
one append and one fsync; a write outside any barrier is a batch of one.
A frame is atomic, so a barrier may group any writes: on a node, each
turn is one barrier, and its frames leave only after it commits.

**Open.**  A store opened on a disk replays its journal and stops at
the first frame that fails its check, so what a disk keeps is always
the state after some prefix of its batches, never a blend.  A frame cut
short is what a crash mid-append leaves; any other defect (checksum,
header, a payload that is no batch) is damage, counted in
``metrics.quarantined``.  Either way the tail is dropped, and the
journal rewritten without it.  When dead bytes (records since
overwritten or deleted) outweigh live ones and pass ``_COMPACT_BYTES``,
the journal is compacted: rewritten as one frame per live key and
swapped in whole (:meth:`~repro.storage.disk.Disk.replace`).
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import StorageError
from repro.storage import codec
from repro.storage.disk import Disk, InjectedCrashFault

__all__ = ["StableStorage", "StorageMetrics", "Key", "frame_record",
           "read_journal"]

# Keys are flat strings or structured tuples like ("paxos", 3, "accepted").
Key = Union[str, Tuple[Any, ...]]

_COMPACT_BYTES = 1 << 20
_MISSING = object()


def _normalize(key: Key) -> str:
    """Flatten a structured key to a canonical string path."""
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    raise StorageError(f"unsupported key type: {type(key).__name__}")


def frame_record(payload: bytes) -> bytes:
    """Frame one codec payload with its CRC32/length header."""
    header = f"{zlib.crc32(payload) & 0xFFFFFFFF:08x} {len(payload)}\n"
    return header.encode("ascii") + payload


def _is_record(entry: Any) -> bool:
    if type(entry) is not tuple or len(entry) < 2 \
            or type(entry[1]) is not str:
        return False
    return (entry[0] in ("w", "a") and len(entry) == 3) \
        or (entry[0] == "d" and len(entry) == 2)


def read_journal(raw: bytes) -> Tuple[List[Tuple[Any, int]], bool]:
    """The batches of journal bytes ``raw`` — each a tuple of records —
    with their framed lengths, in order, up to the first frame that
    fails its check; and whether that frame was damaged rather than cut
    short."""
    frames: List[Tuple[Any, int]] = []
    offset = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline < 0:
            return frames, False
        try:
            crc_hex, length_text = raw[offset:newline].split(b" ")
            crc, length = int(crc_hex, 16), int(length_text)
        except ValueError:
            return frames, True
        end = newline + 1 + length
        if end > len(raw):
            return frames, False
        payload = raw[newline + 1:end]
        if length < 0 or zlib.crc32(payload) != crc:
            return frames, True
        try:
            batch = codec.decode(payload)
        except codec.CodecError:
            return frames, True
        if type(batch) is not tuple or not batch \
                or not all(_is_record(record) for record in batch):
            return frames, True
        frames.append((batch, end - offset))
        offset = end
    return frames, False


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
        # Damaged journal frames found at open: each drops the tail
        # from that frame on.
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


class StableStorage:
    """The stable store of one process: a map of the logged objects,
    journalled to ``disk`` when it has one.

    A handle opened on a disk replays it; ``group_commits`` and
    ``group_commit_records`` count its appends and the records they
    carried.  Its metrics count only what this handle did (replay is
    not a ``log``), except ``quarantined``, which :meth:`reopen` carries
    over.
    """

    def __init__(self, disk: Optional[Disk] = None) -> None:
        self.metrics = StorageMetrics()
        self.disk = disk
        self._data: Dict[str, Any] = {}
        # With a disk: the records the open barrier has yet to commit,
        # its depth, the journal bytes of each key's live records, their
        # sum, and the journal's size.
        self._batch: List[Tuple[Any, ...]] = []
        self._depth = 0
        self._sizes: Dict[str, int] = {}
        self._live = 0
        self._journal_bytes = 0
        self.group_commits = 0
        self.group_commit_records = 0
        if disk is not None:
            self._replay(disk.read())

    def reopen(self) -> "StableStorage":
        """The store the process finds when it restarts after a crash:
        this one if it has no disk, else a new handle on what the disk
        kept, which carries on counting the damaged frames found."""
        if self.disk is None:
            return self
        self.disk.crash()
        reopened = StableStorage(self.disk)
        reopened.metrics.quarantined += self.metrics.quarantined
        return reopened

    # -- primitive interface (paper: log / retrieve) -------------------------

    def log(self, key: Key, value: Any) -> None:
        """Durably record ``value`` under ``key`` (one log operation).

        A logged value is immutable — tuples and frozensets, not lists,
        sets or dicts: the store keeps the object itself.  Sizing the
        write refuses a mutable container at any depth with
        :class:`TypeError` (:func:`repro.storage.codec.size`).
        """
        path = _normalize(key)
        self.metrics.record_write(path, codec.size(value))
        self._write(path, value, "w", value)

    def retrieve(self, key: Key, default: Any = None) -> Any:
        """Read back the value logged under ``key`` (or ``default``)."""
        self.metrics.retrievals += 1
        return self._data.get(_normalize(key), default)

    def contains(self, key: Key) -> bool:
        """True if ``key`` has a logged value (not counted as a retrieval)."""
        return _normalize(key) in self._data

    # -- incremental logs (Section 5.5) ---------------------------------------

    def append(self, key: Key, item: Any) -> None:
        """Append ``item`` to the sequence logged under ``key``.

        This is the incremental-logging primitive: only the *new* part is
        charged, and journalled, so appending is cheaper than re-logging
        the whole value.  The stored sequence is a tuple, and ``item``,
        like any logged value, is immutable.
        """
        path = _normalize(key)
        self.metrics.record_write(path, codec.size(item))
        existing = self._data.get(path, ())
        if not isinstance(existing, tuple):
            raise StorageError(f"append to non-sequence key {path!r}")
        self._write(path, existing + (item,), "a", item)

    def retrieve_list(self, key: Key) -> List[Any]:
        """Read back an appended-to sequence as a fresh list (empty if
        absent)."""
        value = self.retrieve(key, default=())
        if not isinstance(value, tuple):
            raise StorageError(f"key {_normalize(key)!r} is not a sequence")
        return list(value)

    # -- write barriers ----------------------------------------------------------

    def write_barrier(self) -> "StableStorage":
        """Group several writes into one journal frame:
        ``with storage.write_barrier(): ...``.

        The records are one frame, appended and fsynced when the
        outermost barrier exits, so they survive a crash all together
        or not at all, and are durable only after the exit.  A disk
        fault (:class:`~repro.storage.disk.InjectedCrashFault`)
        unwinding the barrier commits nothing: the process is crashing.
        Any other exception leaves the barrier as a normal exit does,
        committing what it holds, so the map and the journal agree on a
        process that keeps running.  Reads inside see the barrier's
        writes; each write is still one log op.  A node's turn is one
        barrier (:meth:`repro.runtime.node.Node._turn`).
        """
        return self

    def __enter__(self) -> "StableStorage":
        self._depth += 1
        return self

    def __exit__(self, kind: Any, error: Any, trace: Any) -> None:
        self._depth -= 1
        if kind is not None and issubclass(kind, InjectedCrashFault):
            self._batch = []  # the process is crashing: nothing commits
        elif self._depth == 0 and self._batch:
            self._commit()

    @property
    def barrier_open(self) -> bool:
        """True while a write barrier has yet to exit."""
        return self._depth > 0

    # -- maintenance -------------------------------------------------------------

    def delete(self, key: Key) -> None:
        """Discard the value under ``key`` (log truncation, Section 5.1)."""
        self.metrics.deletes += 1
        self._delete_raw(_normalize(key))

    def delete_prefix(self, prefix: Key) -> int:
        """Discard every key under ``prefix``; returns the number deleted."""
        path = _normalize(prefix)
        doomed = [key for key in self._data
                  if key == path or key.startswith(path + "/")]
        for key in doomed:
            self.metrics.deletes += 1
            self._delete_raw(key)
        return len(doomed)

    def keys(self, prefix: Optional[Key] = None) -> Iterator[str]:
        """Iterate stored keys, optionally restricted to a prefix."""
        if prefix is None:
            yield from sorted(self._data)
            return
        path = _normalize(prefix)
        for key in sorted(self._data):
            if key == path or key.startswith(path + "/"):
                yield key

    def total_bytes_stored(self) -> int:
        """Current footprint of the store (size of all live values).

        This is the quantity bounded by application-level checkpoints
        (Section 5.2): counters measure write *traffic*, this measures
        *residency*.
        """
        return sum(codec.size(value) for value in self._data.values())

    def compact(self) -> None:
        """Rewrite the journal as one frame per live key, swapped in
        whole; records the open barrier holds are in it."""
        assert self.disk is not None
        frames = [frame_record(codec.encode((("w", path, value),)))
                  for path, value in self._data.items()]
        self.disk.replace(b"".join(frames))
        self._batch = []
        self._sizes = {path: len(frame)
                       for path, frame in zip(self._data, frames)}
        self._live = self._journal_bytes = sum(self._sizes.values())

    # -- the map and its journal ------------------------------------------------

    def _write(self, path: str, value: Any, op: str, logged: Any) -> None:
        """Hold ``value`` under ``path``; journal ``(op, path, logged)``."""
        self._data[path] = value
        if self.disk is not None:
            self._journal((op, path, logged))

    def _delete_raw(self, path: str) -> None:
        if self._data.pop(path, _MISSING) is not _MISSING \
                and self.disk is not None:
            self._journal(("d", path))

    def _journal(self, record: Tuple[Any, ...]) -> None:
        self._batch.append(record)
        if self._depth == 0:
            self._commit()

    def _account(self, batch: Tuple[Any, ...], size: int) -> None:
        """Track live and total journal bytes for one framed batch, each
        record charged an equal share of the frame."""
        share = size // len(batch)
        sizes = self._sizes
        for record in batch:
            path = record[1]
            old = sizes.pop(path, 0)
            if record[0] == "d":
                self._live -= old
            else:
                kept = share + old if record[0] == "a" else share
                sizes[path] = kept
                self._live += kept - old
        self._journal_bytes += size

    def _commit(self) -> None:
        """One append and one fsync for the pending batch."""
        assert self.disk is not None
        batch = tuple(self._batch)
        self._batch = []
        frame = frame_record(codec.encode(batch))
        self.disk.append(frame)
        self.disk.fsync()
        self.group_commits += 1
        self.group_commit_records += len(batch)
        self._account(batch, len(frame))
        if self._journal_bytes - self._live > max(self._live,
                                                  _COMPACT_BYTES):
            self.compact()

    def _replay(self, raw: bytes) -> None:
        """Rebuild the map from the journal, up to its first bad frame."""
        frames, damaged = read_journal(raw)
        for batch, size in frames:
            if not self._apply(batch):
                damaged = True
                break
            self._account(batch, size)
        if damaged:
            self.metrics.quarantined += 1
        if self._journal_bytes < len(raw) or self._journal_bytes - \
                self._live > max(self._live, _COMPACT_BYTES):
            self.compact()

    def _apply(self, batch: Tuple[Any, ...]) -> bool:
        """Replay one batch; False if it appends to a non-sequence."""
        data = self._data
        for record in batch:
            op, path = record[0], record[1]
            if op == "w":
                data[path] = record[2]
            elif op == "d":
                data.pop(path, None)
            elif type(data.get(path, ())) is tuple:
                data[path] = data.get(path, ()) + (record[2],)
            else:
                return False
        return True
