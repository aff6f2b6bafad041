"""File-backed stable storage: journalled, checksummed, self-healing.

One record file per key under a node-specific directory, plus a journal
(``wal.log``) that is the durability point of every write.  Every record
— in its own file and in the journal — is framed for integrity
checking::

    <crc32 of payload, 8 hex digits> <payload length in bytes>\\n
    <payload: binary, repro.storage.codec>

A record file's payload is the encoding of the value; a journal entry's
is the encoding of ``("w", key, value)`` or ``("d", key)``.  The codec is
the wire's, so a value that arrived in a datagram and is logged as it
came (an :class:`~repro.core.messages.AppMessage`) is not encoded again,
and each value is encoded once for the journal and its file together.

**Durability.**  All records logged inside one ``write_barrier()`` are
appended to the journal as a single buffered write followed by a
**single fsync** — that fsync *is* the barrier's durability point —
after which each record is applied to its per-key file with plain
buffered I/O (no fsync: the journal already holds the data).  A write
outside any barrier commits as a batch of one.  A crash at *any*
instant therefore leaves, for each key, either the old record or the
new one — never a blend: before the journal fsync completes the write
may or may not survive (a torn journal tail is discarded at the first
frame that fails its check, i.e. some suffix of an uncommitted batch,
which the barrier contract explicitly allows); after it the write
survives whatever happens to the per-key file.  The ``group_commits`` /
``group_commit_records`` counters report the batching rate.

**Recovery.**  At open time the journal is replayed: every journalled
record is re-applied with the classic write-to-temp / fsync / rename /
fsync-dir sequence (content on disk cannot be trusted merely because it
reads back — it may never have been flushed) and the journal is
truncated.  Once the journal passes a size threshold it is checkpointed:
the applied files and the directory are fsynced, *then* the journal is
truncated, bounding replay time.

**Self-healing.**  A per-key file that fails its frame check (torn by a
crash mid-application, bit rot, truncation) meets one of two fates,
depending on whether the journal still holds its record:

* *inside the journal window* (written since the last checkpoint) it is
  **healed**: replay rewrites it from the journal at the next open, the
  value is back, nothing is quarantined;
* *older than the last checkpoint* it is **quarantined** — moved aside
  into a ``quarantine/`` subdirectory, counted in
  ``metrics.quarantined`` — and reads return the caller's default,
  exactly as if the record had never been logged.  For the paper's
  protocols that is the correct semantics: recovery proceeds as if the
  ``log`` call had crashed before the write (the protocols are designed
  for precisely that).

A corrupt file met by a *read* (corruption after the open-time scan) is
quarantined on the spot.  The open-time scan also sweeps stale temp
files; :attr:`FileStorage.recovery_report` lists what was replayed,
swept and quarantined.

**Known keys.**  The open-time scan also builds the set of keys that
have a record file, and commits, deletes and quarantines keep it
current: a read of a key that is not there returns the default without
a system call, and listing keys lists the set, not the directory.

This backend exists to demonstrate that the protocols run against a real
disk, and to test durability across *process* restarts; the simulation
experiments use :class:`~repro.storage.memory.MemoryStorage` for speed.
"""

from __future__ import annotations

import os
import tempfile
import zlib
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.storage import codec
from repro.storage.stable import StableStorage

__all__ = ["FileStorage", "frame_record", "unframe_record"]

_SUFFIX = ".rec"
_QUARANTINE_DIR = "quarantine"
_JOURNAL_NAME = "wal.log"
_CHECKPOINT_BYTES = 1 << 20

# Sentinels for the pending-batch overlay: a pending delete, and the
# absent-from-overlay marker (a logged value may itself be None).
_DELETED = object()
_MISSING = object()


def _escape(path: str) -> str:
    """Map a storage key to a safe flat filename."""
    return path.replace("%", "%25").replace("/", "%2F") + _SUFFIX


def _unescape(filename: str) -> str:
    stem = filename[:-len(_SUFFIX)]
    return stem.replace("%2F", "/").replace("%25", "%")


def frame_record(payload: bytes) -> bytes:
    """Frame one codec payload with its CRC32/length header."""
    header = f"{zlib.crc32(payload) & 0xFFFFFFFF:08x} {len(payload)}\n"
    return header.encode("ascii") + payload


def unframe_record(raw: bytes) -> bytes:
    """Verify a framed record and return its payload.

    Raises :class:`ValueError` describing the defect (torn tail, length
    mismatch, checksum mismatch, malformed header) when the record does
    not pass its integrity check.
    """
    newline = raw.find(b"\n")
    if newline < 0:
        raise ValueError("missing frame header")
    header = raw[:newline]
    try:
        crc_hex, length_text = header.decode("ascii").split(" ")
        expect_crc = int(crc_hex, 16)
        expect_len = int(length_text)
    except (UnicodeDecodeError, ValueError) as exc:
        raise ValueError(f"malformed frame header {header!r}") from exc
    payload = raw[newline + 1:]
    if len(payload) != expect_len:
        raise ValueError(
            f"torn record: {len(payload)} payload bytes, "
            f"header promises {expect_len}")
    actual_crc = zlib.crc32(payload) & 0xFFFFFFFF
    if actual_crc != expect_crc:
        raise ValueError(
            f"checksum mismatch: {actual_crc:08x} != {expect_crc:08x}")
    return payload


_WRITE = codec.encode("w")


def _journal_write_entry(path: str, encoded: bytes) -> bytes:
    """``codec.encode(("w", path, value))`` given ``encoded``, the
    encoding of ``value`` — without encoding the value a second time."""
    key = bytearray()
    codec.pack(path, key)
    return codec.splice_tuple((_WRITE, bytes(key), encoded))


def _iter_frames(raw: bytes) -> Iterable[bytes]:
    """Yield payloads of concatenated frames, stopping at the first defect.

    Used for journal replay: a crash mid-commit tears the journal tail,
    so everything up to the tear is durable and everything after it was
    never committed.
    """
    offset = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline < 0:
            return
        header = raw[offset:newline]
        try:
            _, length_text = header.decode("ascii").split(" ")
            expect_len = int(length_text)
        except (UnicodeDecodeError, ValueError):
            return
        end = newline + 1 + expect_len
        if end > len(raw):
            return
        try:
            yield unframe_record(raw[offset:end])
        except ValueError:
            return
        offset = end


def _journal_entries(raw: bytes) -> Iterable[Tuple[str, Any]]:
    """``(key, value or _DELETED)`` per journal entry, in order, stopping
    at the first frame that fails its check or does not decode to an
    entry: that is where the tail was torn."""
    for payload in _iter_frames(raw):
        try:
            entry = codec.decode(payload)
        except codec.CodecError:
            return
        if type(entry) is not tuple or not 2 <= len(entry) <= 3 \
                or type(entry[1]) is not str:
            return
        if entry[0] == "w" and len(entry) == 3:
            yield entry[1], entry[2]
        elif entry[0] == "d" and len(entry) == 2:
            yield entry[1], _DELETED
        else:
            return


class FileStorage(StableStorage):
    """Directory-of-record-files stable storage with atomic, checked writes.

    Parameters
    ----------
    directory:
        The node-specific directory records live in (created if absent).
    """

    def __init__(self, directory: str):
        super().__init__()
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        # (key, defect) pairs healed by the open-time recovery scan.
        self.recovery_report: List[Tuple[str, str]] = []
        self._barrier_depth = 0
        self.dir_fsyncs = 0
        # The overlay of writes/deletes accumulated inside the current
        # barrier (path -> value or _DELETED, in arrival order), files
        # applied without fsync since the last checkpoint, and the
        # journal's current size.
        self._pending: Dict[str, Any] = {}
        self._unsynced: Set[str] = set()
        self._journal_path = os.path.join(directory, _JOURNAL_NAME)
        self._journal_bytes = 0
        self.group_commits = 0
        self.group_commit_records = 0
        # Keys with a record file on disk: filled by the recovery scan,
        # kept current by commits, deletes and quarantines.
        self._present: Set[str] = set()
        self._replay_journal()
        self._recovery_scan()

    def _file_for(self, path: str) -> str:
        return os.path.join(self.directory, _escape(path))

    # -- recovery / self-healing -------------------------------------------

    def _replay_journal(self) -> None:
        """Re-apply journalled records that may not have reached their files.

        Runs before the recovery scan so a file torn by a crash between
        journal commit and buffered application is *rewritten* from the
        journal, not quarantined.  Every entry is re-applied with the
        classic safe sequence (content on disk cannot be trusted merely
        because it reads back correctly — it may never have been
        flushed), then the journal is truncated.
        """
        try:
            with open(self._journal_path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return
        replayed = 0
        for path, value in _journal_entries(raw):
            if value is _DELETED:
                try:
                    os.unlink(self._file_for(path))
                except FileNotFoundError:
                    pass
            else:
                self._write_classic(path, value)
            replayed += 1
        self._truncate_journal()
        if replayed:
            self.recovery_report.append(
                ("wal.log", f"replayed {replayed} journalled records"))

    def _truncate_journal(self) -> None:
        with open(self._journal_path, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        self._journal_bytes = 0
        self._unsynced = set()

    def _recovery_scan(self) -> None:
        """Sweep temp droppings and quarantine corrupt records at open."""
        for filename in sorted(os.listdir(self.directory)):
            full = os.path.join(self.directory, filename)
            if filename.endswith(".tmp"):
                # A write that crashed before its rename; the record it
                # was building was never durably logged.
                os.unlink(full)
                self.recovery_report.append((filename, "stale temp file"))
                continue
            if not filename.endswith(_SUFFIX):
                continue
            key = _unescape(filename)
            try:
                with open(full, "rb") as handle:
                    unframe_record(handle.read())
            except (OSError, ValueError) as exc:
                self._quarantine(filename, key, str(exc))
            else:
                self._present.add(key)

    def _quarantine(self, filename: str, key: str, defect: str) -> None:
        """Move a corrupt record aside; reads of it see no record at all."""
        pen = os.path.join(self.directory, _QUARANTINE_DIR)
        os.makedirs(pen, exist_ok=True)
        src = os.path.join(self.directory, filename)
        dst = os.path.join(pen, filename)
        serial = 0
        while os.path.exists(dst):
            serial += 1
            dst = os.path.join(pen, f"{filename}.{serial}")
        os.replace(src, dst)
        self._present.discard(key)
        self.metrics.quarantined += 1
        self.recovery_report.append((key, defect))
        self._fsync_directory()

    def _fsync_directory(self) -> None:
        """Flush the directory entry so renames survive power loss too."""
        self.dir_fsyncs += 1
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- write barriers ------------------------------------------------------

    def _barrier_begin(self) -> None:
        self._barrier_depth += 1

    def _barrier_end(self) -> None:
        self._barrier_depth -= 1
        if self._barrier_depth == 0:
            self._commit_batch()

    # -- group commit --------------------------------------------------------

    def _commit_batch(self) -> None:
        """Make the pending overlay durable: one journal write, one fsync."""
        if not self._pending:
            return
        batch = self._pending
        self._pending = {}
        # Each value is encoded once: the same bytes go into the journal
        # entry (spliced, byte-identical to encoding ``("w", path,
        # value)`` whole) and into the per-key file.
        encoded: Dict[str, bytes] = {}
        frames = []
        for path, value in batch.items():
            if value is _DELETED:
                frames.append(frame_record(codec.encode(("d", path))))
            else:
                data = encoded[path] = codec.encode(value)
                frames.append(frame_record(_journal_write_entry(path, data)))
        blob = b"".join(frames)
        with open(self._journal_path, "ab") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        self._journal_bytes += len(blob)
        self.group_commits += 1
        self.group_commit_records += len(batch)
        # Durability is settled; application is plain buffered I/O.  A
        # crash before these bytes reach disk is healed by journal
        # replay at the next open.
        for path, value in batch.items():
            target = self._file_for(path)
            if value is _DELETED:
                try:
                    os.unlink(target)
                except FileNotFoundError:
                    pass
                self._unsynced.discard(target)
                self._present.discard(path)
            else:
                with open(target, "wb") as handle:
                    handle.write(frame_record(encoded[path]))
                self._unsynced.add(target)
                self._present.add(path)
        if self._journal_bytes >= _CHECKPOINT_BYTES:
            self._checkpoint()

    def _checkpoint(self) -> None:
        """Flush applied files so the journal can be truncated."""
        for target in sorted(self._unsynced):
            try:
                fd = os.open(target, os.O_RDONLY)
            except FileNotFoundError:
                continue
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        self._fsync_directory()
        self._truncate_journal()

    # -- backend hooks -------------------------------------------------------

    def _write_classic(self, path: str, value: Any) -> None:
        raw = frame_record(codec.encode(value))
        fd, tmp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(raw)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self._file_for(path))
            self._fsync_directory()
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)

    def _write(self, path: str, value: Any) -> None:
        self._pending[path] = value
        if self._barrier_depth == 0:
            self._commit_batch()

    def _read(self, path: str, default: Any) -> Any:
        pending = self._pending.get(path, _MISSING)
        if pending is not _MISSING:
            return default if pending is _DELETED else pending
        if path not in self._present:
            return default
        try:
            with open(self._file_for(path), "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            self._present.discard(path)
            return default
        try:
            return codec.decode(unframe_record(raw))
        except (ValueError, codec.CodecError) as exc:
            # Detected lazily (corruption after the open-time scan, e.g.
            # an injected disk fault): heal in place and report no record.
            self._quarantine(_escape(path), path, str(exc))
            return default

    def _delete_raw(self, path: str) -> None:
        # Journalled even outside a barrier: an earlier write of this
        # key may still sit in the journal, and replay must not
        # resurrect it after a crash.
        self._pending[path] = _DELETED
        if self._barrier_depth == 0:
            self._commit_batch()

    def _keys(self) -> Iterable[str]:
        keys = set(self._present)
        for path, value in self._pending.items():
            if value is _DELETED:
                keys.discard(path)
            else:
                keys.add(path)
        return keys
