"""In-memory crash-surviving stable storage (simulation backend).

The simulator owns the storage object; a node crash discards the node's
volatile state but never touches this store, which models a disk that
survives process crashes (Section 2.1).

Values are defensively isolated on write and read so protocol code
cannot accidentally mutate "durable" state in place — the closest
in-memory analogue of serialisation through a real disk.  Isolation is
provided by :mod:`repro.storage.snapshot`: immutable values (the vast
majority of what the protocols log) are shared without copying, mutable
containers are structurally rebuilt, with the same observable semantics
as a ``copy.deepcopy`` per operation at a fraction of its cost (a type
the snapshotter does not know falls back to a counted ``deepcopy``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple

from repro.storage.snapshot import snapshot
from repro.storage.stable import StableStorage

__all__ = ["MemoryStorage"]


class MemoryStorage(StableStorage):
    """Dictionary-backed stable storage with copy-on-write/read semantics."""

    def __init__(self) -> None:
        super().__init__()
        # path -> (value, immutable).  Immutable entries are shared with
        # the caller on both sides; mutable ones are re-snapshotted on
        # every read.
        self._data: Dict[str, Tuple[Any, bool]] = {}

    def _write(self, path: str, value: Any) -> None:
        self._data[path] = snapshot(value)

    def _read(self, path: str, default: Any) -> Any:
        entry = self._data.get(path)
        if entry is None:
            return default
        value, immutable = entry
        if immutable:
            return value
        return snapshot(value)[0]

    def _delete_raw(self, path: str) -> None:
        self._data.pop(path, None)

    def _keys(self) -> Iterable[str]:
        return self._data.keys()

    def __len__(self) -> int:
        return len(self._data)
