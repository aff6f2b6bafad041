"""In-memory crash-surviving stable storage (simulation backend).

The simulator owns the storage object; a node crash discards the node's
volatile state but never touches this store, which models a disk that
survives process crashes (Section 2.1).

The store keeps references: ``retrieve`` returns the very object
``log`` was given.  That is safe because every logged value is
immutable — ints, tuples, frozensets, messages whose headers and
payloads are never mutated.  :meth:`~repro.storage.stable.StableStorage.log`
sizes each value before it reaches the backend, and the size model
(:func:`repro.sizing.estimate_size`) refuses a ``list``, ``dict``,
``set`` or ``bytearray`` at any depth, so a record that could be
mutated in place fails at the write that made it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

from repro.storage.stable import StableStorage

__all__ = ["MemoryStorage"]


class MemoryStorage(StableStorage):
    """Dictionary-backed stable storage holding references to immutable
    records."""

    def __init__(self) -> None:
        super().__init__()
        self._data: Dict[str, Any] = {}

    def _write(self, path: str, value: Any) -> None:
        self._data[path] = value

    def _read(self, path: str, default: Any) -> Any:
        return self._data.get(path, default)

    def _delete_raw(self, path: str) -> None:
        self._data.pop(path, None)

    def _keys(self) -> Iterable[str]:
        return self._data.keys()
