"""Replicated key-value store.

The canonical software-replication use case from the paper's introduction:
updates are disseminated through Atomic Broadcast, so every replica
applies the same writes in the same order and stays consistent.  Commands
are plain tuples, so they survive the storage codec:

* ``("put", key, value)``
* ``("del", key)``
* ``("append", key, item)`` — read-modify-write, order-sensitive: two
  replicas that applied appends in different orders diverge immediately,
  which makes this command a sharp consistency probe in tests.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.apps.base import Application
from repro.core.messages import AppMessage

__all__ = ["KeyValueStore"]


class KeyValueStore(Application):
    """Dictionary state machine with order-sensitive commands."""

    def __init__(self) -> None:
        self.data: Dict[str, Any] = {}
        self.version = 0

    # -- state machine ---------------------------------------------------------

    def apply(self, message: AppMessage) -> Any:
        command = message.payload
        op = command[0]
        self.version += 1
        if op == "put":
            _, key, value = command
            self.data[key] = value
            return value
        if op == "del":
            _, key = command
            return self.data.pop(key, None)
        if op == "append":
            _, key, item = command
            current = list(self.data.get(key, ()))
            current.append(item)
            self.data[key] = tuple(current)
            return self.data[key]
        raise ValueError(f"unknown KV command {op!r}")

    def snapshot(self) -> Any:
        """``(((key, value), ...), version)``, in insertion order."""
        return tuple(self.data.items()), self.version

    def restore(self, state: Any) -> None:
        if state is None:
            self.data = {}
            self.version = 0
        else:
            items, version = state
            self.data = dict(items)
            self.version = int(version)

    # -- reads (local, not ordered) ----------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Local read of the replica state."""
        return self.data.get(key, default)

    def __len__(self) -> int:
        return len(self.data)
