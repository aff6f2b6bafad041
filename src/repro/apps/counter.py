"""Sequence-recording application (test instrumentation).

Keeps the exact sequence of delivered payloads — the literal
``A-deliver-sequence`` — so tests and the verification harness can
compare replicas directly.  Also derives an order-sensitive digest
(a rolling hash), so two replicas with equal digests applied the same
messages in the same order with overwhelming probability.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.apps.base import Application
from repro.core.messages import AppMessage

__all__ = ["SequenceRecorder"]

_MOD = (1 << 61) - 1
_BASE = 1_000_003


class SequenceRecorder(Application):
    """Records delivered message ids and payloads, in order."""

    def __init__(self) -> None:
        self.entries: List[Tuple[Tuple[int, int, int], Any]] = []
        self.digest = 0

    def apply(self, message: AppMessage) -> Any:
        entry = (tuple(message.id), message.payload)
        self.entries.append(entry)
        self.digest = (self.digest * _BASE + hash(entry[0])) % _MOD
        return len(self.entries)

    def snapshot(self) -> Any:
        """``(entries, digest)``."""
        return tuple(self.entries), self.digest

    def restore(self, state: Any) -> None:
        if state is None:
            self.entries = []
            self.digest = 0
        else:
            entries, digest = state
            self.entries = [(tuple(identity), payload)
                            for identity, payload in entries]
            self.digest = int(digest)

    def payloads(self) -> List[Any]:
        """Delivered payloads, in delivery order."""
        return [payload for _, payload in self.entries]

    def ids(self) -> List[Tuple[int, int, int]]:
        """Delivered message ids, in delivery order."""
        return [identity for identity, _ in self.entries]
