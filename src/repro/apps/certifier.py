"""Deferred-update replicated database with certification (Section 6.2).

Implements the termination protocol of Pedone-Guerraoui-Schiper [15] on
top of Atomic Broadcast: a transaction executes locally at one replica
(collecting read and write sets against a local snapshot), then at commit
time the transaction — read set, write set and the versions it read — is
A-broadcast.  Every replica *certifies* transactions in delivery order:

* a transaction **commits** if none of the items it read were written by
  a transaction that committed after the reader's snapshot;
* otherwise it **aborts**.

Because every replica certifies the same transactions in the same total
order against the same history, all replicas reach identical commit /
abort verdicts and identical database states — exactly the argument of
Section 6.2 for using Atomic Broadcast instead of atomic commitment.

Transaction payload (codec-friendly)::

    ("txn", txn_id,
     (("x", version_read), ...),      # read set with snapshot versions
     (("y", new_value), ...))         # write set
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.apps.base import Application
from repro.core.messages import AppMessage

__all__ = ["CertifyingDatabase", "make_transaction"]


def make_transaction(txn_id: str,
                     reads: List[Tuple[str, int]],
                     writes: List[Tuple[str, Any]]) -> tuple:
    """Build a certification request payload."""
    return ("txn", txn_id, tuple(tuple(r) for r in reads),
            tuple(tuple(w) for w in writes))


class CertifyingDatabase(Application):
    """Multi-version store with delivery-order certification."""

    def __init__(self) -> None:
        self.values: Dict[str, Any] = {}
        self.versions: Dict[str, int] = {}   # commit counter per item
        self.committed = 0
        self.aborted = 0
        self.verdicts: Dict[str, bool] = {}  # txn_id -> committed?
        self.commit_seq = 0

    # -- local execution helpers (not ordered) ---------------------------------

    def read(self, key: str) -> Tuple[Any, int]:
        """Local snapshot read: (value, version) for a transaction."""
        return self.values.get(key), self.versions.get(key, 0)

    # -- state machine -------------------------------------------------------------

    def apply(self, message: AppMessage) -> Any:
        tag, txn_id, reads, writes = message.payload
        if tag != "txn":
            raise ValueError(f"unknown database command {tag!r}")
        committed = all(self.versions.get(key, 0) == version
                        for key, version in reads)
        self.verdicts[txn_id] = committed
        if committed:
            self.commit_seq += 1
            for key, value in writes:
                self.values[key] = value
                self.versions[key] = self.commit_seq
            self.committed += 1
        else:
            self.aborted += 1
        return committed

    def snapshot(self) -> Any:
        """``(values, versions, committed, aborted, verdicts,
        commit_seq)``, each map as a tuple of its items."""
        return (tuple(self.values.items()), tuple(self.versions.items()),
                self.committed, self.aborted,
                tuple(self.verdicts.items()), self.commit_seq)

    def restore(self, state: Any) -> None:
        if state is None:
            self.__init__()
            return
        (values, versions, committed, aborted, verdicts,
         commit_seq) = state
        self.values = dict(values)
        self.versions = dict(versions)
        self.committed = int(committed)
        self.aborted = int(aborted)
        self.verdicts = dict(verdicts)
        self.commit_seq = int(commit_seq)

    @property
    def abort_rate(self) -> float:
        """Fraction of certified transactions that aborted."""
        total = self.committed + self.aborted
        return self.aborted / total if total else 0.0
