"""Eager-logging Atomic Broadcast (the strawman of Section 4.3).

The paper argues that treating every protocol variable as critical —
logging the Unordered set and the Agreed queue on every update — is what
a naive crash-recovery port of Chandra-Toueg would do, and that its own
design ("must not log a critical data every time it is updated",
Section 1) avoids exactly that cost.

This baseline *is* the naive port: functionally identical to the basic
protocol (it inherits the whole ordering loop), but it durably writes

* the Unordered set every time a message is admitted, and
* the round number and Agreed queue every time a round commits.

Experiment E2 counts its log operations per delivered message against the
basic protocol's.  Recovery does exploit the logs (restoring ``k`` and
``Agreed`` directly), so the baseline is not artificially handicapped —
it simply pays for durability it rarely needs.
"""

from __future__ import annotations

from repro.core.agreed import AgreedQueue
from repro.core.basic import BasicAtomicBroadcast
from repro.core.messages import AppMessage

__all__ = ["EagerLoggingAtomicBroadcast"]


class EagerLoggingAtomicBroadcast(BasicAtomicBroadcast):
    """Logs Unordered and (k, Agreed) on every update."""

    name = "eager-atomic-broadcast"

    UNORDERED_KEY = ("ab", "eager-unordered")
    AGREED_KEY = ("ab", "eager-agreed")

    def _restore_volatile_state(self) -> None:
        assert self.node is not None
        stored = self.node.storage.retrieve(self.AGREED_KEY, None)
        if stored is not None:
            stored_k, agreed_plain = stored
            self.k = int(stored_k)
            self.agreed = AgreedQueue.from_plain(agreed_plain,
                                                 self.order_rule)
            self._pending_restore = True
        for message in self.node.storage.retrieve_list(self.UNORDERED_KEY):
            self._admit_locally(message)

    def _admit_locally(self, message: AppMessage) -> None:
        if message.id in self.unordered or message in self.agreed:
            return
        super()._admit_locally(message)
        assert self.node is not None
        # Critical-on-every-update: the whole set, every time.
        self.node.storage.log(self.UNORDERED_KEY,
                              tuple(self.unordered.values()))

    def _after_round(self) -> None:
        assert self.node is not None
        self.node.storage.log(self.AGREED_KEY,
                              (self.k, self.agreed.to_plain()))
        self.node.storage.log(self.UNORDERED_KEY,
                              tuple(self.unordered.values()))
