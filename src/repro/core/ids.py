"""Message identities.

The paper assumes all messages are distinct, "easily ensured by adding an
identity composed of a pair (local sequence number, sender identity)"
(Section 2.2).  In the crash-recovery model a *volatile* sequence counter
is not enough: a sender that crashes before its message reaches the
Agreed queue restarts counting and could mint the same (sender, seq) pair
for a different payload, breaking Integrity.  We therefore extend the
identity with a durable *incarnation* number, bumped once per
start/recovery — one log write per recovery, none per message, so the
paper's "no log operations beyond Consensus" accounting for the steady
state is preserved (see DESIGN.md, substitutions).
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["MessageId"]


class MessageId(NamedTuple):
    """Globally unique message identity; orderable.

    The natural tuple order ``(sender, incarnation, seq)`` doubles as the
    protocol's *predetermined deterministic rule* for ordering the
    messages of one consensus batch (Section 4.2).
    """

    sender: int
    incarnation: int
    seq: int

    def label(self) -> str:
        """Compact human-readable form, e.g. ``"2.1.15"``."""
        return f"{self.sender}.{self.incarnation}.{self.seq}"
