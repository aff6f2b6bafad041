"""The :class:`View` value type and the reconfiguration command codec.

A view is an immutable ``(epoch, members)`` pair; epoch 0 is the
build-time configuration and every *effective* reconfiguration command
(one that actually changes the member set) advances the epoch by one.
Because reconfiguration commands are ordered by Atomic Broadcast, every
process walks the exact same sequence of views — the view timeline is as
deterministic as the delivery sequence itself.

Epochs and the paper's incarnation numbers are orthogonal counters: an
incarnation numbers the *lifetimes of one process* (bumped durably on
every recovery, part of every :class:`~repro.core.ids.MessageId`), while
an epoch numbers the *configurations of the whole group*.  A message id
never mentions the epoch — a message submitted under one view is
delivered under whatever view its ordering position falls in.

Reconfiguration commands are encoded as plain strings
(``"reconfig:join:5"``) so they survive every storage and wire codec
unchanged, exactly like application payloads.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["RECONFIG_OPS", "View", "parse_reconfig", "reconfig_payload"]

RECONFIG_OPS = ("join", "leave", "evict")

_RECONFIG_PREFIX = "reconfig:"


def reconfig_payload(op: str, target: int) -> str:
    """Encode a reconfiguration command as an A-broadcast payload."""
    if op not in RECONFIG_OPS:
        raise SimulationError(
            f"unknown reconfiguration op {op!r}; pick one of {RECONFIG_OPS}")
    return f"{_RECONFIG_PREFIX}{op}:{int(target)}"


def parse_reconfig(payload: object) -> Optional[Tuple[str, int]]:
    """Decode ``(op, target)`` from a payload, or None for ordinary data."""
    if not isinstance(payload, str) or not payload.startswith(
            _RECONFIG_PREFIX):
        return None
    parts = payload.split(":")
    if len(parts) != 3 or parts[1] not in RECONFIG_OPS:
        return None
    try:
        target = int(parts[2])
    except ValueError:
        return None
    return parts[1], target


class View:
    """One immutable configuration of the group."""

    __slots__ = ("epoch", "members")

    def __init__(self, epoch: int, members: Iterable[int]):
        if epoch < 0:
            raise SimulationError(f"negative view epoch {epoch}")
        object.__setattr__(self, "epoch", int(epoch))
        object.__setattr__(self, "members",
                           tuple(sorted(set(int(m) for m in members))))
        if not self.members:
            raise SimulationError("a view needs at least one member")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("View is immutable")

    @classmethod
    def initial(cls, members: Iterable[int]) -> "View":
        """The epoch-0 view of a freshly built cluster."""
        return cls(0, members)

    @property
    def quorum_size(self) -> int:
        """Majority of the member set (what consensus needs to decide)."""
        return len(self.members) // 2 + 1

    @property
    def ballot_stride(self) -> int:
        """Spacing of leader-disjoint ballot numbers under this view.

        Large enough that ``counter * stride + node_id`` is unique per
        node for every member id; on the contiguous ids of a static
        cluster this equals ``n``, reproducing the pre-membership ballot
        values exactly.
        """
        return max(len(self.members), max(self.members) + 1)

    def contains(self, node_id: int) -> bool:
        return node_id in self.members

    def apply(self, op: str, target: int) -> "View":
        """The view after one reconfiguration command.

        Idempotent on no-ops: joining a present member or removing an
        absent one returns ``self`` unchanged (same epoch) — re-applied
        commands during recovery replay therefore converge.
        """
        members = set(self.members)
        if op == "join":
            if target in members:
                return self
            members.add(target)
        elif op in ("leave", "evict"):
            if target not in members:
                return self
            if len(members) == 1:
                return self  # never install an empty view
            members.discard(target)
        else:
            raise SimulationError(f"unknown reconfiguration op {op!r}")
        return View(self.epoch + 1, members)

    # -- portable representation (storage records, wire messages) -----------

    def to_plain(self) -> Tuple[object, ...]:
        return self.epoch, self.members

    @classmethod
    def from_plain(cls, plain: Iterable[object]) -> "View":
        epoch, members = plain
        return cls(int(epoch), members)  # type: ignore[arg-type]

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, View) and self.epoch == other.epoch
                and self.members == other.members)

    def __hash__(self) -> int:
        return hash((self.epoch, self.members))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"View(epoch={self.epoch}, members={list(self.members)})"
