"""Base class for wire messages.

A wire message is anything the transport carries between nodes.  The
transport only requires two things of a message: a ``type`` tag used for
handler dispatch on the receiving node, and a ``frame_size`` used for
byte accounting: the exact length of its frame (:mod:`repro.runtime.wire`).
Protocol messages subclass :class:`WireMessage` and declare their payload
fields.  A :class:`Packet` is a frame with a second message riding it
(see :attr:`~repro.transport.endpoint.Endpoint.rider`).
"""

from __future__ import annotations

import struct
from typing import Any, Optional, Tuple, Union

from repro.storage import codec

__all__ = ["HEADER", "MAX_DATAGRAM_BYTES", "Packet", "WireMessage",
           "frame_size", "unpack"]

HEADER = struct.Struct("!HBIHI")  # magic, version, sender, type-id, len
MAX_DATAGRAM_BYTES = 65507  # the UDP/IPv4 payload limit


class WireMessage:
    """Immutable wire message with a dispatch tag, checked when first
    sized.

    Subclasses set the class attribute ``type`` and store payload fields
    as instance attributes listed in ``fields`` (the frame's body, and
    ``repr``).  Fields hold immutable values — scalars, tuples,
    frozensets, application messages — and are never rebound after the
    first send: the simulator delivers the sender's object itself.
    Every send sizes the message once (:meth:`frame_size`), and the
    codec's size refuses a list, set, dict or bytearray at any depth, so
    a message that could couple two nodes by reference fails at its
    first send.
    """

    type = "message"
    fields: Tuple[str, ...] = ()
    #: True for a reply whose addressee binds a batch right after it
    #: (Paxos's ``Promise``): what the sender wants in that batch rides
    #: it (see :attr:`~repro.transport.endpoint.Endpoint.rider`).
    precedes_bind = False

    # Bumped on every subclass definition; the wire codec's type-tag
    # registry is valid exactly while this stands still, so unknown-tag
    # lookups can fail in O(1) instead of re-walking the class tree.
    _registry_generation = 0

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        WireMessage._registry_generation += 1

    # Messages are immutable, so the size is a constant of the object: a
    # multisend charges it once, not once per destination (at n=25
    # re-walking every gossip on every send was a third of the run).  A
    # class-level default keeps structurally rebuilt instances
    # (``cls.__new__`` in the wire codec) covered.
    _size: Optional[int] = None
    # The same reasoning keeps the wire codec's ``(type-id, body)`` of a
    # message here once it is first encoded (repro.runtime.wire).
    _wire: Optional[Tuple[int, bytes]] = None

    def frame_size(self) -> int:
        """The length of the message's frame, computed on first use."""
        size = self._size
        if size is None:
            size = self._size = HEADER.size + sum(
                codec.size(getattr(self, name)) for name in self.fields)
        return size

    def payload(self) -> Tuple[Any, ...]:
        """The payload fields as a tuple (handy for tests)."""
        return tuple(getattr(self, name) for name in self.fields)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.fields)
        return f"{type(self).__name__}({parts})"


class Packet:
    """A frame and the message riding it, handed to the medium as one.

    The medium counts one send and one loss, duplicate and delay draw,
    charges both sizes, and hands the receiver the rider first, then the
    carrier, in the same turn.  Its ``type`` is the carrier's, so a
    medium's per-type counters see the frame that was going anyway.
    """

    __slots__ = ("carrier", "rider", "type")

    def __init__(self, carrier: WireMessage, rider: WireMessage):
        self.carrier = carrier
        self.rider = rider
        self.type = carrier.type

    def frame_size(self) -> int:
        return self.carrier.frame_size() + self.rider.frame_size()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Packet({self.carrier!r}, rider={self.rider!r})"


def frame_size(message: Union[WireMessage, Packet]) -> int:
    """The bytes one send puts on the wire."""
    return message.frame_size()


def unpack(message: Any) -> Tuple[WireMessage, ...]:
    """The messages one send hands over, in delivery order: a
    :class:`Packet`'s rider, then its carrier; else the message."""
    if type(message) is Packet:
        return (message.rider, message.carrier)
    return (message,)
