"""Base class for wire messages.

A wire message is anything the transport carries between nodes.  The
transport only requires two things of a message: a ``type`` tag used for
handler dispatch on the receiving node, and a ``frame_size`` used for
byte accounting: the exact length of its frame (:mod:`repro.runtime.wire`).
Protocol messages subclass :class:`WireMessage` and declare their payload
fields and their ``type_id``, the number their frame's header carries;
:data:`BY_TYPE_ID` is the one table from that number back to the class.
A :class:`Packet` is a frame with a second message riding it (see
:attr:`~repro.transport.endpoint.Endpoint.rider`).
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Optional, Tuple, Type, Union

from repro.storage import codec

__all__ = ["BY_TYPE_ID", "HEADER", "MAX_DATAGRAM_BYTES", "Packet",
           "RESERVED_TYPE_IDS", "WireCodecError", "WireMessage",
           "frame_size", "unpack"]

HEADER = struct.Struct("!HBIHI")  # magic, version, sender, type-id, len
MAX_DATAGRAM_BYTES = 65507  # the UDP/IPv4 payload limit

#: Type-id -> the one class whose frames carry it.  Ids are frozen:
#: changing an assignment invalidates every recorded byte stream, so a
#: new message class takes a new id.
BY_TYPE_ID: Dict[int, Type["WireMessage"]] = {}
#: Ids no class may take: 0 is no id, 28 is the scoped envelope's frame
#: (repro.transport.scoped), and 4, 5 and 6 were the retransmission
#: layer's data, ack and batch envelopes, retired so that a recorded
#: stream cannot decode as some other message.
RESERVED_TYPE_IDS = frozenset({0, 4, 5, 6, 28})


class WireCodecError(codec.CodecError):
    """A message could not be encoded, or a datagram decoded."""


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
    #: The header's number for this class; ``None`` for a message that
    #: never crosses a process boundary.  An id names one class: a
    #: subclass does not inherit it.
    type_id: Optional[int] = None
    #: True for a reply whose addressee binds a batch right after it
    #: (Paxos's ``Promise``): what the sender wants in that batch rides
    #: it (see :attr:`~repro.transport.endpoint.Endpoint.rider`).
    precedes_bind = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        type_id = cls.__dict__.get("type_id")
        if type_id is None:
            cls.type_id = None
            return
        if not 0 <= type_id < 0x10000 or type_id in RESERVED_TYPE_IDS:
            raise WireCodecError(
                f"{cls.__name__}: type id {type_id} is reserved or does "
                f"not fit the header's 16 bits")
        taken = BY_TYPE_ID.get(type_id)
        if taken is not None:
            raise WireCodecError(
                f"{cls.__name__}: type id {type_id} is taken by "
                f"{taken.__module__}.{taken.__name__}")
        BY_TYPE_ID[type_id] = cls

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
