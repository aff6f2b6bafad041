"""UDP wire format for :class:`~repro.transport.message.WireMessage`.

A datagram is one or more length-prefixed binary *frames*, concatenated.
Each frame is a ``struct``-packed header followed by the message's
*body*::

    !HBIHI  =  magic 0xAB0B | version 5 | sender | type-id | body-len

The type-id is a small integer from a registered table
(:data:`TYPE_ID_TABLE`, extensible via :func:`register_type_id`); the
body is the message's declared fields, in declaration order, each in
the binary value codec of :mod:`repro.storage.codec` — the codec
:class:`~repro.storage.file.FileStorage` writes to disk, so a value a
node both sends and logs is encoded once (an
:class:`~repro.core.messages.AppMessage` keeps its bytes).

A message's ``(type-id, body)`` is computed on its first encode and
kept on the object (``_wire``), so the legs of a multisend share one
encoding — messages are immutable (a mutable field fails when the
message is first sized), as their size cache already assumes.

**The scoped envelope** (type-id 28) carries a
:class:`~repro.transport.scoped.ScopedMessage`, whose tag is made per
instance: its body is the scope, then the inner frame with sender 0.

**The JSON tunnel** (type-id 0) is the single path for a message the
header cannot describe — a class *without* a registered type-id, or a
sender id outside the header's unsigned 32-bit field.  Its body is one
UTF-8 JSON object::

    {"s": <sender id>, "t": <message type tag>, "f": {<field>: <hex>}}

where each field value is the hex of its binary codec encoding, so
tuples, sets, frozensets and registered classes round-trip exactly.  A
tunnel frame is a frame like any other: it concatenates with typed
frames, and a bare JSON object that is *not* inside a frame is rejected
like any other datagram with an unknown lead byte.

Because frames are length-prefixed they concatenate: the transport packs
many protocol messages into one datagram (see
:class:`~repro.runtime.live_net.LiveNetwork`) and :func:`decode_datagram`
walks the frames back out.  There is one format and no negotiation.

Decoding dispatches on the ``type`` tag through a registry built by
walking ``WireMessage.__subclasses__()``: every message class that has
been *imported* is decodable, and the instance is rebuilt structurally
(``cls.__new__`` + the class's declared ``fields``) so no constructor
signature discipline is imposed on protocol messages.  The registry is
rebuilt only when a new :class:`WireMessage` subclass has actually been
defined since the last build (a generation counter bumped by
``__init_subclass__``), so a flood of datagrams carrying unknown tags
costs one dictionary miss each, not a class-tree walk each.

The format intentionally carries no authentication: the live runtime is
a loopback test harness for the paper's protocols, not a production
transport.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.storage import codec
from repro.transport.message import HEADER, MAX_DATAGRAM_BYTES, WireMessage
from repro.transport.scoped import ScopedMessage

__all__ = ["encode", "encode_frame", "decode", "decode_datagram", "rebuild",
           "register_type_id", "type_id_for", "WireCodecError", "WireConfig",
           "TYPE_ID_TABLE", "MAGIC", "HEADER"]


class WireCodecError(codec.CodecError):
    """A datagram could not be encoded or decoded."""


class WireConfig:
    """Transport-facing wire/framing knobs (consumed by the live medium).

    Parameters
    ----------
    max_frame_bytes:
        Coalescing target: buffered frames flush once a datagram would
        exceed this size.  Must not exceed ``max_datagram_bytes``.
    flush_delay:
        Seconds buffered frames may wait for companions before flushing.
        ``0`` flushes on the next event-loop turn, which still coalesces
        every message sent from a single callback (a ``multisend``) at
        zero added latency.
    max_datagram_bytes:
        Hard bound on one encoded datagram; 65507 is the UDP/IPv4
        payload limit.  A single message whose frame exceeds it raises
        :class:`~repro.runtime.live_net.OversizeDatagramError` instead
        of letting ``sendto`` fail with a raw ``OSError``.
    """

    def __init__(self, max_frame_bytes: int = 8192,
                 flush_delay: float = 0.0,
                 max_datagram_bytes: int = MAX_DATAGRAM_BYTES):
        if max_datagram_bytes < 1:
            raise WireCodecError(
                f"bad max_datagram_bytes {max_datagram_bytes}")
        if not 0 < max_frame_bytes <= max_datagram_bytes:
            raise WireCodecError(
                f"max_frame_bytes {max_frame_bytes} must be in "
                f"(0, max_datagram_bytes={max_datagram_bytes}]")
        if flush_delay < 0:
            raise WireCodecError(f"negative flush_delay {flush_delay}")
        self.max_frame_bytes = max_frame_bytes
        self.flush_delay = flush_delay
        self.max_datagram_bytes = max_datagram_bytes


# -- framing ------------------------------------------------------------------

MAGIC = 0xAB0B
_VERSION = 5  # the header's version byte; any other value is rejected
_JSON_TUNNEL_ID = 0  # body is one {"s", "t", "f"} JSON object
_SCOPED_ID = 28  # body is a ScopedMessage's scope, then its inner frame

# The registered type-id table.  Ids are frozen: changing an assignment
# invalidates every recorded byte stream, so new message types get new
# ids (via register_type_id) instead of edits.
TYPE_ID_TABLE: Dict[str, int] = {
    "ab.gossip": 1,
    "ab.state": 2,
    "fd.alive": 3,
    "paxos.prepare": 7,
    "paxos.promise": 8,
    "paxos.accept": 9,
    "paxos.accepted": 10,
    "paxos.decide": 11,
    "paxos.nack": 12,
    "paxos.query": 13,
    "ct.estimate": 14,
    "ct.propose": 15,
    "ct.ack": 16,
    "ct.nack": 17,
    "ct.decide": 18,
    "seq.forward": 19,
    "seq.order": 20,
    "seq.resend": 21,
    "seq.status": 22,
    "qr.query": 23,
    "qr.query-ack": 24,
    "qr.store": 25,
    "qr.store-ack": 26,
    "mg.announce": 27,
}
_TAG_FOR_ID: Dict[int, str] = {v: k for k, v in TYPE_ID_TABLE.items()}
# Ids never assigned to a tag, so a recorded stream cannot decode as
# some other message: 4, 5 and 6 were the retransmission layer's data,
# ack and batch envelopes.
_RESERVED_IDS = frozenset({4, 5, 6, _SCOPED_ID})


def register_type_id(tag: str, type_id: int) -> None:
    """Assign a stable type-id to a message type tag.

    Ids must be unique, positive and fit the header's 16-bit field; id 0
    is reserved for the JSON tunnel.  Re-registering the same pair is a
    no-op so modules may register at import time.
    """
    if not 0 < type_id < 0x10000:
        raise WireCodecError(f"type id {type_id} out of range [1, 65535]")
    if TYPE_ID_TABLE.get(tag) == type_id:
        return
    if tag in TYPE_ID_TABLE:
        raise WireCodecError(
            f"tag {tag!r} already has type id {TYPE_ID_TABLE[tag]}")
    if type_id in _TAG_FOR_ID or type_id in _RESERVED_IDS:
        raise WireCodecError(
            f"type id {type_id} already assigned to "
            f"{_TAG_FOR_ID.get(type_id, 'a reserved id')!r}")
    TYPE_ID_TABLE[tag] = type_id
    _TAG_FOR_ID[type_id] = tag


def type_id_for(tag: str) -> Optional[int]:
    """The registered type-id for a tag, or None (JSON tunnel)."""
    return TYPE_ID_TABLE.get(tag)


# -- encoding -----------------------------------------------------------------

def _encode_tunnel(message: WireMessage, sender: Optional[int]) -> bytes:
    frame: Dict[str, Any] = {} if sender is None else {"s": sender}
    frame["t"] = message.type
    frame["f"] = {name: codec.encode(getattr(message, name)).hex()
                  for name in message.fields}
    return json.dumps(frame, separators=(",", ":")).encode("utf-8")


def _body(message: WireMessage) -> Tuple[int, bytes]:
    """``(type-id, body)`` of a message, encoded once and kept on it."""
    body = message._wire
    if body is None:
        type_id = TYPE_ID_TABLE.get(message.type)
        try:
            if type(message) is ScopedMessage:
                out = bytearray()
                codec.pack(message.scope, out)
                out += encode_frame(0, message.inner)
                body = (_SCOPED_ID, bytes(out))
            elif type_id is None:
                body = (_JSON_TUNNEL_ID, _encode_tunnel(message, None))
            else:
                out = bytearray()
                for name in message.fields:
                    codec.pack(getattr(message, name), out)
                body = (type_id, bytes(out))
        except WireCodecError:
            raise
        except Exception as exc:
            raise WireCodecError(
                f"cannot encode {message.type!r}: {exc}") from exc
        message._wire = body
    return body


def encode_frame(sender: int, message: WireMessage) -> bytes:
    """Serialise one message as a frame (concatenable into datagrams).

    Messages whose type has no registered type-id — and senders outside
    the header's unsigned 32-bit range — are tunnelled as a JSON body
    under type-id 0, so every encodable message coalesces.
    """
    type_id, body = _body(message)
    if type_id == _JSON_TUNNEL_ID or not 0 <= sender < 0x100000000:
        body = _encode_tunnel(message, sender)
        return HEADER.pack(MAGIC, _VERSION, 0, _JSON_TUNNEL_ID,
                           len(body)) + body
    return HEADER.pack(MAGIC, _VERSION, sender, type_id, len(body)) + body


def encode(sender: int, message: WireMessage) -> bytes:
    """Serialise one message to a whole datagram (a single frame)."""
    return encode_frame(sender, message)


# -- type-tag registry --------------------------------------------------------

# Tag -> class; None marks a tag claimed by several imported classes
# (ambiguous): only lookups of that tag fail, the rest keep decoding.
_registry: Dict[str, Optional[Type[WireMessage]]] = {}
# Generation of WireMessage subclass definitions the registry was built
# at; -1 forces the first build.  Rebuilding only on generation change
# makes unknown-tag lookups O(1): a flood of garbage datagrams cannot
# force a class-tree walk per packet.
_built_at_generation = -1


def _walk(cls: Type[WireMessage],
          into: Dict[str, Optional[Type[WireMessage]]]) -> None:
    for sub in cls.__subclasses__():
        if sub.type in into and into[sub.type] is not sub:
            into[sub.type] = None
        else:
            into[sub.type] = sub
        _walk(sub, into)


def _lookup(tag: str) -> Type[WireMessage]:
    global _registry, _built_at_generation
    generation = WireMessage._registry_generation
    if generation != _built_at_generation:
        # (Re)build lazily: message classes register simply by having
        # been imported by the protocol stack under test.  The build is
        # valid until the *next* subclass definition, so a tag missing
        # from it is missing, full stop — no re-walk per miss.
        fresh: Dict[str, Optional[Type[WireMessage]]] = {}
        _walk(WireMessage, fresh)
        _registry = fresh
        _built_at_generation = generation
    try:
        cls = _registry[tag]
    except KeyError:
        raise WireCodecError(f"unknown wire type tag {tag!r}") from None
    if cls is None:
        raise WireCodecError(
            f"ambiguous wire type tag {tag!r}: claimed by more than one "
            f"imported WireMessage class")
    return cls


def rebuild(tag: str, field_values: Dict[str, object]) -> WireMessage:
    """Reconstruct a message structurally from its tag and field values.

    ``field_values`` holds already-decoded Python objects (not codec
    bytes); the instance is rebuilt the same way :func:`decode` builds
    one, so no constructor discipline is imposed on message classes.
    The JSON tunnel decodes through it, and the fuzzer builds its
    messages with it.
    """
    cls = _lookup(tag)
    message = cls.__new__(cls)
    for name in cls.fields:
        try:
            setattr(message, name, field_values[name])
        except KeyError as exc:
            raise WireCodecError(
                f"message {tag!r} missing field {name!r}") from exc
    return message


# -- decoding -----------------------------------------------------------------

def _decode_tunnel(data: bytes) -> Tuple[Optional[int], WireMessage]:
    try:
        frame = json.loads(data.decode("utf-8"))
        message = rebuild(frame["t"],
                          {name: codec.decode(bytes.fromhex(value))
                           for name, value in frame["f"].items()})
        return frame.get("s"), message
    except WireCodecError:
        raise
    except Exception as exc:
        raise WireCodecError(f"malformed tunnel payload: {exc}") from exc


def _load_body(type_id: int, data: bytes, start: int,
               end: int) -> WireMessage:
    """The message whose typed body is ``data[start:end]``."""
    if type_id == _SCOPED_ID:
        return _load_scoped(data, start, end)
    tag = _TAG_FOR_ID.get(type_id)
    if tag is None:
        raise WireCodecError(f"unknown type id {type_id}")
    cls = _lookup(tag)
    reader = codec.Reader(data, start, end)
    message = cls.__new__(cls)
    for name in cls.fields:
        setattr(message, name, codec.unpack(reader))
    if reader.pos != end:
        raise WireCodecError(
            f"{end - reader.pos} stray bytes after {tag!r} payload")
    return message


def _load_scoped(data: bytes, start: int, end: int) -> ScopedMessage:
    reader = codec.Reader(data, start, end)
    scope = codec.unpack(reader)
    if type(scope) is not str:
        raise WireCodecError("scoped envelope without a scope name")
    if reader.pos + HEADER.size <= end and \
            HEADER.unpack_from(data, reader.pos)[3] == _SCOPED_ID:
        raise WireCodecError("scoped envelope inside a scoped envelope")
    stop, _, inner = _decode_frame(data, reader.pos)
    if stop != end:
        raise WireCodecError(f"{end - stop} stray bytes after scoped frame")
    return ScopedMessage(scope, inner)


def _decode_frame(data: bytes, offset: int
                  ) -> Tuple[int, int, WireMessage]:
    """Decode one frame at ``offset``; returns (next offset, sender, msg)."""
    end = offset + HEADER.size
    if end > len(data):
        raise WireCodecError("truncated frame header")
    magic, version, sender, type_id, length = HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        raise WireCodecError(f"bad frame magic {magic:#06x}")
    if version != _VERSION:
        raise WireCodecError(f"unsupported wire version {version}")
    stop = end + length
    if stop > len(data):
        raise WireCodecError(
            f"torn frame: {len(data) - end} payload bytes, "
            f"header promises {length}")
    try:
        if type_id == _JSON_TUNNEL_ID:
            tunnelled, message = _decode_tunnel(data[end:stop])
            if tunnelled is None:
                raise WireCodecError("tunnel frame without a sender")
            sender = tunnelled
        else:
            message = _load_body(type_id, data, end, stop)
    except WireCodecError:
        raise
    except Exception as exc:
        raise WireCodecError(f"malformed frame payload: {exc}") from exc
    return stop, sender, message


def decode_datagram(data: bytes) -> List[Tuple[int, WireMessage]]:
    """Deserialise a datagram into every ``(sender id, message)`` it packs.

    One pair per frame.  Any defect anywhere raises
    :class:`WireCodecError` — a datagram is accepted or rejected whole.
    """
    if not data:
        raise WireCodecError("empty datagram")
    if data[0] != (MAGIC >> 8):
        raise WireCodecError(f"unrecognised datagram lead byte {data[0]:#04x}")
    messages: List[Tuple[int, WireMessage]] = []
    offset = 0
    while offset < len(data):
        offset, sender, message = _decode_frame(data, offset)
        messages.append((sender, message))
    return messages


def decode(data: bytes) -> Tuple[int, WireMessage]:
    """Deserialise a single-message datagram back into ``(sender, message)``.

    Raises :class:`WireCodecError` if the datagram packs more than one
    frame; transports that coalesce use :func:`decode_datagram`.
    """
    messages = decode_datagram(data)
    if len(messages) != 1:
        raise WireCodecError(
            f"expected a single-frame datagram, got {len(messages)} frames")
    return messages[0]

