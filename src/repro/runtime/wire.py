"""UDP wire format for :class:`~repro.transport.message.WireMessage`.

A datagram is one or more length-prefixed binary *frames*, concatenated.
Each frame is a ``struct``-packed header followed by a compact binary
payload::

    !HBIHI  =  magic 0xAB0B | version 2 | sender | type-id | payload-len

The type-id is a small integer from a registered table
(:data:`TYPE_ID_TABLE`, extensible via :func:`register_type_id`); the
payload is the message's declared fields, in declaration order, each
encoded by a compact binary value codec (ints as zigzag varints, floats
as IEEE doubles — so ``nan``/``inf``/``-0.0`` round-trip exactly,
strings/containers with varint lengths).  Field values of classes
registered with :mod:`repro.storage.codec` (notably
:class:`~repro.core.messages.AppMessage`) reuse that registration (tag +
``to_plain``/``from_plain``) under a binary envelope, so no JSON text
appears on the hot path.

**The JSON tunnel** (type-id 0) is the single path for a message the
header cannot describe — a class *without* a registered type-id, or a
sender id outside the header's unsigned 32-bit field.  Its payload is
one UTF-8 JSON object::

    {"s": <sender id>, "t": <message type tag>, "f": {<field>: <value>}}

with field values in the storage layer's tagged-JSON codec, so tuples,
sets, frozensets and registered classes round-trip exactly.  A tunnel
frame is a frame like any other: it concatenates with typed frames, and
a bare JSON object that is *not* inside a frame is rejected like any
other datagram with an unknown lead byte.

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
import struct
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.errors import ReproError
from repro.storage import codec
from repro.transport.message import WireMessage

__all__ = ["encode", "encode_frame", "decode", "decode_datagram", "rebuild",
           "register_type_id", "type_id_for", "WireCodecError", "WireConfig",
           "TYPE_ID_TABLE", "MAGIC", "HEADER"]


class WireCodecError(ReproError):
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
                 max_datagram_bytes: int = 65507):
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
HEADER = struct.Struct("!HBIHI")  # magic, version, sender, type-id, len
_VERSION = 2  # the header's version byte; any other value is rejected
_JSON_TUNNEL_ID = 0  # payload is one {"s", "t", "f"} JSON object

# The registered type-id table.  Ids are frozen: changing an assignment
# invalidates every recorded byte stream, so new message types get new
# ids (via register_type_id) instead of edits.
TYPE_ID_TABLE: Dict[str, int] = {
    "ab.gossip": 1,
    "ab.state": 2,
    "fd.alive": 3,
    "stub.data": 4,
    "stub.ack": 5,
    "stub.batch": 6,
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
    if type_id in _TAG_FOR_ID:
        raise WireCodecError(
            f"type id {type_id} already assigned to "
            f"{_TAG_FOR_ID[type_id]!r}")
    TYPE_ID_TABLE[tag] = type_id
    _TAG_FOR_ID[type_id] = tag


def type_id_for(tag: str) -> Optional[int]:
    """The registered type-id for a tag, or None (JSON tunnel)."""
    return TYPE_ID_TABLE.get(tag)


# -- binary value codec -------------------------------------------------------

_DOUBLE = struct.Struct("!d")
_MAX_DEPTH = 64


def _pack_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _pack_value(value: Any, out: bytearray, depth: int = 0) -> None:
    if depth > _MAX_DEPTH:
        raise WireCodecError("value nesting too deep to encode")
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        out += b"i"
        out += _pack_varint(value * 2 if value >= 0 else -value * 2 - 1)
    elif isinstance(value, float):
        out += b"f"
        out += _DOUBLE.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"s"
        out += _pack_varint(len(raw))
        out += raw
    elif isinstance(value, bytes):
        out += b"y"
        out += _pack_varint(len(value))
        out += value
    elif isinstance(value, tuple):
        out += b"t"
        out += _pack_varint(len(value))
        for item in value:
            _pack_value(item, out, depth + 1)
    elif isinstance(value, list):
        out += b"l"
        out += _pack_varint(len(value))
        for item in value:
            _pack_value(item, out, depth + 1)
    elif isinstance(value, (set, frozenset)):
        out += b"S" if isinstance(value, set) else b"Z"
        # Deterministic wire bytes: members sorted by their encoding.
        encoded = []
        for item in value:
            buf = bytearray()
            _pack_value(item, buf, depth + 1)
            encoded.append(bytes(buf))
        encoded.sort()
        out += _pack_varint(len(encoded))
        for raw in encoded:
            out += raw
    elif isinstance(value, dict):
        out += b"d"
        out += _pack_varint(len(value))
        for key, item in value.items():
            _pack_value(key, out, depth + 1)
            _pack_value(item, out, depth + 1)
    else:
        registered = codec.registration_for(type(value))
        if registered is None:
            raise WireCodecError(
                f"cannot encode {type(value).__name__}; register() it "
                f"with repro.storage.codec")
        tag, to_plain = registered
        raw = tag.encode("utf-8")
        out += b"R"
        out += _pack_varint(len(raw))
        out += raw
        _pack_value(to_plain(value), out, depth + 1)


class _Reader:
    """Bounds-checked cursor over one frame payload."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, pos: int, end: int):
        self.data = data
        self.pos = pos
        self.end = end

    def take(self, count: int) -> bytes:
        if count < 0 or self.pos + count > self.end:
            raise WireCodecError("truncated value")
        raw = self.data[self.pos:self.pos + count]
        self.pos += count
        return raw

    def varint(self) -> int:
        result = 0
        shift = 0
        while True:
            if self.pos >= self.end:
                raise WireCodecError("truncated varint")
            byte = self.data[self.pos]
            self.pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 640:  # ints beyond ~2^640 are nonsense, not data
                raise WireCodecError("varint too long")


def _unpack_value(reader: _Reader, depth: int = 0) -> Any:
    if depth > _MAX_DEPTH:
        raise WireCodecError("value nesting too deep to decode")
    tag = reader.take(1)
    if tag == b"N":
        return None
    if tag == b"T":
        return True
    if tag == b"F":
        return False
    if tag == b"i":
        zig = reader.varint()
        return zig // 2 if zig % 2 == 0 else -(zig // 2) - 1
    if tag == b"f":
        return _DOUBLE.unpack(reader.take(8))[0]
    if tag == b"s":
        return reader.take(reader.varint()).decode("utf-8")
    if tag == b"y":
        return reader.take(reader.varint())
    if tag in (b"t", b"l"):
        count = reader.varint()
        items = [_unpack_value(reader, depth + 1) for _ in range(count)]
        return tuple(items) if tag == b"t" else items
    if tag in (b"S", b"Z"):
        count = reader.varint()
        items = [_unpack_value(reader, depth + 1) for _ in range(count)]
        return set(items) if tag == b"S" else frozenset(items)
    if tag == b"d":
        count = reader.varint()
        result: Dict[Any, Any] = {}
        for _ in range(count):
            key = _unpack_value(reader, depth + 1)
            result[key] = _unpack_value(reader, depth + 1)
        return result
    if tag == b"R":
        class_tag = reader.take(reader.varint()).decode("utf-8")
        loader = codec.loader_for(class_tag)
        if loader is None:
            raise WireCodecError(f"unknown codec tag {class_tag!r}")
        return loader(_unpack_value(reader, depth + 1))
    raise WireCodecError(f"unknown value tag {tag!r}")


# -- encoding -----------------------------------------------------------------

def _encode_tunnel(sender: int, message: WireMessage) -> bytes:
    frame = {
        "s": sender,
        "t": message.type,
        "f": {name: codec.encode(getattr(message, name))
              for name in message.fields},
    }
    try:
        return json.dumps(frame, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireCodecError(
            f"cannot encode {message.type!r}: {exc}") from exc


def encode_frame(sender: int, message: WireMessage) -> bytes:
    """Serialise one message as a frame (concatenable into datagrams).

    Messages whose type has no registered type-id — and senders outside
    the header's unsigned 32-bit range — are tunnelled as a JSON payload
    under type-id 0, so every encodable message coalesces.
    """
    type_id = TYPE_ID_TABLE.get(message.type)
    if type_id is None or not 0 <= sender < 0x100000000:
        payload = _encode_tunnel(sender, message)
        return HEADER.pack(MAGIC, _VERSION, 0, _JSON_TUNNEL_ID,
                           len(payload)) + payload
    out = bytearray()
    try:
        for name in message.fields:
            _pack_value(getattr(message, name), out)
    except WireCodecError:
        raise
    except Exception as exc:
        raise WireCodecError(
            f"cannot encode {message.type!r}: {exc}") from exc
    return HEADER.pack(MAGIC, _VERSION, sender, type_id,
                       len(out)) + bytes(out)


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
    strings); the instance is rebuilt the same way :func:`decode` builds
    one, so no constructor discipline is imposed on message classes.
    Layers that tunnel one message inside another (the stubborn channel's
    data envelope) use this to unwrap the inner message on arrival.
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

def _decode_tunnel(data: bytes) -> Tuple[int, WireMessage]:
    try:
        frame = json.loads(data.decode("utf-8"))
        sender = frame["s"]
        fields = frame["f"]
        message = rebuild(frame["t"],
                          {name: codec.decode(value)
                           for name, value in fields.items()})
        return sender, message
    except WireCodecError:
        raise
    except Exception as exc:
        raise WireCodecError(f"malformed tunnel payload: {exc}") from exc


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
    if end + length > len(data):
        raise WireCodecError(
            f"torn frame: {len(data) - end} payload bytes, "
            f"header promises {length}")
    if type_id == _JSON_TUNNEL_ID:
        sender, message = _decode_tunnel(data[end:end + length])
        return end + length, sender, message
    tag = _TAG_FOR_ID.get(type_id)
    if tag is None:
        raise WireCodecError(f"unknown type id {type_id}")
    cls = _lookup(tag)
    reader = _Reader(data, end, end + length)
    message = cls.__new__(cls)
    try:
        for name in cls.fields:
            setattr(message, name, _unpack_value(reader))
    except WireCodecError:
        raise
    except Exception as exc:
        raise WireCodecError(f"malformed frame payload: {exc}") from exc
    if reader.pos != reader.end:
        raise WireCodecError(
            f"{reader.end - reader.pos} stray bytes after "
            f"{tag!r} payload")
    return end + length, sender, message


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

