"""UDP wire format for :class:`~repro.transport.message.WireMessage`.

A datagram is one or more length-prefixed binary *frames*, concatenated.
Each frame is a ``struct``-packed header followed by the message's
*body*::

    !HBIHI  =  magic 0xAB0B | version 6 | sender | type-id | body-len

The type-id is the class's own ``type_id``: every message class that
crosses the wire declares one, and defining the class enters it into the
one table from id to class
(:data:`~repro.transport.message.BY_TYPE_ID`), so decoding a frame is
one lookup in it.  The body is the message's declared fields, in
declaration order, each in the binary value codec of
:mod:`repro.storage.codec` — the codec the stable-storage journal
writes to disk, so a value a node both sends and logs is encoded once (an
:class:`~repro.core.messages.AppMessage` keeps its bytes).  A message
whose class has no id, or a sender outside the header's unsigned 32-bit
field, raises :class:`WireCodecError` at encode: there is one frame
format, and nothing falls back to another.

A message's ``(type-id, body)`` is computed on its first encode and
kept on the object (``_wire``), so the legs of a multisend share one
encoding — messages are immutable (a mutable field fails when the
message is first sized), as their size cache already assumes.

**The scoped envelope** (type-id 28) carries a
:class:`~repro.transport.scoped.ScopedMessage`, whose tag is made per
instance: its body is the scope, then the inner frame with sender 0.

Because frames are length-prefixed they concatenate: the transport packs
many protocol messages into one datagram (see
:class:`~repro.runtime.live_net.LiveNetwork`) and :func:`decode_datagram`
walks the frames back out.  A decoded instance is rebuilt structurally
(``cls.__new__`` + the class's declared ``fields``), so no constructor
signature discipline is imposed on protocol messages.

The format intentionally carries no authentication: the live runtime is
a loopback test harness for the paper's protocols, not a production
transport.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type

from repro.storage import codec
from repro.transport.message import (BY_TYPE_ID, HEADER, WireCodecError,
                                     WireMessage)
from repro.transport.scoped import ScopedMessage

__all__ = ["encode", "encode_frame", "decode", "decode_datagram", "rebuild",
           "WireCodecError", "MAGIC", "HEADER"]


MAGIC = 0xAB0B
_VERSION = 6  # the header's version byte; any other value is rejected
_SCOPED_ID = 28  # body is a ScopedMessage's scope, then its inner frame


# -- encoding -----------------------------------------------------------------

def _body(message: WireMessage) -> Tuple[int, bytes]:
    """``(type-id, body)`` of a message, encoded once and kept on it."""
    body = message._wire
    if body is None:
        scoped = type(message) is ScopedMessage
        type_id = _SCOPED_ID if scoped else message.type_id
        if type_id is None:
            raise WireCodecError(
                f"{type(message).__name__} ({message.type!r}) has no "
                f"type_id, so it cannot cross the wire")
        out = bytearray()
        try:
            if type(message) is ScopedMessage:
                codec.pack(message.scope, out)
                out += encode_frame(0, message.inner)
            else:
                for name in message.fields:
                    codec.pack(getattr(message, name), out)
        except WireCodecError:
            raise
        except Exception as exc:
            raise WireCodecError(
                f"cannot encode {message.type!r}: {exc}") from exc
        body = message._wire = (type_id, bytes(out))
    return body


def encode_frame(sender: int, message: WireMessage) -> bytes:
    """Serialise one message as a frame (concatenable into datagrams)."""
    type_id, body = _body(message)
    if not 0 <= sender < 0x100000000:
        raise WireCodecError(
            f"sender {sender} does not fit the header's 32 bits")
    return HEADER.pack(MAGIC, _VERSION, sender, type_id, len(body)) + body


def encode(sender: int, message: WireMessage) -> bytes:
    """Serialise one message to a whole datagram (a single frame)."""
    return encode_frame(sender, message)


def rebuild(cls: Type[WireMessage],
            field_values: Dict[str, object]) -> WireMessage:
    """Reconstruct a message of ``cls`` structurally from field values.

    ``field_values`` holds already-decoded Python objects (not codec
    bytes); the instance is built the way :func:`decode` builds one, so
    no constructor discipline is imposed on message classes.  The fuzzer
    builds its messages with it.
    """
    message = cls.__new__(cls)
    for name in cls.fields:
        try:
            setattr(message, name, field_values[name])
        except KeyError as exc:
            raise WireCodecError(
                f"message {cls.type!r} missing field {name!r}") from exc
    return message


# -- decoding -----------------------------------------------------------------

def _load_body(type_id: int, data: bytes, start: int,
               end: int) -> WireMessage:
    """The message whose typed body is ``data[start:end]``."""
    if type_id == _SCOPED_ID:
        return _load_scoped(data, start, end)
    cls = BY_TYPE_ID.get(type_id)
    if cls is None:
        raise WireCodecError(f"unknown type id {type_id}")
    reader = codec.Reader(data, start, end)
    message = cls.__new__(cls)
    for name in cls.fields:
        setattr(message, name, codec.unpack(reader))
    if reader.pos != end:
        raise WireCodecError(
            f"{end - reader.pos} stray bytes after {cls.type!r} payload")
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
