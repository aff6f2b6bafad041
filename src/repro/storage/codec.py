"""The one binary value codec: the bytes of the wire and of the disk.

Every value a protocol sends (:mod:`repro.runtime.wire`) or logs
(:class:`~repro.storage.file.FileStorage`) is encoded here.  A value is a
one-byte tag followed by its body::

    N  T  F                   None, True, False
    i <varint>                int: zigzag-mapped, unsigned LEB128
    f <8 bytes>               float: IEEE-754 double, so nan, ±inf and
                              -0.0 round-trip exactly
    s <len> <utf-8>           str
    y <len> <raw>             bytes
    t|l <count> <items>       tuple | list
    S|Z <count> <items>       set | frozenset, members sorted by encoding
    d <count> <key value>...  dict, entries sorted by key encoding
    R <len> <tag> <value>     a registered class (:func:`register`): its
                              tag and the encoding of ``to_plain(value)``
    M <type-id> <len> <body>  a nested frame (:func:`register_frames`)

The encoding does not depend on how a value was built: set members and
dict entries are written in the order of their encodings, so a set or
dict encodes the same whatever its insertion order, and a decoded value
re-encodes byte-identically.  Decoding is bounds- and depth-checked and
total: malformed bytes raise :class:`CodecError` and nothing else.

**Registered classes.**  Payload classes opt in by calling
:func:`register` with a ``to_plain`` / ``from_plain`` pair; the codec
stays ignorant of protocol types.  A registered class whose instances
have an ``_encoded`` attribute (:class:`~repro.core.messages.AppMessage`)
keeps its encoding there, so a value is encoded once however often it
is sent and logged: ``None`` until its first encode (or the decode that
cut it from its input), the bytes afterwards, and ``False`` once the
owner released it for good — from then on it is encoded each time, and
never cached again.

**Nested frames.**  The wire layer registers its message base class
with :func:`register_frames`, so a message can be a value (a stubborn
envelope carries the message itself).  Storage never imports the wire:
without that registration an ``M`` value is undecodable, like an
unknown tag.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import StorageError

__all__ = ["encode", "decode", "pack", "unpack", "splice_tuple", "Reader",
           "register", "register_frames", "CodecError"]


class CodecError(StorageError):
    """A value could not be encoded, or bytes could not be decoded."""


_MAX_DEPTH = 64
_DOUBLE = struct.Struct("!d")

Packer = Callable[[Any, bytearray, int], None]

# Exact type -> packer.  Builtins are fixed; registered classes are added
# by register(); subclasses of either are resolved once by _resolve and
# cached here.
_PACKERS: Dict[type, Packer] = {}
# UTF-8 tag -> (from_plain, caches) of registered classes.
_LOADERS: Dict[bytes, Tuple[Callable[[Any], Any], bool]] = {}
# Registered classes that keep their encoding in ``_encoded``.
_CACHING: Set[type] = set()
# The nested-frame registration: (base class, body_of, load), or None.
_frames: Optional[Tuple[type, Callable[[Any], Tuple[int, bytes]],
                        Callable[..., Any]]] = None


# -- encoding -----------------------------------------------------------------

def _put_varint(value: int, out: bytearray) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def pack(value: Any, out: bytearray, depth: int = 0) -> None:
    """Append the encoding of ``value`` to ``out``."""
    packer = _PACKERS.get(type(value))
    if packer is None:
        packer = _resolve(type(value))
    packer(value, out, depth)


def _pack_none(value: Any, out: bytearray, depth: int) -> None:
    out.append(0x4E)  # N


def _pack_bool(value: bool, out: bytearray, depth: int) -> None:
    out.append(0x54 if value else 0x46)  # T / F


_SMALL_INTS = [bytes((0x69, zig)) for zig in range(0x80)]


def _pack_int(value: int, out: bytearray, depth: int) -> None:
    zig = value << 1 if value >= 0 else (-value << 1) - 1
    if zig < 0x80:
        out += _SMALL_INTS[zig]
    else:
        out.append(0x69)  # i
        _put_varint(zig, out)


def _pack_float(value: float, out: bytearray, depth: int) -> None:
    out.append(0x66)  # f
    out += _DOUBLE.pack(value)


def _pack_str(value: str, out: bytearray, depth: int) -> None:
    raw = value.encode("utf-8")
    out.append(0x73)  # s
    _put_varint(len(raw), out)
    out += raw


def _pack_bytes(value: bytes, out: bytearray, depth: int) -> None:
    out.append(0x79)  # y
    _put_varint(len(value), out)
    out += value


def _sequence_packer(tag: int) -> Packer:
    def pack_sequence(value: Any, out: bytearray, depth: int) -> None:
        if depth >= _MAX_DEPTH:
            raise CodecError("value nesting too deep to encode")
        out.append(tag)
        _put_varint(len(value), out)
        depth += 1
        for item in value:
            packer = _PACKERS.get(type(item))
            if packer is None:
                packer = _resolve(type(item))
            packer(item, out, depth)
    return pack_sequence


def _encode_each(items: Any, depth: int) -> List[bytes]:
    """Each item's encoding, as its own bytes (for sorting)."""
    encoded = []
    for item in items:
        if type(item) in _CACHING:
            cached = item._encoded
            if cached:
                encoded.append(cached)
                continue
        buf = bytearray()
        pack(item, buf, depth)
        encoded.append(bytes(buf))
    return encoded


def _set_packer(tag: int) -> Packer:
    def pack_set(value: Any, out: bytearray, depth: int) -> None:
        if depth >= _MAX_DEPTH:
            raise CodecError("value nesting too deep to encode")
        encoded = _encode_each(value, depth + 1)
        encoded.sort()
        out.append(tag)
        _put_varint(len(encoded), out)
        out += b"".join(encoded)
    return pack_set


def _pack_dict(value: Dict[Any, Any], out: bytearray, depth: int) -> None:
    if depth >= _MAX_DEPTH:
        raise CodecError("value nesting too deep to encode")
    depth += 1
    entries = sorted(zip(_encode_each(value, depth), value.values()),
                     key=lambda entry: entry[0])
    out.append(0x64)  # d
    _put_varint(len(entries), out)
    for key, item in entries:
        out += key
        pack(item, out, depth)


def _pack_frame(value: Any, out: bytearray, depth: int) -> None:
    assert _frames is not None
    type_id, body = _frames[1](value)
    out.append(0x4D)  # M
    _put_varint(type_id, out)
    _put_varint(len(body), out)
    out += body


_PACKERS.update({
    type(None): _pack_none, bool: _pack_bool, int: _pack_int,
    float: _pack_float, str: _pack_str, bytes: _pack_bytes,
    tuple: _sequence_packer(0x74), list: _sequence_packer(0x6C),
    set: _set_packer(0x53), frozenset: _set_packer(0x5A), dict: _pack_dict,
})
_BUILTINS = tuple(_PACKERS.items())


def _resolve(cls: type) -> Packer:
    """The packer of a type with no exact entry: a builtin's subclass
    (``MessageId`` is a tuple) or a frame class.  Cached once found."""
    for base, packer in _BUILTINS:
        if issubclass(cls, base):
            break
    else:
        if _frames is not None and issubclass(cls, _frames[0]):
            packer = _pack_frame
        else:
            raise CodecError(
                f"cannot encode {cls.__name__}; register() a codec")
    _PACKERS[cls] = packer
    return packer


def encode(value: Any) -> bytes:
    """The encoding of ``value``."""
    out = bytearray()
    pack(value, out)
    return bytes(out)


def splice_tuple(parts: Tuple[bytes, ...]) -> bytes:
    """The encoding of a tuple whose items' encodings are ``parts``."""
    out = bytearray(b"t")
    _put_varint(len(parts), out)
    return bytes(out) + b"".join(parts)


# -- registration -------------------------------------------------------------

def register(cls: type, tag: str,
             to_plain: Callable[[Any], Any],
             from_plain: Callable[[Any], Any]) -> None:
    """Teach the codec to round-trip instances of ``cls`` under ``tag``."""
    raw = tag.encode("utf-8")
    if raw in _LOADERS:
        raise CodecError(f"codec tag {tag!r} already registered")
    head = bytearray(b"R")
    _put_varint(len(raw), head)
    head += raw
    caches = hasattr(cls, "_encoded")

    def pack_registered(value: Any, out: bytearray, depth: int) -> None:
        if depth >= _MAX_DEPTH:
            raise CodecError("value nesting too deep to encode")
        cached = value._encoded if caches else None
        if cached:
            out += cached
            return
        buf = bytearray(head)
        pack(to_plain(value), buf, depth + 1)
        if cached is None and caches:
            value._encoded = bytes(buf)
        out += buf

    _PACKERS[cls] = pack_registered
    _LOADERS[raw] = (from_plain, caches)
    if caches:
        _CACHING.add(cls)


def register_frames(base: type, body_of: Callable[[Any], Tuple[int, bytes]],
                    load: Callable[[int, bytes, int, int, int], Any]) -> None:
    """Let instances of ``base`` (and its subclasses) be values.

    ``body_of(value)`` gives ``(type_id, body)``; ``load(type_id, data,
    start, end, depth)`` rebuilds the value from ``data[start:end]``.
    """
    global _frames
    _frames = (base, body_of, load)


# -- decoding -----------------------------------------------------------------

class Reader:
    """Bounds-checked cursor over ``data[pos:end]``."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, pos: int = 0,
                 end: Optional[int] = None):
        self.data = data
        self.pos = pos
        self.end = len(data) if end is None else end


def _varint(reader: Reader) -> int:
    data, pos, end = reader.data, reader.pos, reader.end
    result = shift = 0
    while pos < end:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            reader.pos = pos
            return result
        shift += 7
        if shift > 640:  # ints beyond ~2^640 are nonsense, not data
            raise CodecError("varint too long")
    raise CodecError("truncated varint")


def _take(reader: Reader, count: int) -> bytes:
    start = reader.pos
    stop = start + count
    if stop > reader.end:
        raise CodecError("truncated value")
    reader.pos = stop
    return reader.data[start:stop]


def _count(reader: Reader) -> int:
    count = _varint(reader)
    if count > reader.end - reader.pos:  # every item takes a byte at least
        raise CodecError(f"count {count} exceeds the remaining bytes")
    return count


def _items(reader: Reader, depth: int) -> List[Any]:
    if depth >= _MAX_DEPTH:
        raise CodecError("value nesting too deep to decode")
    return [unpack(reader, depth + 1) for _ in range(_count(reader))]


def _unpack_int(reader: Reader, depth: int) -> int:
    zig = _varint(reader)
    return -(zig >> 1) - 1 if zig & 1 else zig >> 1


def _unpack_dict(reader: Reader, depth: int) -> Dict[Any, Any]:
    if depth >= _MAX_DEPTH:
        raise CodecError("value nesting too deep to decode")
    depth += 1
    result: Dict[Any, Any] = {}
    for _ in range(_count(reader)):
        key = unpack(reader, depth)
        result[key] = unpack(reader, depth)
    return result


def _unpack_registered(reader: Reader, depth: int) -> Any:
    if depth >= _MAX_DEPTH:
        raise CodecError("value nesting too deep to decode")
    start = reader.pos - 1
    tag = _take(reader, _varint(reader))
    try:
        from_plain, caches = _LOADERS[tag]
    except KeyError:
        raise CodecError(f"unknown codec tag {tag!r}") from None
    value = from_plain(unpack(reader, depth + 1))
    if caches:
        value._encoded = reader.data[start:reader.pos]
    return value


def _unpack_frame(reader: Reader, depth: int) -> Any:
    if _frames is None:
        raise CodecError("nested frame, but no frame codec is registered")
    if depth >= _MAX_DEPTH:
        raise CodecError("value nesting too deep to decode")
    type_id = _varint(reader)
    length = _varint(reader)
    start = reader.pos
    _take(reader, length)
    return _frames[2](type_id, reader.data, start, reader.pos, depth + 1)


def _unpack_str(reader: Reader, depth: int) -> str:
    return _take(reader, _varint(reader)).decode("utf-8")


def _unpack_float(reader: Reader, depth: int) -> float:
    return _DOUBLE.unpack(_take(reader, 8))[0]


_UNPACKERS: Dict[int, Callable[[Reader, int], Any]] = {
    0x4E: lambda reader, depth: None,
    0x54: lambda reader, depth: True,
    0x46: lambda reader, depth: False,
    0x69: _unpack_int,
    0x66: _unpack_float,
    0x73: _unpack_str,
    0x79: lambda reader, depth: _take(reader, _varint(reader)),
    0x74: lambda reader, depth: tuple(_items(reader, depth)),
    0x6C: _items,
    0x53: lambda reader, depth: set(_items(reader, depth)),
    0x5A: lambda reader, depth: frozenset(_items(reader, depth)),
    0x64: _unpack_dict,
    0x52: _unpack_registered,
    0x4D: _unpack_frame,
}


def unpack(reader: Reader, depth: int = 0) -> Any:
    """Decode the value at the reader's position and advance past it."""
    data, pos = reader.data, reader.pos
    if pos + 1 < reader.end and data[pos] == 0x69 and data[pos + 1] < 0x80:
        # The commonest value by far: an int in -64..63 (id fields).
        reader.pos = pos + 2
        zig = data[pos + 1]
        return -(zig >> 1) - 1 if zig & 1 else zig >> 1
    if pos >= reader.end:
        raise CodecError("truncated value")
    reader.pos = pos + 1
    unpacker = _UNPACKERS.get(data[pos])
    if unpacker is None:
        raise CodecError(f"unknown value tag {reader.data[pos:pos + 1]!r}")
    return unpacker(reader, depth)


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`; all of ``data`` must be one value."""
    reader = Reader(bytes(data))
    try:
        value = unpack(reader)
    except CodecError:
        raise
    except Exception as exc:  # a loader or container refused the value
        raise CodecError(f"malformed value: {exc}") from exc
    if reader.pos != reader.end:
        raise CodecError(f"{reader.end - reader.pos} stray bytes after value")
    return value
