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
    t <count> <items>         tuple
    Z <count> <items>         frozenset, members sorted by encoding
    R <code> <value>          a registered class (:func:`register`): its
                              one-byte code and the encoding of
                              ``to_plain(value)``

The encoding does not depend on how a value was built: frozenset members
are written in the order of their encodings, so a frozenset encodes the
same whatever its insertion order, and a decoded value re-encodes
byte-identically.  Decoding is bounds- and depth-checked and total:
malformed bytes raise :class:`CodecError` and nothing else, an unknown
tag included.

:func:`size` is ``len(encode(value))`` without the bytes: the one size
charged for every send and every log.  The simulator delivers the
sender's object and ``MemoryStorage`` keeps the logged one, so it is
also the share-nothing check: it refuses a mutable container at any
depth.

**Registered classes.**  Payload classes opt in by calling
:func:`register` with a one-byte code and a ``to_plain`` /
``from_plain`` pair; the codec stays ignorant of protocol types.  A
registered class whose instances have an ``_encoded`` attribute
(:class:`~repro.core.messages.AppMessage`) keeps its encoding there, so
a value is encoded once however often it is sent and logged: ``None``
until its first encode (or the decode that cut it from its input), the
bytes afterwards, and ``False`` once the owner released it for good —
from then on it is encoded each time, and never cached again.  Such a
class also keeps its size in ``_size``, and may name the ``fields``
whose values ``to_plain`` returns as a tuple: a never-encoded instance
is then sized from them, without building that tuple.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import StorageError

__all__ = ["encode", "decode", "size", "pack", "unpack", "splice_tuple",
           "Reader", "register", "CodecError"]


class CodecError(StorageError):
    """A value could not be encoded, or bytes could not be decoded."""


_MAX_DEPTH = 64
_DOUBLE = struct.Struct("!d")

Packer = Callable[[Any, bytearray, int], None]
Sizer = Callable[[Any, int], int]

# Exact type -> packer, and -> sizer.  Builtins are fixed; registered
# classes are added by register(); subclasses of either are resolved
# once by _resolve and cached here.
_PACKERS: Dict[type, Packer] = {}
_SIZERS: Dict[type, Sizer] = {}
# Code -> (from_plain, caches) of registered classes.
_LOADERS: Dict[int, Tuple[Callable[[Any], Any], bool]] = {}
# Registered classes that keep their encoding in ``_encoded``.
_CACHING: Set[type] = set()


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
        packer = _resolve(type(value))[0]
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


def _pack_tuple(value: Tuple[Any, ...], out: bytearray, depth: int) -> None:
    if depth >= _MAX_DEPTH:
        raise CodecError("value nesting too deep to encode")
    out.append(0x74)  # t
    _put_varint(len(value), out)
    depth += 1
    for item in value:
        packer = _PACKERS.get(type(item))
        if packer is None:
            packer = _resolve(type(item))[0]
        packer(item, out, depth)


def _pack_frozenset(value: Any, out: bytearray, depth: int) -> None:
    """Members in the order of their encodings."""
    if depth >= _MAX_DEPTH:
        raise CodecError("value nesting too deep to encode")
    encoded = []
    for item in value:
        cached = item._encoded if type(item) in _CACHING else None
        if not cached:
            buf = bytearray()
            pack(item, buf, depth + 1)
            cached = bytes(buf)
        encoded.append(cached)
    encoded.sort()
    out.append(0x5A)  # Z
    _put_varint(len(encoded), out)
    out += b"".join(encoded)


_PACKERS.update({
    type(None): _pack_none, bool: _pack_bool, int: _pack_int,
    float: _pack_float, str: _pack_str, bytes: _pack_bytes,
    tuple: _pack_tuple, frozenset: _pack_frozenset,
})


# -- sizes --------------------------------------------------------------------

def _varint_size(value: int) -> int:
    return 1 if value < 0x80 else (value.bit_length() + 6) // 7


def size(value: Any, depth: int = 0) -> int:
    """``len(encode(value))``, without building the bytes.  Raises
    :class:`TypeError` for a ``list``, ``set``, ``dict`` or ``bytearray``
    at any depth, and :class:`CodecError` wherever :func:`encode` would."""
    sizer = _SIZERS.get(type(value))
    if sizer is None:
        sizer = _resolve(type(value))[1]
    return sizer(value, depth)


def _size_int(value: int, depth: int) -> int:
    zig = value << 1 if value >= 0 else (-value << 1) - 1
    return 2 if zig < 0x80 else 1 + (zig.bit_length() + 6) // 7


def _size_raw(value: Any, depth: int) -> int:  # str or bytes
    count = len(value.encode("utf-8") if isinstance(value, str) else value)
    return 1 + _varint_size(count) + count


def _size_items(value: Any, depth: int) -> int:
    """A tuple's or frozenset's size: member order does not change a
    frozenset's length, so nothing is sorted."""
    if depth >= _MAX_DEPTH:
        raise CodecError("value nesting too deep to encode")
    total = 1 + _varint_size(len(value))
    depth += 1
    cached_ok = depth < _MAX_DEPTH
    for item in value:
        cls = type(item)
        # Without a call: an int (ids, ballots), and a message whose
        # size is known (see size_registered).
        if cls is int:
            if -64 <= item < 64:
                total += 2
            else:
                zig = item << 1 if item >= 0 else (-item << 1) - 1
                total += 1 + (zig.bit_length() + 6) // 7
            continue
        if cached_ok and cls in _CACHING and item._size is not None:
            total += item._size
            continue
        sizer = _SIZERS.get(cls)
        if sizer is None:
            sizer = _resolve(cls)[1]
        total += sizer(item, depth)
    return total


def _refuse_mutable(value: Any, *where: Any) -> int:
    raise TypeError(
        f"a sent or logged value must be immutable, not a "
        f"{type(value).__name__}: use a tuple or frozenset")


_SIZERS.update({
    type(None): lambda value, depth: 1, bool: lambda value, depth: 1,
    int: _size_int, float: lambda value, depth: 9, str: _size_raw,
    bytes: _size_raw, tuple: _size_items, frozenset: _size_items,
    list: _refuse_mutable, set: _refuse_mutable, dict: _refuse_mutable,
    bytearray: _refuse_mutable,
})
_BUILTINS = tuple((cls, _PACKERS.get(cls, _refuse_mutable), sizer)
                  for cls, sizer in _SIZERS.items())


def _resolve(cls: type) -> Tuple[Packer, Sizer]:
    """The packer and sizer of a type with no exact entry: a builtin's
    subclass (``MessageId`` is a tuple).  Cached once found."""
    for base, packer, sizer in _BUILTINS:
        if issubclass(cls, base):
            break
    else:
        raise CodecError(f"cannot encode {cls.__name__}; register() a codec")
    _PACKERS[cls] = packer
    _SIZERS[cls] = sizer
    return packer, sizer


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

def register(cls: type, code: int,
             to_plain: Callable[[Any], Any],
             from_plain: Callable[[Any], Any],
             fields: Tuple[str, ...] = ()) -> None:
    """Teach the codec to round-trip instances of ``cls`` under the
    one-byte ``code``.

    ``fields``, if given, promises that ``to_plain(value)`` is the tuple
    of those attributes' values, each in a form of the same size (a
    ``MessageId`` sizes as the plain tuple it becomes).
    """
    if not 0 <= code < 0x100:
        raise CodecError(f"codec code {code} does not fit one byte")
    if code in _LOADERS:
        raise CodecError(f"codec code {code} already registered")
    head = bytes((0x52, code))  # R
    caches = hasattr(cls, "_encoded")
    # The head, then the plain tuple's tag and count.
    framing = len(head) + 1 + _varint_size(len(fields))

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

    def size_registered(value: Any, depth: int) -> int:
        if depth >= _MAX_DEPTH:
            raise CodecError("value nesting too deep to encode")
        if not caches:
            return len(head) + size(to_plain(value), depth + 1)
        known = value._size
        if known is None:
            cached = value._encoded
            if cached:
                known = len(cached)
            elif fields and depth + 2 < _MAX_DEPTH:
                known = framing
                for name in fields:
                    item = getattr(value, name)
                    sizer = _SIZERS.get(type(item)) \
                        or _resolve(type(item))[1]
                    known += sizer(item, depth + 2)
            else:
                known = len(head) + size(to_plain(value), depth + 1)
            value._size = known
        return known

    _PACKERS[cls] = pack_registered
    _SIZERS[cls] = size_registered
    _LOADERS[code] = (from_plain, caches)
    if caches:
        _CACHING.add(cls)


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


def _unpack_registered(reader: Reader, depth: int) -> Any:
    if depth >= _MAX_DEPTH:
        raise CodecError("value nesting too deep to decode")
    start = reader.pos - 1
    code = _take(reader, 1)[0]
    try:
        from_plain, caches = _LOADERS[code]
    except KeyError:
        raise CodecError(f"unknown codec code {code}") from None
    value = from_plain(unpack(reader, depth + 1))
    if caches:
        value._encoded = reader.data[start:reader.pos]
    return value


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
    0x5A: lambda reader, depth: frozenset(_items(reader, depth)),
    0x52: _unpack_registered,
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
