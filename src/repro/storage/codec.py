"""Tagged-JSON codec for durable values.

The file-backed stable storage must serialise the values protocols log:
primitives, tuples, sets/frozensets, dicts with non-string keys, and
protocol payload objects.  Plain JSON cannot round-trip those, so this
codec wraps non-JSON-native values in ``{"__t": tag, "v": ...}`` envelopes.

Non-finite floats get the same treatment: bare ``json.dumps`` would emit
the non-standard ``NaN``/``Infinity`` tokens, which round-trip only by
CPython accident and break any standards-compliant reader, so ``nan``
and ``±inf`` are encoded as explicit ``{"__t": "float", "v": ...}``
envelopes (and the emitter runs with ``allow_nan=False`` so a bare
non-finite can never leak through).  ``-0.0`` needs no envelope: JSON
preserves the sign of a negative zero literal.

Payload classes opt in by calling :func:`register` with a ``to_plain`` /
``from_plain`` pair; the codec stays ignorant of protocol types.  The
binary wire codec (:mod:`repro.runtime.wire`) reuses the same
registrations through :func:`registration_for`/:func:`loader_for`, so a
class registered once round-trips through storage *and* the wire.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import StorageError

__all__ = ["encode", "decode", "register", "registration_for", "loader_for",
           "CodecError"]


class CodecError(StorageError):
    """A value could not be serialised or deserialised."""


_TO_PLAIN: Dict[type, Tuple[str, Callable[[Any], Any]]] = {}
_FROM_PLAIN: Dict[str, Callable[[Any], Any]] = {}

# Wire text for the tagged non-finite floats ("-0.0" stays native JSON).
_NONFINITE = {math.inf: "inf", -math.inf: "-inf"}
_NONFINITE_BACK = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def register(cls: type, tag: str,
             to_plain: Callable[[Any], Any],
             from_plain: Callable[[Any], Any]) -> None:
    """Teach the codec to round-trip instances of ``cls`` under ``tag``."""
    if tag in _FROM_PLAIN:
        raise StorageError(f"codec tag {tag!r} already registered")
    _TO_PLAIN[cls] = (tag, to_plain)
    _FROM_PLAIN[tag] = from_plain


def registration_for(cls: type) -> Optional[Tuple[str, Callable[[Any], Any]]]:
    """The ``(tag, to_plain)`` registration for ``cls``, if any."""
    return _TO_PLAIN.get(cls)


def loader_for(tag: str) -> Optional[Callable[[Any], Any]]:
    """The ``from_plain`` loader registered under ``tag``, if any."""
    return _FROM_PLAIN.get(tag)


def _to_jsonable(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        text = "nan" if math.isnan(value) else _NONFINITE[value]
        return {"__t": "float", "v": text}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [_to_jsonable(item) for item in value]
    if isinstance(value, tuple):
        return {"__t": "tuple", "v": [_to_jsonable(item) for item in value]}
    if isinstance(value, set):
        return {"__t": "set", "v": [_to_jsonable(item) for item in value]}
    if isinstance(value, frozenset):
        return {"__t": "frozenset",
                "v": [_to_jsonable(item) for item in value]}
    if isinstance(value, dict):
        if all(isinstance(key, str) and key != "__t" for key in value):
            return {key: _to_jsonable(item) for key, item in value.items()}
        return {"__t": "dict",
                "v": [[_to_jsonable(key), _to_jsonable(item)]
                      for key, item in value.items()]}
    registered = _TO_PLAIN.get(type(value))
    if registered is not None:
        tag, to_plain = registered
        return {"__t": tag, "v": _to_jsonable(to_plain(value))}
    raise CodecError(
        f"cannot serialise {type(value).__name__}; register() a codec")


def _from_jsonable(value: Any) -> Any:
    if isinstance(value, list):
        return [_from_jsonable(item) for item in value]
    if isinstance(value, dict):
        tag = value.get("__t")
        if tag is None:
            return {key: _from_jsonable(item) for key, item in value.items()}
        payload = value["v"]
        if tag == "float":
            try:
                return _NONFINITE_BACK[payload]
            except (KeyError, TypeError):
                raise CodecError(
                    f"bad non-finite float token {payload!r}") from None
        if tag == "tuple":
            return tuple(_from_jsonable(item) for item in payload)
        if tag == "set":
            return {_from_jsonable(item) for item in payload}
        if tag == "frozenset":
            return frozenset(_from_jsonable(item) for item in payload)
        if tag == "dict":
            return {_from_jsonable(key): _from_jsonable(item)
                    for key, item in payload}
        loader = _FROM_PLAIN.get(tag)
        if loader is None:
            raise CodecError(f"unknown codec tag {tag!r}")
        return loader(_from_jsonable(payload))
    return value


def encode(value: Any) -> str:
    """Serialise ``value`` to a JSON string (deterministic key order)."""
    try:
        return json.dumps(_to_jsonable(value), sort_keys=True,
                          allow_nan=False)
    except ValueError as exc:
        if isinstance(exc, CodecError):
            raise
        raise CodecError(f"cannot serialise value: {exc}") from exc


def decode(text: str) -> Any:
    """Inverse of :func:`encode`."""
    return _from_jsonable(json.loads(text))
