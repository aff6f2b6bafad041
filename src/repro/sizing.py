"""Size estimation for logged values and wire messages.

Experiments E4/E7 compare *bytes logged* and the transport accounts
*bytes sent*; both need a deterministic, implementation-independent size
model.  :func:`estimate_size` charges a small per-object overhead plus the
natural payload size of primitives, matching what a compact binary codec
would produce.  It is intentionally simple — the experiments compare
protocols under the same model, so only relative sizes matter.

It is also where the share-nothing model is checked.  The simulator's
network delivers the sender's object and ``MemoryStorage`` keeps the
logged one, so a mutable container in a sent or logged value would
couple two nodes, or a node and its disk, by reference.  Every value
that crosses one of those boundaries is sized exactly once on the way,
so :func:`estimate_size` refuses a ``list``, ``set``, ``dict`` or
``bytearray`` at any depth, at no extra walk.
"""

from __future__ import annotations

from typing import Any

__all__ = ["estimate_size"]

_OVERHEAD = 2  # per-object framing bytes

_MUTABLE = (list, set, dict, bytearray)


def estimate_size(value: Any) -> int:
    """Estimated serialised size, in bytes, of ``value``.

    Supports the immutable types protocols actually log and send:
    ``None``, bools, ints, floats, strings, bytes, tuples, frozensets,
    and any object exposing ``estimated_size()`` (wire messages and
    payloads).  A ``list``, ``set``, ``dict`` or ``bytearray`` anywhere
    inside ``value`` raises :class:`TypeError`.
    """
    sizer = getattr(value, "estimated_size", None)
    if sizer is not None:
        return int(sizer())
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return _OVERHEAD + max(1, (value.bit_length() + 7) // 8)
    if isinstance(value, float):
        return _OVERHEAD + 8
    if isinstance(value, str):
        return _OVERHEAD + len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return _OVERHEAD + len(value)
    if isinstance(value, (tuple, frozenset)):
        return _OVERHEAD + sum(estimate_size(item) for item in value)
    if isinstance(value, _MUTABLE):
        raise TypeError(
            f"a sent or logged value must be immutable, not a "
            f"{type(value).__name__}: use a tuple or frozenset")
    # Fallback for unexpected objects: charge their repr. Deterministic and
    # loud enough to show up in byte metrics if it happens by accident.
    return _OVERHEAD + len(repr(value))
