"""Base class for wire messages.

A wire message is anything the transport carries between nodes.  The
transport only requires two things of a message: a ``type`` tag used for
handler dispatch on the receiving node, and an ``estimated_size`` used for
byte accounting.  Concrete protocol messages subclass :class:`WireMessage`
and declare their payload fields.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.sizing import estimate_size

__all__ = ["WireMessage"]


class WireMessage:
    """Immutable wire message with a dispatch tag, checked when first
    sized.

    Subclasses set the class attribute ``type`` and store payload fields
    as instance attributes listed in ``fields`` (used for size accounting
    and ``repr``).  Fields hold immutable values — scalars, tuples,
    frozensets, other messages — and are never rebound after the first
    send: the simulator delivers the sender's object itself.  Every send
    sizes the message once (:meth:`estimated_size`), and the size model
    refuses a list, set, dict or bytearray at any depth, so a message
    that could couple two nodes by reference fails at its first send.
    """

    type = "message"
    fields: Tuple[str, ...] = ()

    # Bumped on every subclass definition; the wire codec's type-tag
    # registry is valid exactly while this stands still, so unknown-tag
    # lookups can fail in O(1) instead of re-walking the class tree.
    _registry_generation = 0

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        WireMessage._registry_generation += 1

    # Messages are immutable, so the size is a constant of the object: a
    # multisend charges it once, not once per destination (at n=25
    # re-walking every gossip on every send was a third of the run).  A class-level default keeps structurally rebuilt instances
    # (``cls.__new__`` in the wire codec) covered.
    _size: Optional[int] = None
    # The same reasoning keeps the wire codec's ``(type-id, body)`` of a
    # message here once it is first encoded (repro.runtime.wire).
    _wire: Optional[Tuple[int, bytes]] = None

    def estimated_size(self) -> int:
        """Estimated serialised size, computed on first use."""
        size = self._size
        if size is None:
            size = self._size = self._measure()
        return size

    def _measure(self) -> int:
        """The size formula: tag plus payload fields."""
        total = 2 + len(self.type)
        for name in self.fields:
            total += estimate_size(getattr(self, name))
        return total

    def payload(self) -> Tuple[Any, ...]:
        """The payload fields as a tuple (handy for tests)."""
        return tuple(getattr(self, name) for name in self.fields)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.fields)
        return f"{type(self).__name__}({parts})"
