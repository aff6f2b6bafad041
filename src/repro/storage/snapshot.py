"""Immutability-aware structural snapshots for in-memory stable storage.

:class:`~repro.storage.memory.MemoryStorage` must isolate stored values
from the caller on both write and read, so protocol code cannot mutate
"durable" state in place.  ``copy.deepcopy`` gives that isolation but
pays the full generic-copy protocol (memo dict, ``__reduce_ex__``) for
every node of every value on *every* storage operation — the single
largest cost in the simulation hot path.

:func:`snapshot` exploits what deepcopy cannot know: most of what the
protocols log is immutable (ints, strings, tuples of primitives,
:class:`~repro.core.ids.MessageId`, :class:`~repro.core.messages.AppMessage`
with its immutable-payload contract).  Immutable values need no copy at
all — they are returned as-is and *flagged* immutable, so the storage
layer can also skip the copy on every subsequent read.  Mutable
containers (lists, sets, dicts) are rebuilt with C-speed constructors
around recursively-snapshotted items.

Protocol value classes join the fast path in one of two ways:

* :func:`register_immutable` — the class is a frozen value object
  (hashable, never mutated after construction); instances pass through
  untouched.
* :func:`register_handler` — the class needs structural treatment (e.g.
  ``AppMessage``: the header is frozen by contract but the payload must
  be checked).

Anything unknown falls back to ``copy.deepcopy`` — correctness never
depends on registration, only speed.  The fallback count is exposed via
:func:`fallback_count` so tests can assert the hot path stays hot.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, Tuple

__all__ = ["snapshot", "register_immutable", "register_handler",
           "fallback_count"]

# Exact classes whose instances are immutable all the way down.
_ATOMIC = {type(None), bool, int, float, complex, str, bytes}

# handler(value, snapshot) -> (copy, immutable) for registered classes.
_HANDLERS: Dict[type, Callable[[Any, Callable[[Any], Tuple[Any, bool]]],
                               Tuple[Any, bool]]] = {}

_stats = {"deepcopy_fallbacks": 0}


def register_immutable(cls: type) -> None:
    """Declare ``cls`` a frozen value object: snapshots pass it through.

    The contract is the caller's to honour: instances must never be
    mutated after construction (no slot/attribute reassignment).
    """
    _ATOMIC.add(cls)


def register_handler(cls: type,
                     handler: Callable[[Any, Callable], Tuple[Any, bool]]
                     ) -> None:
    """Register a structural snapshot function for ``cls``.

    ``handler(value, snapshot)`` must return ``(copy, immutable)`` with
    the same isolation guarantee :func:`snapshot` provides.
    """
    _HANDLERS[cls] = handler


def fallback_count() -> int:
    """How many values have fallen back to ``copy.deepcopy`` so far."""
    return _stats["deepcopy_fallbacks"]


def snapshot(value: Any) -> Tuple[Any, bool]:
    """Return ``(isolated_copy, immutable)`` for ``value``.

    When ``immutable`` is ``True`` the returned object *is* ``value``:
    it cannot be mutated, so sharing it is safe and later reads need no
    copy either.  Otherwise the returned object shares no mutable
    structure with ``value``.
    """
    cls = value.__class__
    if cls in _ATOMIC:
        return value, True
    if cls is tuple:
        items = [snapshot(item) for item in value]
        if all(immutable for _, immutable in items):
            return value, True
        return tuple(item for item, _ in items), False
    if cls is list:
        return [snapshot(item)[0] for item in value], False
    if cls is dict:
        return {snapshot(key)[0]: snapshot(item)[0]
                for key, item in value.items()}, False
    if cls is set:
        return {snapshot(item)[0] for item in value}, False
    if cls is frozenset:
        items = [snapshot(item) for item in value]
        if all(immutable for _, immutable in items):
            return value, True
        return frozenset(item for item, _ in items), False
    handler = _HANDLERS.get(cls)
    if handler is not None:
        return handler(value, snapshot)
    if isinstance(value, tuple):
        # Tuple subclasses (NamedTuples like MessageId) of immutable
        # fields are themselves immutable; anything fancier goes the
        # slow, always-correct route below.
        if all(snapshot(item)[1] for item in value):
            return value, True
    _stats["deepcopy_fallbacks"] += 1
    return copy.deepcopy(value), False
