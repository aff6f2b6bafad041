"""Call-site vocabulary, stated once for every rule.

The paper's log-before-send rule is one sentence; the analyzer that
enforces it should not spell "a send" five ways.  This module is the
only place that knows what a stable-storage operation, a transport
send, a handler registration and a ``spawn`` look like *syntactically*:
:func:`classify` maps one ``ast.Call`` to a :class:`Site` — kind, op,
receiver path, and the key/value (storage), tag/handler (registration)
or payload (send) expressions.

A rule that needs a narrower notion than the shared one (WAL002 only
cares about sends that bypass the endpoint) filters on the recorded
``receiver``; no other module keeps a list of op names or tests a
receiver for being storage- or transport-shaped.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.symbols import attr_path

__all__ = ["Site", "classify", "classify_rider", "names_storage",
           "sites_in"]

#: Stable-storage API: op name -> what the call does to the log.
_STORAGE_KINDS = {
    "log": "write", "append": "write",
    "retrieve": "read", "retrieve_list": "read",
    "keys": "scan", "contains": "probe",
    "delete": "delete", "delete_prefix": "delete",
    "flush": "sync", "sync": "sync",
}
#: Methods on ``self`` that protocol classes declare, by name, as
#: storage wrappers: ``_store(key, value)`` logs, ``_load(key, default)``
#: retrieves, ``take_checkpoint()`` leaves everything logged.  The
#: declaration is what lets a single-module fixture use them without
#: defining them.
_DECLARED_HELPERS = {"_store": "write", "_load": "read",
                     "take_checkpoint": "sync"}
_SEND_OPS = frozenset({"send", "multisend", "broadcast"})
#: Receiver-name fragments that mark a transport: the node's endpoint,
#: a (live_)net/network, a transport medium, a channel or link, and the
#: medium a wrapping layer holds (``self.channel.inner``).
_TRANSPORT_TOKENS = ("endpoint", "net", "transport", "channel", "medium",
                     "inner", "link")
_REGISTER_OPS = frozenset({"register", "register_handler"})


class Site:
    """One classified call.

    ``kind`` is ``write``/``read``/``scan``/``probe``/``delete``/``sync``
    for storage, else ``send``, ``register`` or ``spawn``.  ``key`` is
    the storage key (or the registration's tag) expression and
    ``value`` the stored value (or the handler); either is ``None`` when
    the call has no such argument.
    """

    __slots__ = ("kind", "op", "receiver", "call", "key", "value")

    def __init__(self, kind: str, op: str, receiver: Tuple[str, ...],
                 call: ast.Call, key: Optional[ast.expr],
                 value: Optional[ast.expr]):
        self.kind = kind
        self.op = op
        self.receiver = receiver
        self.call = call
        self.key = key
        self.value = value

    @property
    def payload(self) -> List[ast.expr]:
        """Every argument expression (what a send may ship)."""
        return list(self.call.args) + [kw.value
                                       for kw in self.call.keywords]


def names_storage(name: str) -> bool:
    """True if an attribute or parameter name denotes stable storage."""
    return "storage" in name or name == "store"


def classify(call: ast.Call) -> Optional[Site]:
    """The :class:`Site` of ``call``, or ``None`` for any other call."""
    path = attr_path(call.func)
    if not path:
        return None
    op, receiver, args = path[-1], path[:-1], call.args
    if op in _STORAGE_KINDS and any(map(names_storage, receiver)):
        kind = _STORAGE_KINDS[op]
    elif op in _DECLARED_HELPERS and receiver[:1] == ("self",):
        kind = _DECLARED_HELPERS[op]
    elif op in _SEND_OPS and any(token in part for part in receiver
                                 for token in _TRANSPORT_TOKENS):
        kind = "send"
    elif op in _REGISTER_OPS and len(args) >= 2:
        kind = "register"
    elif op == "spawn":
        kind = "spawn"
    else:
        return None
    return Site(kind, op, receiver, call, args[0] if args else None,
                args[1] if len(args) > 1 else None)


def classify_rider(target: ast.expr) -> bool:
    """True for the target of ``<transport>.rider = ...``: the hook a
    transport asks, on every send, for a message to ride along."""
    path = attr_path(target)
    return path[-1:] == ("rider",) and any(
        token in part for part in path[:-1] for token in _TRANSPORT_TOKENS)


def sites_in(root: ast.AST) -> Iterator[Site]:
    """The classified calls anywhere under ``root``, in walk order."""
    for node in ast.walk(root):
        site = classify(node) if isinstance(node, ast.Call) else None
        if site is not None:
            yield site
