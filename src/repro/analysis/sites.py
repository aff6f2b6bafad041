"""Call-site vocabulary and reachability, stated once for every rule.

The paper's log-before-send rule is one sentence; the analyzer that
enforces it should not spell "a send" five ways.  This module is the
only place that knows what a stable-storage operation, a transport
send, a handler registration and a ``spawn`` look like *syntactically*,
and the only transitive walker over resolved calls:

* :func:`classify` maps one ``ast.Call`` to a :class:`Site` — kind, op,
  receiver path, and the key/value (storage), tag/handler
  (registration) or payload (send) expressions;
* :class:`SiteIndex` (one per project, cached on
  ``ProjectContext.analysis_cache``) adds what needs the whole program:
  key-forwarding helpers (``def _store(self, key, value): ...
  storage.log(key, value)``), whose *call sites* supply the keys, and
  the :class:`KeyShape` pattern of every storage key;
* :func:`reachable` walks resolved calls from a set of roots; its three
  switches are the real differences between the recovery closure
  (REC001/REC002), the direct recovery closure (REC003) and the
  receive-path closure (RES001).

A rule that needs a narrower notion than the shared one (WAL002 only
cares about sends that bypass the endpoint) filters on the recorded
``receiver``; no other module keeps a list of op names or tests a
receiver for being storage- or transport-shaped.

Storage keys are compared as *patterns*: constants stay literal,
class-constant tuples (``INCARNATION_KEY = ("ab", "incarnation")``) are
spliced through the owning class's MRO, tuple concatenations
(``self.SEGMENT_KEY + (k,)``) are flattened operand by operand, and
anything dynamic becomes a ``*`` wildcard, so
``("consensus", k, "proposal")`` written by ``propose`` is satisfied by
the ``keys(("consensus",))`` prefix scan in ``logged_instances``.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Set, Tuple)

from repro.analysis.symbols import (ClassInfo, attr_path, param_names,
                                    self_field)

__all__ = ["KeyShape", "Reached", "Site", "SiteIndex", "classify",
           "classify_rider",
           "message_param", "names_storage", "opens_write_barrier",
           "reachable", "reads_logged_state", "registrations", "site_index",
           "sites_in"]

#: Stable-storage API: op name -> what the call does to the log.
_STORAGE_KINDS = {
    "log": "write", "append": "write",
    "retrieve": "read", "retrieve_list": "read",
    "keys": "scan", "contains": "probe",
    "delete": "delete", "delete_prefix": "delete",
    "flush": "sync", "sync": "sync",
}
#: Ops whose key argument is a prefix, not a whole key.
_PREFIX_OPS = frozenset({"keys", "delete_prefix"})
#: Methods on ``self`` that protocol classes declare, by name, as
#: storage wrappers: ``_store(key, value)`` logs, ``_load(key, default)``
#: retrieves, ``take_checkpoint()`` leaves everything logged.  The
#: declaration is what lets a single-module fixture use them without
#: defining them; a defined wrapper under any other name is found by
#: :class:`SiteIndex`.
_DECLARED_HELPERS = {"_store": "write", "_load": "read",
                     "take_checkpoint": "sync"}
#: Dict-style reads count as logged state for WAL003's clean-value
#: test: protocol classes keep volatile caches of the log and read them
#: back with ``get``.
_LOGGED_READ_OPS = frozenset(
    {op for op, kind in _STORAGE_KINDS.items() if kind == "read"}
    | {"_load", "get"})

_SEND_OPS = frozenset({"send", "multisend", "broadcast"})
#: Receiver-name fragments that mark a transport: the node's endpoint,
#: a (live_)net/network, a transport medium, a channel or link, and the
#: medium a wrapping layer holds (``self.channel.inner``).
_TRANSPORT_TOKENS = ("endpoint", "net", "transport", "channel", "medium",
                     "inner", "link")
_REGISTER_OPS = frozenset({"register", "register_handler"})
_QUEUE_REGISTER_OP = "subscribe_queue"

_STORAGE = frozenset(_STORAGE_KINDS.values())
#: The kinds a key-forwarding helper can have, and the op it counts as.
_HELPER_OPS = {"write": "log", "read": "retrieve", "scan": "keys"}

#: Pattern element standing for "any single key component".
_ANY = "*"


class Site:
    """One classified call.

    ``kind`` is ``write``/``read``/``scan``/``probe``/``delete``/``sync``
    for storage, else ``send``, ``register`` or ``spawn``.  ``key`` is
    the storage key (or the registration's tag) expression and
    ``value`` the stored value (or the handler); either is ``None`` when
    the call has no such argument.  ``shape`` is the key's pattern,
    filled in by :meth:`SiteIndex.storage_sites` (opaque until then).
    """

    __slots__ = ("kind", "op", "receiver", "call", "key", "value", "shape")

    def __init__(self, kind: str, op: str, receiver: Tuple[str, ...],
                 call: ast.Call, key: Optional[ast.expr],
                 value: Optional[ast.expr]):
        self.kind = kind
        self.op = op
        self.receiver = receiver
        self.call = call
        self.key = key
        self.value = value
        self.shape = KeyShape(())

    @property
    def is_barrier(self) -> bool:
        """True for a durable effect: everything before it is logged."""
        return self.kind in ("write", "delete", "sync")

    @property
    def payload(self) -> List[ast.expr]:
        """Every argument expression (what a send may ship)."""
        return list(self.call.args) + [kw.value
                                       for kw in self.call.keywords]

    @property
    def spawned(self) -> List[ast.Call]:
        """The generator-building calls handed to a ``spawn``."""
        return [arg for arg in self.call.args if isinstance(arg, ast.Call)]


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
    elif op == _QUEUE_REGISTER_OP and args:
        # The handler is the queue's own deposit, not an argument.
        return Site("register", op, receiver, call, args[0], None)
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


def reads_logged_state(expr: ast.AST) -> bool:
    """True if ``expr`` is a call whose result comes from the log (or a
    cache of it) — receiver-agnostic, unlike :func:`classify`."""
    return isinstance(expr, ast.Call) and \
        isinstance(expr.func, ast.Attribute) and \
        expr.func.attr in _LOGGED_READ_OPS


def opens_write_barrier(stmt: ast.AST) -> bool:
    """True for ``with ...write_barrier():`` (the group-commit section)."""
    return isinstance(stmt, (ast.With, ast.AsyncWith)) and any(
        isinstance(item.context_expr, ast.Call) and
        attr_path(item.context_expr.func)[-1:] == ("write_barrier",)
        for item in stmt.items)


def message_param(handler: ast.AST) -> Optional[str]:
    """The parameter a message handler receives the message in."""
    params = param_names(handler)
    return params[0] if params else None


def registrations(info: ClassInfo) -> Dict[str, Optional[ast.expr]]:
    """``handler method name -> tag expression`` for every
    ``register(T, self.<method>)`` in the class's own methods."""
    found: Dict[str, Optional[ast.expr]] = {}
    for func in info.methods.values():
        for site in sites_in(func):
            if site.kind == "register" and site.value is not None:
                handler = self_field(site.value)
                if handler is not None:
                    found[handler] = site.key
    return found


# -- storage-key patterns ----------------------------------------------------

class KeyShape:
    """A storage-key pattern: literal components with ``*`` wildcards."""

    __slots__ = ("elements", "is_prefix")

    def __init__(self, elements: Tuple[str, ...], is_prefix: bool = False):
        self.elements = elements
        self.is_prefix = is_prefix

    @property
    def opaque(self) -> bool:
        """True when nothing literal survived — unmatchable, skip it."""
        return all(element == _ANY for element in self.elements)

    def describe(self) -> str:
        body = ", ".join(element if element == _ANY else repr(element)
                         for element in self.elements)
        tail = ", ..." if self.is_prefix else ""
        return f"({body}{tail})"

    def matches(self, other: "KeyShape") -> bool:
        """True if some concrete key satisfies both patterns.

        A prefix pattern (from a ``keys(prefix)`` scan) matches on its
        own length; exact patterns must agree on length.
        """
        ours, theirs = self.elements, other.elements
        if self.is_prefix and other.is_prefix:
            compare = min(len(ours), len(theirs))
        elif self.is_prefix:
            if len(theirs) < len(ours):
                return False
            compare = len(ours)
        elif other.is_prefix:
            if len(ours) < len(theirs):
                return False
            compare = len(theirs)
        else:
            if len(ours) != len(theirs):
                return False
            compare = len(ours)
        return all(a == _ANY or b == _ANY or a == b
                   for a, b in zip(ours[:compare], theirs[:compare]))


def _key_shape(expr: ast.AST, project, owner: Optional[ClassInfo],
               is_prefix: bool) -> KeyShape:
    """Flatten a key expression into a :class:`KeyShape`."""
    elements: List[str] = []

    def literal(value: object) -> str:
        return value if isinstance(value, str) else repr(value)

    def flatten(node: ast.AST) -> None:
        if isinstance(node, ast.Tuple):
            for elt in node.elts:
                flatten(elt)
        elif isinstance(node, ast.Constant):
            elements.append(literal(node.value))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            # ``self.PREFIX + (k,)``: tuple concatenation, element-wise.
            flatten(node.left)
            flatten(node.right)
        else:
            # ``self.CONST`` / ``CONST`` through the owner's MRO.
            name = self_field(node) or getattr(node, "id", "")
            found, value = False, None
            if name and name.isupper() and owner is not None:
                found, value = project.symbols.class_constant(
                    owner.qualname, name)
            if not found:
                elements.append(_ANY)
            elif isinstance(value, tuple):
                elements.extend(literal(part) for part in value)
            else:
                elements.append(literal(value))

    flatten(expr)
    return KeyShape(tuple(elements), is_prefix)


# -- the per-project index ---------------------------------------------------

class SiteIndex:
    """Storage sites of every function, key-forwarding helpers resolved.

    A helper is a function that hands one of its own parameters to a
    storage call as the key; it is known by its bare method name, and a
    ``self.<helper>(...)`` call stands in for the storage call inside
    it (whose own site, keyed by a parameter, is dropped).
    """

    def __init__(self, project) -> None:
        self.project = project
        #: helper method name -> (kind, 0-based key argument index).
        self.helpers: Dict[str, Tuple[str, int]] = {}
        self._sites: Dict[int, List[Site]] = {}
        for symbols in project.symbols.modules.values():
            funcs = [func for info in symbols.classes.values()
                     for func in info.methods.values()]
            for func in funcs + list(symbols.functions.values()):
                self._note_helper(func)

    def _note_helper(self, func: ast.AST) -> None:
        params = param_names(func)
        for site in sites_in(func):
            if site.kind in _HELPER_OPS and \
                    isinstance(site.key, ast.Name) and \
                    site.key.id in params:
                self.helpers[getattr(func, "name", "")] = (
                    site.kind, params.index(site.key.id))
                return

    def _storage_site(self, call: ast.Call) -> Optional[Site]:
        site = classify(call)
        if site is not None and site.kind in _STORAGE:
            return site
        path = attr_path(call.func)
        kind, index = self.helpers.get(path[-1] if path else "", ("", 0))
        if kind and path[:1] == ("self",) and len(call.args) > index:
            value = call.args[index + 1] \
                if kind == "write" and len(call.args) > index + 1 else None
            return Site(kind, _HELPER_OPS[kind], path[:-1], call,
                        call.args[index], value)
        return None

    def storage_sites(self, func: ast.AST,
                      owner: Optional[ClassInfo]) -> List[Site]:
        """Keyed storage sites of ``func`` in source order, each with
        its :class:`KeyShape` (``owner``: the class defining ``func``)."""
        cached = self._sites.get(id(func))
        if cached is None:
            params = param_names(func)
            cached = []
            calls = [node for node in ast.walk(func)
                     if isinstance(node, ast.Call)]
            for call in sorted(calls, key=lambda node: (node.lineno,
                                                        node.col_offset)):
                site = self._storage_site(call)
                if site is None or site.key is None:
                    continue
                if isinstance(site.key, ast.Name) and site.key.id in params:
                    continue  # a helper's own body: call sites carry keys
                site.shape = _key_shape(site.key, self.project, owner,
                                        site.op in _PREFIX_OPS)
                cached.append(site)
            self._sites[id(func)] = cached
        return cached


def site_index(project) -> SiteIndex:
    """The project's :class:`SiteIndex` (built on first use)."""
    index = project.analysis_cache.get("sites")
    if not isinstance(index, SiteIndex):
        index = project.analysis_cache["sites"] = SiteIndex(project)
    return index


# -- reachability ------------------------------------------------------------

class Reached(NamedTuple):
    """One function :func:`reachable` arrived at."""

    concrete: ClassInfo               # class of ``self`` on this path
    defining: Optional[ClassInfo]     # class whose body holds ``func``
    func: ast.AST
    root: int                         # index of the root that got here


def reachable(project, roots: Iterable[Tuple[ClassInfo, Optional[ClassInfo],
                                              ast.AST]], *,
              follow_refs: bool = False, skip_spawned: bool = False,
              self_only: bool = False) -> Iterator[Reached]:
    """Functions reachable from ``roots`` through resolved calls.

    ``roots`` are ``(concrete, defining, func)`` triples; each function
    is yielded once per concrete class, breadth first, roots included.

    * ``follow_refs`` — also follow address-taken methods
      (``register(T, self._on_x)``): the handler runs once registered;
    * ``skip_spawned`` — do not enter calls that only build the
      generator handed to ``spawn(...)``: its body runs later, under
      the scheduler, not as part of the caller;
    * ``self_only`` — follow only callees that run on the caller's own
      object (``self.m()``, ``super().m()``).
    """
    resolver = project.resolver
    seen: Set[tuple] = set()
    queue: deque = deque()

    def push(concrete, defining, func, root) -> None:
        key = (concrete.qualname,
               defining.qualname if defining else "", id(func))
        if key not in seen:
            seen.add(key)
            queue.append(Reached(concrete, defining, func, root))

    for number, (concrete, defining, func) in enumerate(roots):
        push(concrete, defining, func, number)
    while queue:
        here = queue.popleft()
        yield here
        concrete, defining, func, root = here
        module = defining.module if defining else concrete.module
        calls = [node for node in ast.walk(func)
                 if isinstance(node, ast.Call)]
        skipped: Set[int] = set()
        if skip_spawned:
            for site in sites_in(func):
                if site.kind == "spawn":
                    skipped.update(id(arg) for arg in site.spawned)
        targets = [target for call in calls if id(call) not in skipped
                   for target in resolver.resolve(call, module, concrete,
                                                  defining)]
        if follow_refs:
            for stmt in getattr(func, "body", ()):
                targets.extend(resolver.method_refs(stmt, module, concrete))
        for target in targets:
            if self_only and (target.receiver != "self" or
                              target.defining is None):
                continue
            push(target.concrete or concrete, target.defining, target.func,
                 root)
