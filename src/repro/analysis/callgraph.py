"""Call resolution over the project symbol table.

The interprocedural rules walk statements and ask, for every
``ast.Call``, *which function body runs?*  Resolution is context
sensitive in the one dimension that matters for protocol classes: the
**concrete class** of ``self``.  A base-class method analyzed on behalf
of concrete class ``C`` resolves ``self.m()`` through ``C``'s MRO, so
the override that will actually run is the one analyzed — e.g.
``BasicAtomicBroadcast.on_start`` calling ``self._restore_volatile_state``
resolves to the ``Alternative`` override when the concrete class is
``AlternativeAtomicBroadcast``.

Resolved forms:

* ``self.m(...)`` — MRO of the concrete class;
* ``super().m(...)`` — MRO past the defining class;
* ``self.attr.m(...)`` — the attr's class inferred from ``__init__``
  annotations/constructions, *plus* every known subclass override
  (class-hierarchy fan-out: the harness may wire any concrete subtype,
  and abstract hooks like ``ConsensusService._activate`` only have
  bodies in subclasses);
* ``f(...)`` — a module-level function, local or imported;
* ``Cls.m(...)`` / ``mod.f(...)`` — explicit qualification.

Anything else is unknown, and callers treat it as opaque.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.analysis.cfg import scoped_walk
from repro.analysis.symbols import ClassInfo, SymbolTable, param_names

__all__ = ["CallResolver", "FieldWriteSummary", "ResolvedCall",
           "value_sources"]

# Builtins whose result is a pure function of their arguments' values —
# the value "flows through" them for derivation purposes.  Deliberately
# value-preserving only: an opaque call produces a *new* value, breaking
# the derivation chain.
_VALUE_PRESERVING = frozenset({
    "abs", "bool", "dict", "float", "frozenset", "int", "len", "list",
    "max", "min", "round", "set", "sorted", "str", "sum", "tuple",
})


class ResolvedCall:
    """One possible callee of a call site."""

    __slots__ = ("concrete", "defining", "func", "receiver")

    def __init__(self, concrete: Optional[ClassInfo],
                 defining: Optional[ClassInfo], func: ast.AST,
                 receiver: str):
        #: Concrete class for resolving further self-calls in the callee.
        self.concrete = concrete
        #: Class whose body defines the callee (anchor for super()).
        self.defining = defining
        self.func = func
        #: ``"self"`` when the callee runs on the caller's own object.
        self.receiver = receiver

    @property
    def name(self) -> str:
        owner = self.defining.name if self.defining else "<module>"
        return f"{owner}.{getattr(self.func, 'name', '?')}"

    def key(self) -> tuple:
        concrete = self.concrete.qualname if self.concrete else ""
        defining = self.defining.qualname if self.defining else ""
        return (concrete, defining, getattr(self.func, "name", ""))


def value_sources(expr: Optional[ast.AST]
                  ) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """``(names, self_fields)`` the expression's *value* derives from.

    Follows value-preserving operators (arithmetic, comparisons,
    subscripts, tuple/list/set displays, conditional expressions) and
    the pure coercion builtins, but stops at opaque calls: ``f(x)``
    returns a fresh value even though ``x`` went in.  This is the
    derivation notion the concurrency rules share — "is this expression
    still the stale thing I read earlier?"
    """
    if expr is None:
        return frozenset(), frozenset()
    names: set = set()
    fields: set = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            field = _attr_root_field(node)
            if field is not None:
                fields.add(field)  # self.f / self.f.total — field f
            else:
                head: ast.AST = node
                while isinstance(head, ast.Attribute):
                    head = head.value
                if isinstance(head, ast.Name):
                    names.add(head.id)  # msg.k — derived from msg
        elif isinstance(node, ast.BinOp):
            visit(node.left), visit(node.right)
        elif isinstance(node, ast.UnaryOp):
            visit(node.operand)
        elif isinstance(node, ast.BoolOp):
            for value in node.values:
                visit(value)
        elif isinstance(node, ast.Compare):
            visit(node.left)
            for comparator in node.comparators:
                visit(comparator)
        elif isinstance(node, ast.Subscript):
            visit(node.value), visit(node.slice)
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                visit(elt)
        elif isinstance(node, ast.IfExp):
            visit(node.body), visit(node.orelse)
        elif isinstance(node, ast.Starred):
            visit(node.value)
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and \
                    node.func.id in _VALUE_PRESERVING:
                for arg in node.args:
                    visit(arg)
        # Anything else (constants, comprehensions, opaque calls,
        # lambdas) contributes no sources.

    visit(expr)
    return frozenset(names), frozenset(fields)


def _attr_root_field(node: ast.Attribute) -> Optional[str]:
    """The field name of a ``self.f[...attrs...]`` chain, if any."""
    current: ast.AST = node
    field = None
    while isinstance(current, ast.Attribute):
        field = current.attr
        current = current.value
    if isinstance(current, ast.Name) and current.id == "self":
        return field
    return None


class FieldWriteSummary:
    """What one callee does to ``self`` fields, per parameter.

    ``fields`` is every field the function writes at all;
    ``param_fields[p]`` is the subset whose new value is directly
    derived (per :func:`value_sources`) from parameter ``p``.  The
    atomicity rule uses this to follow a stale local through a helper
    call into the field it finally lands in.
    """

    __slots__ = ("fields", "param_fields", "params")

    def __init__(self, params: Tuple[str, ...],
                 fields: FrozenSet[str],
                 param_fields: Dict[str, FrozenSet[str]]):
        self.params = params
        self.fields = fields
        self.param_fields = param_fields


def _summarize_field_writes(func: ast.AST) -> FieldWriteSummary:
    params = tuple(param_names(func, kwonly=True))
    fields: set = set()
    param_fields: Dict[str, set] = {}

    def record(target: ast.AST, value: Optional[ast.AST]) -> None:
        field = None
        if isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and \
                    target.value.id == "self":
                field = target.attr
        elif isinstance(target, ast.Subscript):
            field = _attr_root_field(target.value) \
                if isinstance(target.value, ast.Attribute) else None
        if field is None:
            return
        fields.add(field)
        names, _ = value_sources(value)
        for name in names:
            if name in params:
                param_fields.setdefault(name, set()).add(field)

    for node in scoped_walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record(target, node.value)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            record(node.target, node.value)
    return FieldWriteSummary(
        params, frozenset(fields),
        {name: frozenset(found) for name, found in param_fields.items()})


class CallResolver:
    """Resolves call sites against a :class:`SymbolTable`."""

    def __init__(self, table: SymbolTable):
        self.table = table
        self._field_summaries: Dict[int, FieldWriteSummary] = {}

    def field_summary(self, func: ast.AST) -> FieldWriteSummary:
        """Cached per-function field-write summary (see
        :class:`FieldWriteSummary`)."""
        cached = self._field_summaries.get(id(func))
        if cached is None:
            cached = _summarize_field_writes(func)
            self._field_summaries[id(func)] = cached
        return cached

    # -- public api --------------------------------------------------------

    def resolve(self, call: ast.Call, module: str,
                concrete: Optional[ClassInfo],
                defining: Optional[ClassInfo]) -> List[ResolvedCall]:
        """All known callees of ``call`` (empty when unresolvable)."""
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_bare(func.id, module, concrete)
        if not isinstance(func, ast.Attribute):
            return []
        method = func.attr
        receiver = func.value
        if isinstance(receiver, ast.Name):
            if receiver.id == "self" and concrete is not None:
                return self._method_target(concrete, method, "self")
            return self._resolve_qualified(receiver.id, method, module)
        if isinstance(receiver, ast.Call) and \
                isinstance(receiver.func, ast.Name) and \
                receiver.func.id == "super" and concrete is not None:
            after = defining.qualname if defining is not None else None
            found = self.table.find_method(concrete.qualname, method,
                                           after=after)
            if found is None:
                return []
            owner, body = found
            return [ResolvedCall(concrete, owner, body, "self")]
        if isinstance(receiver, ast.Attribute) and \
                isinstance(receiver.value, ast.Name) and \
                receiver.value.id == "self" and concrete is not None:
            return self._resolve_attr_call(concrete, receiver.attr, method,
                                           module)
        return []

    def method_refs(self, stmt: ast.stmt, module: str,
                    concrete: Optional[ClassInfo]
                    ) -> Iterator[ResolvedCall]:
        """Address-taken method references inside one statement.

        ``endpoint.register(T, self._on_gossip)`` passes ``self._on_gossip``
        without calling it; the registered handler is reachable the moment
        a message arrives, so reachability analyses must follow it.
        """
        call_funcs = {id(node.func) for node in ast.walk(stmt)
                      if isinstance(node, ast.Call)}
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Attribute) or id(node) in call_funcs:
                continue
            if isinstance(node.value, ast.Name) and \
                    node.value.id == "self" and concrete is not None:
                yield from self._method_target(concrete, node.attr, "self")
            elif isinstance(node.value, ast.Attribute) and \
                    isinstance(node.value.value, ast.Name) and \
                    node.value.value.id == "self" and concrete is not None:
                yield from self._resolve_attr_call(
                    concrete, node.value.attr, node.attr, module)

    # -- internals ---------------------------------------------------------

    def _method_target(self, concrete: ClassInfo, method: str,
                       receiver: str) -> List[ResolvedCall]:
        found = self.table.find_method(concrete.qualname, method)
        if found is None:
            return []
        owner, body = found
        return [ResolvedCall(concrete, owner, body, receiver)]

    def _attr_class(self, concrete: ClassInfo,
                    attr: str) -> Optional[ClassInfo]:
        for info in self.table.mro(concrete.qualname):
            declared = info.attr_types.get(attr)
            if declared:
                return self.table.resolve_name(info.module, declared)
        return None

    def _resolve_attr_call(self, concrete: ClassInfo, attr: str,
                           method: str, module: str) -> List[ResolvedCall]:
        declared = self._attr_class(concrete, attr)
        if declared is None:
            return []
        targets: List[ResolvedCall] = []
        seen: set = set()
        candidates = [declared] + self.table.subclasses(declared.qualname)
        for candidate in candidates:
            found = self.table.find_method(candidate.qualname, method)
            if found is None:
                continue
            owner, body = found
            resolved = ResolvedCall(candidate, owner, body, attr)
            if resolved.key() in seen:
                continue
            seen.add(resolved.key())
            targets.append(resolved)
        return targets

    def _resolve_bare(self, name: str, module: str,
                      concrete: Optional[ClassInfo]) -> List[ResolvedCall]:
        found = self.table.resolve_function(module, name)
        if found is not None:
            _, body = found
            return [ResolvedCall(None, None, body, "")]
        return []

    def _resolve_qualified(self, head: str, method: str,
                           module: str) -> List[ResolvedCall]:
        # ``Cls.m(...)`` — an explicit class-qualified call.
        info = self.table.resolve_name(module, head)
        if info is not None:
            return self._method_target(info, method, "")
        # ``mod.f(...)`` — a function through an imported module.
        symbols = self.table.modules.get(module)
        if symbols is None:
            return []
        target = symbols.imports.get(head)
        if target is not None:
            other = self.table.modules.get(target)
            if other is not None and method in other.functions:
                return [ResolvedCall(None, None, other.functions[method],
                                     "")]
        return []
