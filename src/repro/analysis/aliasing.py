"""Cross-node aliasing rules (ALI family).

In-process simulation delivers message objects by reference: whatever a
node puts in a message, the receiving node gets the *same* Python
object.  Real deployments serialize; sim does not — so a shared mutable
object silently couples nodes that the paper treats as communicating
only through (fair-lossy, duplicating) channels, and makes crash
simulation unsound: "losing" one node's volatile state can mutate
another's.

* **ALI001 — cross-node mutable escape.**  Two halves.  In harness
  code, a node-building loop (``build_node_stack``/``Cluster``) that
  passes the *same* storage-like object to every iteration gives all
  simulated nodes one stable storage — a crash-recovery test then
  recovers node A from node B's log.  In protocol code, a mutable
  ``self`` container (dict/list/set built in ``__init__``) that escapes
  into a ``send``/``multisend`` without a copy is received by reference
  on every peer; the sender's next local mutation rewrites "received"
  state remotely.
* **ALI002 — stashed message payload.**  A registered handler stores a
  received message's attribute into node state without copying
  (``self.view = msg.members``).  If the payload is mutable and the
  sender retains a reference (ALI001's mirror image), the two nodes now
  share state.  Attributes whose message-class annotation is immutable
  (``int``, ``FrozenSet``, ...) are exempt.

Both rules only reason about *builtin* mutable containers — custom
classes own their sharing semantics (e.g. ``AppMessage`` is immutable
by contract).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, ModuleContext, ProjectContext
from repro.analysis.registry import PROTOCOL_SCOPE, Rule
from repro.analysis.sites import (message_param, names_storage,
                                  registrations, sites_in)
from repro.analysis.symbols import (ClassInfo, attr_path, param_names,
                                    self_field)

__all__ = ["ALIASING_RULES", "CrossNodeMutableEscapeRule",
           "StashedPayloadRule"]

_ALIAS_SCOPE = PROTOCOL_SCOPE + ("repro.harness", "repro.transport")

#: Callables that return a fresh (or immutable) object — they stop an
#: escape: ``frozenset(self.unordered.values())`` shares nothing.
_COPYING_BUILTINS = frozenset({
    "tuple", "frozenset", "list", "dict", "set", "sorted", "str",
    "bytes", "repr", "len", "sum",
})
_COPYING_METHODS = frozenset({"copy", "to_plain", "snapshot", "freeze"})

#: Annotation heads ALI002 treats as safe to stash by reference.
#: ``AppMessage`` is here by the documented contract of
#: :mod:`repro.core.messages`: payloads must be immutable and equality
#: is by id, so sharing the object across nodes is sound.
_IMMUTABLE_HEADS = frozenset({
    "int", "float", "str", "bool", "bytes", "complex", "tuple", "Tuple",
    "frozenset", "FrozenSet", "MessageId", "Timestamp", "AppMessage",
})


def _escaping_fields(expr: ast.expr) -> List[Tuple[str, ast.expr]]:
    """``(field, anchor node)`` for each ``self.<field>`` reference that
    escapes by-reference through ``expr`` (container displays and
    constructor calls pass references on; copying calls stop them)."""
    found: List[Tuple[str, ast.expr]] = []

    def visit(node: ast.expr) -> None:
        field = self_field(node)
        if field is not None:
            found.append((field, node))
            return
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                visit(elt)
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    visit(key)
            for part in node.values:
                visit(part)
        elif isinstance(node, ast.Starred):
            visit(node.value)
        elif isinstance(node, ast.IfExp):
            visit(node.body), visit(node.orelse)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and \
                    func.id in _COPYING_BUILTINS:
                return  # fresh object: the escape stops here
            if isinstance(func, ast.Attribute):
                if func.attr in _COPYING_METHODS:
                    return  # x.copy() / x.to_plain()
                # self.unordered.values() — a live view of the field.
                visit(func.value)
            for arg in node.args:
                visit(arg)  # constructors store references
            for keyword in node.keywords:
                visit(keyword.value)

    visit(expr)
    return found


class CrossNodeMutableEscapeRule(Rule):
    """ALI001: no mutable object reachable from more than one node."""

    id = "ALI001"
    name = "cross-node-mutable-escape"
    summary = ("a mutable object (storage handle or self container) is "
               "shared across simulated nodes")
    rationale = ("Section 3's processes share nothing but channels; a "
                 "storage handle reused across a node-building loop or "
                 "a mutable container escaping into a message couples "
                 "nodes by reference and makes crash simulation "
                 "unsound.")
    scope = _ALIAS_SCOPE
    requires_project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx in project.in_scope(self):
            yield from self._check_loops(project, ctx)
        for ctx, info in project.classes_in_scope(self):
            yield from self._check_sends(project, ctx, info)

    # -- half A: shared storage across a node-building loop ----------------

    def _check_loops(self, project: ProjectContext,
                     ctx: ModuleContext) -> Iterator[Finding]:
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            assigned = self._loop_bound_names(loop)
            for call in ast.walk(loop):
                if not isinstance(call, ast.Call) or \
                        not isinstance(call.func, ast.Name):
                    continue
                params = self._callee_params(project, ctx.module,
                                             call.func.id)
                if params is None:
                    continue
                pairs = list(zip(params, call.args))
                pairs += [(kw.arg, kw.value) for kw in call.keywords
                          if kw.arg is not None]
                for param, arg in pairs:
                    if param is None or not names_storage(param):
                        continue
                    if self._loop_invariant(arg, assigned):
                        yield ctx.finding(
                            self.id, arg,
                            f"storage handle shared across a "
                            f"node-building loop: argument to "
                            f"{param!r} of {call.func.id}() is created "
                            f"outside the loop, so every node gets the "
                            f"same stable storage — recovering one "
                            f"node would replay another's log; build "
                            f"one per iteration (storage_factory)")

    @staticmethod
    def _loop_bound_names(loop: ast.AST) -> Set[str]:
        bound: Set[str] = set()

        def collect(target: ast.AST) -> None:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    bound.add(node.id)

        if isinstance(loop, ast.For):
            collect(loop.target)
        for node in ast.walk(loop):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    collect(target)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                collect(node.target)
            elif isinstance(node, ast.NamedExpr):
                collect(node.target)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        collect(item.optional_vars)
        return bound

    @staticmethod
    def _callee_params(project: ProjectContext, module: str,
                       name: str) -> Optional[List[str]]:
        table = project.symbols
        info = table.resolve_name(module, name)
        func: Optional[ast.AST] = None
        if info is not None:
            func = info.methods.get("__init__")
        else:
            resolved = table.resolve_function(module, name)
            if resolved is not None:
                func = resolved[1]
        if func is None:
            return None
        return param_names(func)

    @staticmethod
    def _loop_invariant(arg: ast.AST, assigned: Set[str]) -> bool:
        if isinstance(arg, ast.Name):
            return arg.id not in assigned
        if isinstance(arg, ast.Attribute):
            path = attr_path(arg)
            return bool(path) and path[0] not in assigned
        return False  # calls/literals produce fresh values per iteration

    # -- half B: mutable field escaping into a send ------------------------

    def _check_sends(self, project: ProjectContext, ctx: ModuleContext,
                     info: ClassInfo) -> Iterator[Finding]:
        mutable = project.symbols.mutable_attrs(info.qualname)
        if not mutable:
            return
        seen: Set[Tuple[int, int, str]] = set()
        for func in info.methods.values():
            for site in sites_in(func):
                if site.kind != "send":
                    continue
                for root in site.payload:
                    for field, node in _escaping_fields(root):
                        if field not in mutable:
                            continue
                        key = (node.lineno, node.col_offset, field)
                        if key in seen:
                            continue
                        seen.add(key)
                        yield ctx.finding(
                            self.id, node,
                            f"mutable field self.{field} (a builtin "
                            f"container built in __init__) escapes "
                            f"into a message without copy: in-sim "
                            f"delivery is by reference, so peers "
                            f"receive the live object and later local "
                            f"mutations rewrite their state; wrap it "
                            f"(frozenset/tuple/.copy()) before "
                            f"sending")


class StashedPayloadRule(Rule):
    """ALI002: handlers must copy mutable payloads before stashing."""

    id = "ALI002"
    name = "stashed-message-payload"
    summary = ("a registered handler stores a received message's "
               "attribute into node state without copying")
    rationale = ("The sender may retain (and mutate) the object it "
                 "sent; in-sim delivery shares it by reference, so an "
                 "uncopied stash couples two nodes' volatile state.")
    scope = _ALIAS_SCOPE
    requires_project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for _, info in project.classes_in_scope(self):
            yield from self._check_class(project, info)

    def _check_class(self, project: ProjectContext,
                     info: ClassInfo) -> Iterator[Finding]:
        for handler_name, tag in sorted(registrations(info).items()):
            found = project.symbols.find_method(info.qualname,
                                                handler_name)
            if found is None:
                continue
            owner, handler = found
            handler_ctx = project.by_module.get(owner.module)
            msg_param = message_param(handler)
            if handler_ctx is None or msg_param is None:
                continue
            # ``register(Msg.type, ...)`` names the message class.
            msg_class_name = tag.value.id \
                if isinstance(tag, ast.Attribute) and \
                isinstance(tag.value, ast.Name) else None
            immutable = self._immutable_payload_attrs(
                project, owner.module, msg_class_name)
            yield from self._check_handler(handler_ctx, handler,
                                           handler_name, msg_param,
                                           immutable)

    @staticmethod
    def _immutable_payload_attrs(project: ProjectContext, module: str,
                                 msg_class_name: Optional[str]
                                 ) -> Optional[Set[str]]:
        """Attrs of the message class with immutable annotations, or
        ``None`` when the class is unknown (conservative: flag all)."""
        if msg_class_name is None:
            return None
        info = project.symbols.resolve_name(module, msg_class_name)
        if info is None:
            return None
        init = info.methods.get("__init__")
        args = getattr(init, "args", None)
        if args is None:
            return None
        immutable: Set[str] = set()
        for arg in list(args.args) + list(args.kwonlyargs):
            annotation = arg.annotation
            head = ""
            while isinstance(annotation, ast.Subscript):
                annotation = annotation.value
            if isinstance(annotation, ast.Name):
                head = annotation.id
            elif isinstance(annotation, ast.Attribute):
                head = annotation.attr
            if head in _IMMUTABLE_HEADS:
                immutable.add(arg.arg)
        return immutable

    def _check_handler(self, ctx: ModuleContext, handler: ast.AST,
                       handler_name: str, msg_param: str,
                       immutable: Optional[Set[str]]
                       ) -> Iterator[Finding]:
        def payload_attr(node: ast.AST) -> Optional[str]:
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == msg_param:
                return node.attr
            return None

        for node in ast.walk(handler):
            stashed: Optional[ast.AST] = None
            target_field: Optional[str] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                field = self_field(target)
                if field is None and isinstance(target, ast.Subscript):
                    field = self_field(target.value)
                if field is not None and \
                        payload_attr(node.value) is not None:
                    stashed, target_field = node.value, field
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                field = self_field(node.func.value)
                if field is not None and node.func.attr in (
                        "append", "add", "update", "extend",
                        "setdefault", "insert", "appendleft"):
                    for arg in node.args:
                        if payload_attr(arg) is not None:
                            stashed, target_field = arg, field
                            break
            if stashed is None:
                continue
            attr = payload_attr(stashed)
            assert attr is not None
            if immutable is not None and attr in immutable:
                continue
            yield ctx.finding(
                self.id, stashed,
                f"handler {handler_name} stashes message payload "
                f".{attr} into self.{target_field} without copy: the "
                f"sender may retain and mutate the same object "
                f"(in-sim delivery is by reference); store a copy "
                f"(tuple/frozenset/.copy()) instead")


ALIASING_RULES = (CrossNodeMutableEscapeRule(), StashedPayloadRule())
