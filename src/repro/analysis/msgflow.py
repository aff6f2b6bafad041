"""Whole-program message-flow graph: sender → message type → handler.

The paper's protocols are defined by which message types flow between
which handlers (Section 3.1's transport interface).  This module
recovers that graph statically, from the same project symbol table the
interprocedural rules share:

* **message types** — every ``WireMessage`` subclass, with its class
  level ``type`` tag (``"ab.gossip"``).  A subclass that computes its
  tag per instance (``ScopedMessage``'s ``f"{scope}::{type}"``) has no
  static tag and lands in the *dynamic* bucket;
* **send edges** — every transport send (as :mod:`repro.analysis.sites`
  defines one), resolved to the message class it ships by
  looking at constructor calls in the arguments, locals assigned from a
  constructor earlier in the function, classmethod factories
  (``Cls.make(...)``) and the sender's own methods that return one
  class (``self._build(...)``).  A method wired as a transport's rider
  (``self.endpoint.rider = self._rider``) is a send edge of op
  ``rider``: what it returns rides every send of that endpoint.
  Unresolvable sends (a forwarding layer shipping an opaque parameter)
  are kept as *opaque* edges;
* **handler edges** — every handler registration (same module), with
  the tag argument resolved through
  ``Msg.type`` attributes, string literals, and f-strings (the scoped
  endpoint's dynamic registrations);
* **command edges** — the membership layer's kind-string dispatch:
  ``reconfig_payload(op, ...)`` producers matched against
  ``parse_reconfig(...)`` consumers, with the op universe read from the
  ``RECONFIG_OPS`` module constant.

The graph is cached on ``ProjectContext.analysis_cache`` under
``"msgflow"`` so the MSG rule family shares one build, and is emitted
as a queryable artifact by ``repro lint --emit-msgflow out.json`` (or
``out.dot`` for Graphviz).
"""

from __future__ import annotations

import ast
import json
from typing import Dict, List, Optional, Tuple

from repro.analysis.sites import Site, classify, classify_rider
from repro.analysis.symbols import (ClassInfo, SymbolTable, attr_path,
                                    self_field)

__all__ = ["MessageFlowGraph", "MessageType", "SendEdge", "HandlerEdge",
           "build_msgflow", "build_msgflow_for_paths", "render_msgflow",
           "write_msgflow"]

_CACHE_KEY = "msgflow"


class MessageType:
    """One ``WireMessage`` subclass (a node of the graph)."""

    __slots__ = ("tag", "class_name", "qualname", "module", "line",
                 "fields", "dynamic")

    def __init__(self, tag: Optional[str], class_name: str, qualname: str,
                 module: str, line: int, fields: Tuple[str, ...]):
        self.tag = tag
        self.class_name = class_name
        self.qualname = qualname
        self.module = module
        self.line = line
        self.fields = fields
        self.dynamic = tag is None

    def to_dict(self) -> Dict[str, object]:
        return {"tag": self.tag, "class": self.class_name,
                "module": self.module, "line": self.line,
                "fields": list(self.fields), "dynamic": self.dynamic}


class SendEdge:
    """One transport send call site (sender → type)."""

    __slots__ = ("tag", "class_name", "sender", "module", "line", "op",
                 "resolved")

    def __init__(self, tag: Optional[str], class_name: Optional[str],
                 sender: str, module: str, line: int, op: str,
                 resolved: str):
        self.tag = tag
        self.class_name = class_name
        self.sender = sender
        self.module = module
        self.line = line
        self.op = op
        #: How the payload was resolved: ``constructor`` (inline call),
        #: ``local`` (a name assigned from a constructor), ``factory``
        #: (``Cls.method(...)``), ``helper`` (an own method returning
        #: one class), ``dynamic`` (a dynamic-tag class), or
        #: ``opaque`` (a forwarded parameter — no static class).
        self.resolved = resolved

    def to_dict(self) -> Dict[str, object]:
        return {"tag": self.tag, "class": self.class_name,
                "sender": self.sender, "module": self.module,
                "line": self.line, "op": self.op,
                "resolved": self.resolved}


class HandlerEdge:
    """One handler registration (type → handler)."""

    __slots__ = ("tag", "class_name", "handler", "handler_method",
                 "registrar", "registrar_qualname", "module", "line",
                 "via", "pattern")

    def __init__(self, tag: Optional[str], class_name: Optional[str],
                 handler: str, handler_method: Optional[str],
                 registrar: str, registrar_qualname: Optional[str],
                 module: str, line: int, via: str,
                 pattern: Optional[str] = None):
        self.tag = tag
        self.class_name = class_name
        self.handler = handler
        #: Method name on the registrar when the handler is
        #: ``self._on_x`` — what MSG003 resolves to a body.
        self.handler_method = handler_method
        self.registrar = registrar
        self.registrar_qualname = registrar_qualname
        self.module = module
        self.line = line
        self.via = via
        #: Approximate tag pattern for f-string registrations
        #: (``"{scope}::{msg_type}"``); ``None`` for static tags.
        self.pattern = pattern

    def to_dict(self) -> Dict[str, object]:
        return {"tag": self.tag, "class": self.class_name,
                "handler": self.handler, "registrar": self.registrar,
                "module": self.module, "line": self.line, "via": self.via,
                "pattern": self.pattern}


class _Location:
    """A plain code location (constructions, command edges)."""

    __slots__ = ("where", "module", "line", "detail")

    def __init__(self, where: str, module: str, line: int,
                 detail: Optional[str] = None):
        self.where = where
        self.module = module
        self.line = line
        self.detail = detail

    def to_dict(self) -> Dict[str, object]:
        found: Dict[str, object] = {"where": self.where,
                                    "module": self.module,
                                    "line": self.line}
        if self.detail is not None:
            found["detail"] = self.detail
        return found


class MessageFlowGraph:
    """The queryable artifact: types, send edges, handler edges."""

    def __init__(self) -> None:
        self.messages: Dict[str, MessageType] = {}       # by tag
        self.dynamic_messages: List[MessageType] = []    # no static tag
        self.by_qualname: Dict[str, MessageType] = {}
        self.sends: List[SendEdge] = []
        self.constructions: Dict[str, List[_Location]] = {}  # tag -> sites
        self.handlers: List[HandlerEdge] = []
        #: ``op -> {"producers": [...], "consumers": [...]}`` for the
        #: membership layer's reconfig kind-strings.
        self.commands: Dict[str, Dict[str, List[_Location]]] = {}

    # -- queries -----------------------------------------------------------

    def sent_tags(self) -> frozenset:
        return frozenset(edge.tag for edge in self.sends
                         if edge.tag is not None)

    def constructed_tags(self) -> frozenset:
        return frozenset(self.constructions)

    def handled_tags(self) -> frozenset:
        return frozenset(edge.tag for edge in self.handlers
                         if edge.tag is not None)

    def handlers_for(self, tag: str) -> List[HandlerEdge]:
        return [edge for edge in self.handlers if edge.tag == tag]

    def senders_for(self, tag: str) -> List[SendEdge]:
        return [edge for edge in self.sends if edge.tag == tag]

    def has_dynamic_registrations(self) -> bool:
        return any(edge.pattern is not None for edge in self.handlers)

    # -- emission ----------------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "messages": [record.to_dict() for _, record
                         in sorted(self.messages.items())],
            "dynamic_messages": [record.to_dict()
                                 for record in self.dynamic_messages],
            "sends": [edge.to_dict() for edge in self.sends],
            "constructions": {tag: [site.to_dict() for site in sites]
                              for tag, sites
                              in sorted(self.constructions.items())},
            "handlers": [edge.to_dict() for edge in self.handlers],
            "commands": {op: {"producers": [s.to_dict() for s in v["producers"]],
                              "consumers": [s.to_dict() for s in v["consumers"]]}
                         for op, v in sorted(self.commands.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False)

    def to_dot(self) -> str:
        def quote(text: str) -> str:
            return '"' + text.replace('"', '\\"') + '"'

        lines = ["digraph msgflow {", "  rankdir=LR;",
                 '  node [fontname="monospace"];']
        for tag, record in sorted(self.messages.items()):
            lines.append(f"  {quote('msg:' + tag)} [shape=box, "
                         f"label={quote(tag + chr(10) + record.class_name)}];")
        for record in self.dynamic_messages:
            lines.append(f"  {quote('msg:<dynamic>:' + record.class_name)} "
                         f"[shape=box, style=dashed, "
                         f"label={quote(record.class_name + chr(10) + '(dynamic tag)')}];")
        seen = set()
        for edge in self.sends:
            if edge.tag is None:
                continue
            pair = (edge.sender, edge.tag)
            if pair in seen:
                continue
            seen.add(pair)
            lines.append(f"  {quote(edge.sender)} -> {quote('msg:' + edge.tag)};")
        for edge in self.handlers:
            if edge.tag is None:
                continue
            pair = (edge.tag, edge.handler)
            if pair in seen:
                continue
            seen.add(pair)
            lines.append(f"  {quote('msg:' + edge.tag)} -> {quote(edge.handler)};")
        for op, parts in sorted(self.commands.items()):
            node = f"cmd:reconfig:{op}"
            lines.append(f"  {quote(node)} [shape=diamond];")
            for site in parts["producers"]:
                lines.append(f"  {quote(site.where)} -> {quote(node)};")
            for site in parts["consumers"]:
                lines.append(f"  {quote(node)} -> {quote(site.where)};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        return (f"{len(self.messages)} message type(s), "
                f"{len(self.sends)} send site(s), "
                f"{len(self.handlers)} handler edge(s), "
                f"{len(self.commands)} reconfig op(s)")


# -- message-class index ---------------------------------------------------

def _is_message_class(table: SymbolTable, info: ClassInfo) -> bool:
    if info.name == "WireMessage":
        return True
    for ancestor in table.mro(info.qualname)[1:]:
        if ancestor.name == "WireMessage":
            return True
    # Syntactic fallback: a fixture module subclassing a WireMessage the
    # analyzer never parsed.
    for base in info.base_refs:
        name = base.attr if isinstance(base, ast.Attribute) else \
            getattr(base, "id", "")
        if name == "WireMessage":
            return True
    return False


def _own_class_str(info: ClassInfo, name: str) -> Optional[str]:
    """A class-body ``name = "literal"`` assignment (lowercase names are
    not in ``ClassInfo.constants``, so scan the body directly)."""
    for stmt in info.node.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name) and \
                stmt.targets[0].id == name and \
                isinstance(stmt.value, ast.Constant) and \
                isinstance(stmt.value.value, str):
            return stmt.value.value
    return None


def _own_class_str_tuple(info: ClassInfo,
                         name: str) -> Optional[Tuple[str, ...]]:
    for stmt in info.node.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name) and \
                stmt.targets[0].id == name and \
                isinstance(stmt.value, ast.Tuple):
            elements = []
            for elt in stmt.value.elts:
                if isinstance(elt, ast.Constant) and \
                        isinstance(elt.value, str):
                    elements.append(elt.value)
            return tuple(elements)
    return None


def _message_tag(table: SymbolTable, info: ClassInfo) -> Optional[str]:
    """The static wire tag of a message class.

    Own body first, then ancestors — but *not* the ``WireMessage`` root:
    a subclass that neither declares a tag nor inherits one from an
    intermediate base computes it per instance (``ScopedMessage``), and
    inheriting the root's placeholder would hide that.
    """
    own = _own_class_str(info, "type")
    if own is not None:
        return own
    for ancestor in table.mro(info.qualname)[1:]:
        if ancestor.name == "WireMessage":
            continue
        inherited = _own_class_str(ancestor, "type")
        if inherited is not None:
            return inherited
    return None


def _message_fields(table: SymbolTable, info: ClassInfo) -> Tuple[str, ...]:
    order = table.mro(info.qualname) or (info,)
    for ancestor in order:
        fields = _own_class_str_tuple(ancestor, "fields")
        if fields is not None:
            return fields
    return ()


# -- graph construction ----------------------------------------------------

class _Builder:
    def __init__(self, project) -> None:
        self.project = project
        self.table: SymbolTable = project.symbols
        self.graph = MessageFlowGraph()

    def build(self) -> MessageFlowGraph:
        self._index_messages()
        for module in sorted(self.table.modules):
            self._scan_module(self.table.modules[module])
        self._finish_commands()
        return self.graph

    # -- messages ----------------------------------------------------------

    def _index_messages(self) -> None:
        for qualname in sorted(self.table.classes):
            info = self.table.classes[qualname]
            if not _is_message_class(self.table, info):
                continue
            record = MessageType(_message_tag(self.table, info), info.name,
                                 qualname, info.module, info.node.lineno,
                                 _message_fields(self.table, info))
            self.graph.by_qualname[qualname] = record
            if record.tag is not None:
                # First definition wins; duplicated tags would be a wire
                # ambiguity, but that is MSG001/002's business, not the
                # index's.
                self.graph.messages.setdefault(record.tag, record)
            else:
                self.graph.dynamic_messages.append(record)

    def _message_record(self, module: str,
                        class_name: str) -> Optional[MessageType]:
        info = self.table.resolve_name(module, class_name)
        if info is None:
            return None
        return self.graph.by_qualname.get(info.qualname)

    # -- per-module scan ---------------------------------------------------

    def _scan_module(self, symbols) -> None:
        for name in sorted(symbols.classes):
            info = symbols.classes[name]
            for method_name in sorted(info.methods):
                self._scan_function(symbols.module,
                                    f"{info.name}.{method_name}",
                                    info.methods[method_name], info)
        for name in sorted(symbols.functions):
            self._scan_function(symbols.module,
                                f"{symbols.module}.{name}",
                                symbols.functions[name], None)

    def _constructed_record(self, call: ast.Call,
                            module: str) -> Optional[MessageType]:
        """The message class a constructor/factory call produces."""
        func = call.func
        if isinstance(func, ast.Name):
            return self._message_record(module, func.id)
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name):
            record = self._message_record(module, func.value.id)
            if record is None:
                return None
            # ``Cls.make(...)`` — only count real factory methods, not
            # arbitrary attribute access on the class.
            found = self.table.find_method(record.qualname, func.attr)
            if found is not None:
                return record
        return None

    def _scan_function(self, module: str, where: str, func: ast.AST,
                       owner: Optional[ClassInfo]) -> None:
        local_env: Dict[str, MessageType] = {}
        sends: List[Site] = []
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            record = self._constructed_record(node, module)
            if record is not None:
                if isinstance(node.func, ast.Name):
                    resolved = "constructor"
                else:
                    resolved = "factory"
                if record.tag is not None:
                    self.graph.constructions.setdefault(
                        record.tag, []).append(
                        _Location(where, module, node.lineno, resolved))
            site = classify(node)
            if site is not None and site.kind == "register":
                self._note_registration(site, module, where, owner)
            elif site is not None and site.kind == "send":
                sends.append(site)
            self._note_command(node, module, where)
        # Locals assigned from a constructor or a helper, for send-site
        # resolution (``envelope = ScopedMessage(...); ... send(...,
        # envelope)``), and methods wired as a transport's rider.
        for node in ast.walk(func):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if isinstance(target, ast.Name):
                record, _ = self._resolve(node.value, module, {}, owner)
                if record is not None:
                    local_env[target.id] = record
            elif owner is not None and self_field(node.value) and \
                    classify_rider(target):
                self._note_rider(owner, self_field(node.value), module)
        for site in sends:
            self._note_send(site, module, where, local_env, owner)

    # -- send edges --------------------------------------------------------

    def _note_send(self, site: Site, module: str, where: str,
                   local_env: Dict[str, MessageType],
                   owner: Optional[ClassInfo]) -> None:
        payload: Optional[MessageType] = None
        resolved = "opaque"
        for arg in site.payload:
            payload, resolved = self._resolve(arg, module, local_env,
                                              owner)
            if payload is not None:
                break
        self._add_send(payload, resolved, where, module, site.call.lineno,
                       site.op)

    def _add_send(self, payload: Optional[MessageType], resolved: str,
                  where: str, module: str, line: int, op: str) -> None:
        if payload is not None and payload.tag is None:
            resolved = "dynamic"
        self.graph.sends.append(SendEdge(
            payload.tag if payload is not None else None,
            payload.class_name if payload is not None else None,
            where, module, line, op, resolved))

    def _resolve(self, expr: ast.expr, module: str,
                 local_env: Dict[str, MessageType],
                 owner: Optional[ClassInfo], depth: int = 0
                 ) -> Tuple[Optional[MessageType], str]:
        """The message class ``expr`` evaluates to, and how it was
        found; ``(None, "opaque")`` when it cannot be told."""
        if isinstance(expr, ast.Name) and expr.id in local_env:
            return local_env[expr.id], "local"
        if not isinstance(expr, ast.Call):
            return None, "opaque"
        record = self._constructed_record(expr, module)
        if record is not None:
            return record, ("constructor" if isinstance(expr.func, ast.Name)
                            else "factory")
        name = self_field(expr.func)
        if name is not None and owner is not None and depth < 3:
            found = self.table.find_method(owner.qualname, name)
            if found is not None:
                record = self._returned(found, owner, depth + 1)
                if record is not None:
                    return record, "helper"
        return None, "opaque"

    def _returned(self, found: Tuple[ClassInfo, ast.AST], owner: ClassInfo,
                  depth: int) -> Optional[MessageType]:
        """The one message class every value-returning ``return`` of the
        method ``found`` resolves to (``return None`` aside), else
        ``None``."""
        module = found[0].module
        records = set()
        for node in ast.walk(found[1]):
            if not isinstance(node, ast.Return) or node.value is None or \
                    (isinstance(node.value, ast.Constant)
                     and node.value.value is None):
                continue
            record, _ = self._resolve(node.value, module, {}, owner, depth)
            if record is None:
                return None
            records.add(record.qualname)
        if len(records) != 1:
            return None
        return self.graph.by_qualname.get(records.pop())

    def _note_rider(self, owner: ClassInfo, name: str, module: str) -> None:
        """``<transport>.rider = self.<name>``: what ``name`` returns
        rides the endpoint's sends."""
        found = self.table.find_method(owner.qualname, name)
        if found is None:
            return
        payload = self._returned(found, owner, 0)
        self._add_send(payload, "helper" if payload is not None
                       else "opaque", f"{owner.name}.{name}", module,
                       found[1].lineno, "rider")

    # -- handler edges -----------------------------------------------------

    def _note_registration(self, site: Site, module: str, where: str,
                           owner: Optional[ClassInfo]) -> None:
        if site.value is not None:
            handler, handler_method = self._handler_label(site.value, owner)
        else:  # a queue subscription: the queue's deposit is the handler
            handler, handler_method = "ReceiveQueue.deposit", None
        tag, class_name, pattern = self._tag_of(site.key, module)
        if tag is None and pattern is None and class_name is None:
            return  # not a recognizable registration shape
        self.graph.handlers.append(HandlerEdge(
            tag, class_name, handler, handler_method,
            where, owner.qualname if owner is not None else None,
            module, site.call.lineno, site.op, pattern))

    def _tag_of(self, expr: Optional[ast.expr], module: str
                ) -> Tuple[Optional[str], Optional[str], Optional[str]]:
        """(tag, class name, f-string pattern) of a registration's
        type argument."""
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            record = self.graph.messages.get(expr.value)
            return expr.value, \
                record.class_name if record is not None else None, None
        if isinstance(expr, ast.Attribute) and \
                isinstance(expr.value, ast.Name) and expr.attr == "type":
            record = self._message_record(module, expr.value.id)
            if record is not None:
                return record.tag, record.class_name, None
            return None, expr.value.id, None
        if isinstance(expr, ast.JoinedStr):
            parts: List[str] = []
            for value in expr.values:
                if isinstance(value, ast.Constant):
                    parts.append(str(value.value))
                else:
                    parts.append("{*}")
            return None, None, "".join(parts)
        return None, None, None

    @staticmethod
    def _handler_label(expr: ast.expr, owner: Optional[ClassInfo]
                       ) -> Tuple[str, Optional[str]]:
        if isinstance(expr, ast.Attribute):
            path = attr_path(expr)
            if path[:1] == ("self",) and len(path) == 2 and \
                    owner is not None:
                return f"{owner.name}.{path[1]}", path[1]
            return ".".join(path) if path else "<handler>", None
        if isinstance(expr, ast.Name):
            return expr.id, None
        return "<handler>", None

    # -- command edges (kind-string dispatch) ------------------------------

    def _note_command(self, call: ast.Call, module: str,
                      where: str) -> None:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        if name == "reconfig_payload" and call.args:
            op_arg = call.args[0]
            op = op_arg.value if isinstance(op_arg, ast.Constant) and \
                isinstance(op_arg.value, str) else "*"
            self.graph.commands.setdefault(
                op, {"producers": [], "consumers": []})["producers"].append(
                _Location(where, module, call.lineno))
        elif name == "parse_reconfig":
            self.graph.commands.setdefault(
                "*", {"producers": [], "consumers": []})["consumers"].append(
                _Location(where, module, call.lineno))

    def _finish_commands(self) -> None:
        """Spread wildcard producers/consumers over the op universe."""
        ops: List[str] = []
        for module in sorted(self.table.modules):
            tree = self.table.modules[module].tree
            for stmt in tree.body:
                if isinstance(stmt, ast.Assign) and \
                        len(stmt.targets) == 1 and \
                        isinstance(stmt.targets[0], ast.Name) and \
                        stmt.targets[0].id == "RECONFIG_OPS" and \
                        isinstance(stmt.value, ast.Tuple):
                    ops = [elt.value for elt in stmt.value.elts
                           if isinstance(elt, ast.Constant) and
                           isinstance(elt.value, str)]
        if not ops:
            ops = sorted(op for op in self.graph.commands if op != "*")
        wildcard = self.graph.commands.pop("*", None)
        if wildcard is None:
            return
        for op in ops:
            entry = self.graph.commands.setdefault(
                op, {"producers": [], "consumers": []})
            entry["producers"].extend(wildcard["producers"])
            entry["consumers"].extend(wildcard["consumers"])
        if not ops:
            self.graph.commands["*"] = wildcard


def build_msgflow(project) -> MessageFlowGraph:
    """Build (or fetch the cached) graph for a ProjectContext."""
    cached = project.analysis_cache.get(_CACHE_KEY)
    if isinstance(cached, MessageFlowGraph):
        return cached
    graph = _Builder(project).build()
    project.analysis_cache[_CACHE_KEY] = graph
    return graph


def build_msgflow_for_paths(paths) -> MessageFlowGraph:
    """Standalone build over files/directories (the ``--emit-msgflow``
    path: no rules run, just the graph)."""
    from repro.analysis.engine import ProjectContext, parse_paths
    return build_msgflow(ProjectContext(parse_paths(paths)))


def render_msgflow(graph: MessageFlowGraph, out_path: str) -> str:
    """The artifact text for ``out_path`` (``.dot`` → Graphviz, else
    JSON)."""
    if out_path.endswith(".dot"):
        return graph.to_dot()
    return graph.to_json()


def write_msgflow(paths, out_path: str) -> MessageFlowGraph:
    """Build the graph for ``paths`` and write it to ``out_path``."""
    graph = build_msgflow_for_paths(paths)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(render_msgflow(graph, out_path))
    return graph
