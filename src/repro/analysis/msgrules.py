"""Message-flow conformance rules (MSG family).

Built on the whole-program graph of :mod:`repro.analysis.msgflow`.  The
paper's protocols are *defined* by which message types flow between
which handlers (Section 3.1); these rules make the two refactor
accidents that break that contract machine-checked:

* **MSG001 — dead-letter type.**  A message class is constructed and
  shipped through the transport, but no handler is ever registered for
  its tag: every copy arrives and is dropped on the floor.
* **MSG002 — dead handler.**  A handler is registered for a tag that no
  code ever sends or even constructs: the handler is unreachable, which
  usually means a refactor moved the send and stranded the receive.
* **MSG003 — payload-field mismatch.**  A statically-resolved handler
  reads an attribute of its message parameter that no constructor site
  populates (not an ``__init__`` parameter/assignment, class attribute,
  declared wire field, or method) — an ``AttributeError`` waiting for
  the first delivery.

All three skip dynamic-tag classes (``ScopedMessage``) and f-string
registrations (the scoped endpoint): a dynamically-computed tag cannot
be matched statically, so flagging it would be noise.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis.engine import Finding, ProjectContext
from repro.analysis.msgflow import MessageType, build_msgflow
from repro.analysis.registry import PROTOCOL_SCOPE, Rule
from repro.analysis.sites import message_param
from repro.analysis.symbols import param_names

__all__ = ["MSG_RULES", "DeadLetterTypeRule", "DeadHandlerRule",
           "PayloadFieldMismatchRule"]

_MSG_SCOPE = PROTOCOL_SCOPE + ("repro.harness", "repro.transport")


class DeadLetterTypeRule(Rule):
    """MSG001: every shipped message type must have a handler."""

    id = "MSG001"
    name = "dead-letter-message-type"
    summary = ("a message type is sent through the transport but no "
               "handler is ever registered for its tag")
    rationale = ("Section 3.1's reception is handler-based: a tag "
                 "nobody registers for is silently dropped on every "
                 "delivery — usually a refactor that moved the "
                 "receive and stranded the send.")
    scope = _MSG_SCOPE
    requires_project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = build_msgflow(project)
        handled = graph.handled_tags()
        sent = graph.sent_tags()
        for tag, record in sorted(graph.messages.items()):
            if tag in handled or tag not in sent:
                continue
            if not self.applies_to(record.module):
                continue
            info = project.symbols.classes.get(record.qualname)
            if info is None:
                continue
            senders = sorted({edge.sender
                              for edge in graph.senders_for(tag)})
            finding = project.finding(
                self.id, record.module, info.node,
                f"message type {tag!r} ({record.class_name}) is sent by "
                f"{', '.join(senders)} but no handler is ever "
                f"registered for it: every delivery is dropped; "
                f"register a handler or delete the send path")
            if finding is not None:
                yield finding


class DeadHandlerRule(Rule):
    """MSG002: every registered tag must have a send (or construction)."""

    id = "MSG002"
    name = "dead-handler"
    summary = ("a handler is registered for a message tag that no code "
               "ever sends or constructs")
    rationale = ("An unreachable handler is a stranded receive path: "
                 "the protocol it belonged to moved on, and the "
                 "registration now documents flow that does not "
                 "exist.")
    scope = _MSG_SCOPE
    requires_project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = build_msgflow(project)
        alive = graph.sent_tags() | graph.constructed_tags()
        emitted: Set[tuple] = set()
        for edge in graph.handlers:
            if edge.tag is None or edge.tag in alive:
                continue
            if not self.applies_to(edge.module):
                continue
            key = (edge.module, edge.line, edge.tag)
            if key in emitted:
                continue
            emitted.add(key)
            ctx = project.by_module.get(edge.module)
            if ctx is None:
                continue
            yield Finding(
                self.id, ctx.path, edge.line, 0,
                f"handler {edge.handler} is registered for tag "
                f"{edge.tag!r} but nothing ever sends or constructs a "
                f"message of that type: the receive path is dead; "
                f"remove the registration or restore the send")


def _valid_payload_attrs(project: ProjectContext,
                         record: MessageType) -> Optional[Set[str]]:
    """Attribute names a handler may legitimately read off ``record``.

    Union over the MRO of: ``__init__`` parameters and ``self.<attr>``
    assignments, class-body names (``type``, ``fields``, constants),
    declared wire ``fields``, and method names.  ``None`` when no
    analyzed ``__init__`` exists anywhere — then the attribute surface
    is unknown and the rule stays silent (conservative).
    """
    table = project.symbols
    order = table.mro(record.qualname)
    if not order:
        info = table.classes.get(record.qualname)
        order = (info,) if info is not None else ()
    valid: Set[str] = set(record.fields) | {"type", "fields"}
    saw_init = False
    for info in order:
        valid.update(info.methods)
        valid.update(info.constants)
        for stmt in info.node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        valid.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                valid.add(stmt.target.id)
        init = info.methods.get("__init__")
        if init is None:
            continue
        saw_init = True
        valid.update(param_names(init, kwonly=True))
        for node in ast.walk(init):
            target: Optional[ast.AST] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                target = node.target
            if isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name) and \
                    target.value.id == "self":
                valid.add(target.attr)
    if not saw_init:
        return None
    return valid


class PayloadFieldMismatchRule(Rule):
    """MSG003: handlers may only read attributes the class populates."""

    id = "MSG003"
    name = "payload-field-mismatch"
    summary = ("a handler reads a message attribute that no constructor "
               "site populates")
    rationale = ("A payload field that exists only in the handler's "
                 "imagination raises AttributeError on the first real "
                 "delivery — after the happy-path tests that never "
                 "exercised that handler branch have passed.")
    scope = _MSG_SCOPE
    requires_project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = build_msgflow(project)
        emitted: Set[tuple] = set()
        for edge in graph.handlers:
            if edge.tag is None or edge.handler_method is None or \
                    edge.registrar_qualname is None:
                continue
            record = graph.messages.get(edge.tag)
            if record is None or not self.applies_to(edge.module):
                continue
            found = project.symbols.find_method(edge.registrar_qualname,
                                                edge.handler_method)
            if found is None:
                continue
            owner, handler = found
            valid = _valid_payload_attrs(project, record)
            if valid is None:
                continue
            msg_param = message_param(handler)
            if msg_param is None:
                continue
            for node in ast.walk(handler):
                if not (isinstance(node, ast.Attribute) and
                        isinstance(node.value, ast.Name) and
                        node.value.id == msg_param):
                    continue
                if node.attr in valid:
                    continue
                key = (owner.module, node.lineno, node.col_offset,
                       node.attr)
                if key in emitted:
                    continue
                emitted.add(key)
                finding = project.finding(
                    self.id, owner.module, node,
                    f"handler {edge.handler} reads .{node.attr} of a "
                    f"{record.class_name} ({edge.tag!r}) but no "
                    f"constructor site populates that attribute: this "
                    f"raises AttributeError on delivery")
                if finding is not None:
                    yield finding


MSG_RULES = (DeadLetterTypeRule(), DeadHandlerRule(),
             PayloadFieldMismatchRule())
