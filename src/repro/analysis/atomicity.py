"""Yield-point atomicity rules (ATM family).

The DES kernel (and LiveRuntime) interleave tasks only at scheduling
boundaries — ``yield``/``await`` and their async-header spellings.  The
paper's protocol steps are written assuming each handler/step is atomic
between boundaries; these rules flag code where that assumption is
silently load-bearing:

* **ATM001 — interrupted read-modify-write.**  A local is derived from
  ``self.<field>``, a scheduling boundary intervenes, and the *same*
  field is then written from the stale local.  Another task can update
  the field inside the window and its update is lost.  The check is
  flow-sensitive (a forward dataflow over the per-function CFG tracks
  which locals are live-across-boundary, per source field) and follows
  one level of helper calls through the call graph's field-write
  summaries (``self._note(stale)`` where ``_note`` stores its parameter
  into the field).
* **ATM002 — boundary inside a write barrier.**  A ``with
  ...write_barrier():`` section contains a ``yield``/``await``.  The
  barrier exists to make a batch of storage writes atomic; yielding
  mid-section lets other tasks — and the chaos engine's crash points —
  observe the half-written batch.

Both rules treat every boundary kind the same (``yield``, ``await``,
``asyncio.gather``, ``async for``/``async with`` headers): they are all
points where the scheduler may run somebody else.
"""

from __future__ import annotations

import ast
from typing import (Dict, FrozenSet, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.analysis.cfg import (CFGNode, build_cfg, scoped_walk,
                                stmt_roots)
from repro.analysis.callgraph import value_sources
from repro.analysis.dataflow import SetUnionProblem, solve_forward
from repro.analysis.engine import Finding, ModuleContext, ProjectContext
from repro.analysis.registry import PROTOCOL_SCOPE, Rule
from repro.analysis.sites import opens_write_barrier
from repro.analysis.symbols import ClassInfo, attr_path, self_field

__all__ = ["ATOMICITY_RULES", "AwaitHoldingBarrierRule",
           "InterruptedReadModifyWriteRule"]

_CONCURRENT_SCOPE = PROTOCOL_SCOPE + ("repro.transport",)

#: Methods that mutate a builtin container in place.
_MUTATORS = frozenset({
    "append", "add", "update", "extend", "insert", "setdefault", "pop",
    "popleft", "appendleft", "remove", "discard", "clear",
})

# -- shared AST helpers -------------------------------------------------------


def _written_field(target: ast.AST) -> Optional[str]:
    """The self-field a store target writes (``self.f``, ``self.f[k]``)."""
    field = self_field(target)
    if field is not None:
        return field
    if isinstance(target, ast.Subscript):
        return self_field(target.value)
    return None


def _load_names(expr: Optional[ast.AST]) -> FrozenSet[str]:
    """Every Name loaded anywhere under ``expr`` (broad, unlike the
    value-preserving derivation of :func:`value_sources`): on the write
    side, a stale local reaching the new value *through* an opaque call
    still makes the write depend on the stale read."""
    if expr is None:
        return frozenset()
    return frozenset(node.id for node in ast.walk(expr)
                     if isinstance(node, ast.Name))


# -- ATM001 -------------------------------------------------------------------

# One dataflow fact: local ``name`` holds a value derived from
# ``self.field``, read on ``line``; ``crossed`` flips once a scheduling
# boundary has intervened since the read.
_Entry = Tuple[str, str, int, bool]


class _Event:
    """One thing a statement does, in evaluation order."""

    __slots__ = ("kind", "name", "fields", "names", "node", "call")

    def __init__(self, kind: str, name: str = "",
                 fields: FrozenSet[str] = frozenset(),
                 names: FrozenSet[str] = frozenset(),
                 node: Optional[ast.AST] = None,
                 call: Optional[ast.Call] = None):
        self.kind = kind      # "bind" | "write" | "call"
        self.name = name      # bind: the local bound
        self.fields = fields  # bind: source fields; write: {written field}
        self.names = names    # write: names the new value depends on
        self.node = node
        self.call = call


def _bind_events(targets: Sequence[ast.AST],
                 value: Optional[ast.AST],
                 stmt: ast.AST) -> List[_Event]:
    events: List[_Event] = []
    for target in targets:
        if isinstance(target, ast.Name):
            _, fields = value_sources(value)
            events.append(_Event("bind", name=target.id, fields=fields,
                                 node=stmt))
        elif isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) \
                and len(target.elts) == len(value.elts):
            for elt, sub in zip(target.elts, value.elts):
                events.extend(_bind_events([elt], sub, stmt))
        elif isinstance(target, ast.Tuple):
            for elt in target.elts:
                events.extend(_bind_events([elt], value, stmt))
    return events


def _node_events(stmt: ast.AST) -> List[_Event]:
    """Events of one CFG node's statement, in evaluation order.

    Only the statement's *own* roots are scanned (a compound header owns
    its test/iterable, not its body — body statements are separate CFG
    nodes with their own events).
    """
    events: List[_Event] = []
    roots = stmt_roots(stmt)
    # Helper calls anywhere in the statement run before the store.
    for root in roots:
        for node in scoped_walk(root):
            if isinstance(node, ast.Call) and \
                    attr_path(node.func)[:1] == ("self",) and \
                    len(attr_path(node.func)) == 2:
                events.append(_Event("call", call=node))
    if isinstance(stmt, ast.Assign):
        write_targets = [t for t in stmt.targets
                         if _written_field(t) is not None]
        for target in write_targets:
            field = _written_field(target)
            assert field is not None
            events.append(_Event("write", fields=frozenset({field}),
                                 names=_load_names(stmt.value), node=stmt))
        events.extend(_bind_events(
            [t for t in stmt.targets if t not in write_targets],
            stmt.value, stmt))
    elif isinstance(stmt, ast.AnnAssign):
        field = _written_field(stmt.target)
        if field is not None:
            events.append(_Event("write", fields=frozenset({field}),
                                 names=_load_names(stmt.value), node=stmt))
        elif isinstance(stmt.target, ast.Name) and stmt.value is not None:
            events.extend(_bind_events([stmt.target], stmt.value, stmt))
    elif isinstance(stmt, ast.AugAssign):
        field = _written_field(stmt.target)
        if field is not None:
            events.append(_Event("write", fields=frozenset({field}),
                                 names=_load_names(stmt.value), node=stmt))
    else:
        # In-place mutation of a field container: self.f.append(x).
        for root in roots:
            for node in scoped_walk(root):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr in _MUTATORS:
                    field = self_field(node.func.value)
                    if field is not None:
                        names = frozenset().union(
                            *(_load_names(arg) for arg in node.args)) \
                            if node.args else frozenset()
                        events.append(_Event("write",
                                             fields=frozenset({field}),
                                             names=names, node=node))
    return events


class _Atm001Problem(SetUnionProblem):
    """State: frozenset of :data:`_Entry` facts."""

    def __init__(self, events: Dict[int, List[_Event]]):
        self.events = events

    def transfer(self, node: CFGNode, state):
        if node.is_boundary:
            state = frozenset((name, field, line, True)
                              for name, field, line, _ in state)
        for event in self.events.get(node.index, ()):
            if event.kind != "bind":
                continue
            state = frozenset(entry for entry in state
                              if entry[0] != event.name)
            line = getattr(event.node, "lineno", 0)
            state = state | {(event.name, field, line, False)
                             for field in event.fields}
        return state


class InterruptedReadModifyWriteRule(Rule):
    """ATM001: no yield between a field read and its dependent write."""

    id = "ATM001"
    name = "interrupted-read-modify-write"
    summary = ("a self-field is written from a local that was read from "
               "the same field before a scheduling boundary")
    rationale = ("The paper's steps are atomic between yields; a "
                 "read-modify-write spanning a boundary lets a "
                 "concurrent task's update to the field be silently "
                 "overwritten with stale state.")
    scope = _CONCURRENT_SCOPE
    requires_project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx, info in project.classes_in_scope(self):
            for func in info.methods.values():
                yield from self._check_method(project, ctx, info, func)

    def _check_method(self, project: ProjectContext, ctx: ModuleContext,
                      info: ClassInfo, func: ast.AST) -> Iterator[Finding]:
        cfg = build_cfg(func)
        if not any(node.is_boundary for node in cfg.nodes):
            return
        events = {node.index: _node_events(node.stmt)
                  for node in cfg.nodes if node.stmt is not None}
        in_states = solve_forward(cfg, _Atm001Problem(events))
        seen: set = set()
        for node in cfg.nodes:
            if node.index not in in_states:
                continue  # unreachable
            state = in_states[node.index]
            if node.is_boundary:
                state = frozenset((name, field, line, True)
                                  for name, field, line, _ in state)
            for event in events.get(node.index, ()):
                if event.kind == "write":
                    yield from self._check_write(ctx, func, event, state,
                                                 seen)
                elif event.kind == "call":
                    yield from self._check_call(project, ctx, info, func,
                                                event, state, seen)
                elif event.kind == "bind":
                    line = getattr(event.node, "lineno", 0)
                    state = frozenset(e for e in state
                                      if e[0] != event.name)
                    state = state | {(event.name, field, line, False)
                                     for field in event.fields}

    def _check_write(self, ctx: ModuleContext, func: ast.AST,
                     event: _Event, state, seen) -> Iterator[Finding]:
        for name, field, line, crossed in sorted(state):
            if not crossed or field not in event.fields or \
                    name not in event.names:
                continue
            position = (getattr(event.node, "lineno", 0),
                        getattr(event.node, "col_offset", 0))
            if position in seen:
                continue
            seen.add(position)
            assert event.node is not None
            yield ctx.finding(
                self.id, event.node,
                f"interrupted read-modify-write of self.{field} in "
                f"{getattr(func, 'name', '?')}: {name!r} was derived "
                f"from it on line {line}, but a scheduling boundary "
                f"intervenes before this write — a concurrent task's "
                f"update to {field} would be overwritten; re-read the "
                f"field after the boundary (or write before yielding)")

    def _check_call(self, project: ProjectContext, ctx: ModuleContext,
                    info: ClassInfo, func: ast.AST, event: _Event,
                    state, seen) -> Iterator[Finding]:
        call = event.call
        assert call is not None
        resolver = project.resolver
        for target in resolver.resolve(call, info.module, info, info):
            summary = resolver.field_summary(target.func)
            pairs = list(zip(summary.params, call.args))
            pairs += [(kw.arg, kw.value) for kw in call.keywords
                      if kw.arg is not None]
            for param, arg in pairs:
                if not isinstance(arg, ast.Name) or param is None:
                    continue
                into = summary.param_fields.get(param, frozenset())
                for name, field, line, crossed in sorted(state):
                    if not crossed or name != arg.id or field not in into:
                        continue
                    position = (call.lineno, call.col_offset)
                    if position in seen:
                        continue
                    seen.add(position)
                    yield ctx.finding(
                        self.id, call,
                        f"interrupted read-modify-write of self.{field}"
                        f" via {target.name}: {name!r} was derived from "
                        f"it on line {line} and crosses a scheduling "
                        f"boundary before the helper stores it back — "
                        f"a concurrent update to {field} would be lost")


# -- ATM002 -------------------------------------------------------------------


class AwaitHoldingBarrierRule(Rule):
    """ATM002: no scheduling boundary inside a write_barrier section."""

    id = "ATM002"
    name = "boundary-inside-write-barrier"
    summary = ("a with write_barrier() section contains a scheduling "
               "boundary (yield/await)")
    rationale = ("The write barrier groups storage writes into one "
                 "atomic commit; yielding mid-section lets other tasks "
                 "and crash injection observe the half-written batch, "
                 "which is exactly what the barrier exists to prevent.")
    scope = _CONCURRENT_SCOPE + ("repro.storage", "repro.harness")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for stmt in ast.walk(ctx.tree):
            if not opens_write_barrier(stmt):
                continue
            reported: set = set()
            for body_stmt in stmt.body:
                if isinstance(body_stmt, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.ClassDef)):
                    # A function *defined* under the barrier yields
                    # when called later, not while the barrier is held.
                    continue
                for node in scoped_walk(body_stmt):
                    if isinstance(node, (ast.Yield, ast.YieldFrom,
                                         ast.Await)) and \
                            node.lineno not in reported:
                        reported.add(node.lineno)
                        yield ctx.finding(
                            self.id, node,
                            "scheduling boundary inside a "
                            "write_barrier() section: the group commit "
                            "is no longer atomic — other tasks (and "
                            "injected crashes) can observe the "
                            "half-written batch; move the yield outside "
                            "the barrier")


ATOMICITY_RULES = (InterruptedReadModifyWriteRule(),
                   AwaitHoldingBarrierRule())
