"""Crash-recovery write-ahead-logging rules (WAL family).

The paper's central logging discipline (Sections 5.1–5.3): state a
message *depends on* must reach stable storage before the message is
sent, otherwise a crash between the send and the (never-happening) log
leaves the cluster having observed state the sender no longer holds on
recovery.

Protocol classes opt in by declaring the volatile mirrors of their
durable state in a ``VOLATILE_FIELDS`` class attribute — see
:data:`repro.analysis.symbols.VOLATILE_DECLARATION` and the catalogue in
docs/ANALYSIS.md for the convention; the analyzer reads the declarations
straight from each class (and, interprocedurally, from its whole MRO),
so there is no second copy of any field list to drift out of date.

**WAL003** is the log-before-send rule.  Per method it runs a worklist
fixpoint over the CFG (branches, loops and try/finally are graph
reachability, not ad-hoc walking), and it is interprocedural: helper
calls resolve through the project call graph (``self.helper()`` through
the concrete class's MRO, ``self.attr.m()`` through ``__init__``
annotations) and each callee is summarized — which fields it leaves
dirty, whether it always writes a barrier, whether it can send before
one.  A spawned generator (``node.spawn(self._gossip_task(), ...)``)
counts as a send if the task can send before a barrier: the task body
runs with whatever dirt the spawner left behind.  Mutations whose value
derives from stable storage (``retrieve``/``_load`` reads, values just
passed to a log call) are *clean* — refilling a volatile cache from the
log is recovery, not new state.  An unresolvable call is opaque (no
effects), apart from the declared ``self._store``/``self.take_checkpoint``
barrier helpers.

What counts as a storage write and as a transport send is
:func:`repro.analysis.sites.classify`'s definition, shared with every
other rule family.  **WAL002** narrows it: a send whose receiver does
not end in the node's endpoint bypasses the stubborn-channel layer.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import CFGNode, build_cfg, stmt_roots
from repro.analysis.dataflow import ForwardProblem, solve_forward
from repro.analysis.engine import Finding, ModuleContext, ProjectContext
from repro.analysis.registry import PROTOCOL_SCOPE, Rule
from repro.analysis.sites import classify, reads_logged_state, sites_in
from repro.analysis.symbols import (VOLATILE_DECLARATION, ClassInfo,
                                    attr_path)

__all__ = ["WAL_RULES", "VOLATILE_DECLARATION"]

_MUTATORS = frozenset({"append", "add", "update", "pop", "popitem", "clear",
                       "remove", "discard", "extend", "insert",
                       "setdefault", "sort"})

#: Pure shape/coercion builtins: clean in, clean out.
_CLEAN_BUILTINS = frozenset({"int", "float", "str", "bool", "tuple", "list",
                             "dict", "set", "frozenset", "len", "min", "max",
                             "sorted", "abs"})

_OPAQUE_STMTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Pseudo-field standing for "dirt inherited from the caller" in
#: summary-mode dataflow runs.
_INHERITED = "<inherited>"


def _self_field(node: ast.AST) -> str:
    """``self.f`` or ``self.f[...]`` -> ``"f"`` (else ``""``)."""
    if isinstance(node, ast.Subscript):
        node = node.value
    path = attr_path(node)
    if len(path) == 2 and path[0] == "self":
        return path[1]
    return ""


def _position(node: ast.AST) -> Tuple[int, int]:
    return (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))


class _Event:
    """One ordered action inside a statement."""

    __slots__ = ("kind", "field", "names", "value", "node")

    def __init__(self, kind: str, node: ast.AST, field: str = "",
                 names: Tuple[str, ...] = (),
                 value: Optional[ast.AST] = None):
        self.kind = kind      # mutate | bind | barrier | send | call
        self.field = field
        self.names = names
        self.value = value
        self.node = node

    def position(self) -> Tuple[int, int]:
        return _position(self.node)


def _call_events(root: ast.AST) -> List[_Event]:
    """Barrier/send/mutate/call events for every call under ``root``."""
    events: List[_Event] = []
    for node in ast.walk(root):
        if not isinstance(node, ast.Call):
            continue
        site = classify(node)
        path = attr_path(node.func)
        if site is not None and site.is_barrier:
            events.append(_Event("barrier", node))
        elif site is not None and site.kind == "send":
            events.append(_Event("send", node))
        elif len(path) == 3 and path[0] == "self" and path[2] in _MUTATORS:
            events.append(_Event("mutate", node, field=path[1]))
        else:
            events.append(_Event("call", node))
    return events


def _assignment_events(stmt: ast.stmt) -> List[_Event]:
    """Mutate (self-field) and bind (local name) events of one statement."""
    events: List[_Event] = []
    if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        if isinstance(stmt, ast.Assign):
            targets: Sequence[ast.expr] = stmt.targets
            value: Optional[ast.AST] = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        else:  # AugAssign: the new value depends on the old — never clean
            targets, value = [stmt.target], None
        for target in targets:
            elts = target.elts if isinstance(target, (ast.Tuple, ast.List)) \
                else [target]
            for elt in elts:
                field = _self_field(elt)
                if field:
                    events.append(_Event("mutate", elt, field=field,
                                         value=value))
                elif isinstance(elt, ast.Name):
                    events.append(_Event("bind", elt, names=(elt.id,),
                                         value=value))
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            field = _self_field(target)
            if field:
                events.append(_Event("mutate", target, field=field))
    return events


def _node_events(cfg_node: CFGNode) -> List[_Event]:
    """Source-ordered events of one CFG node (empty for opaque nodes)."""
    stmt = cfg_node.stmt
    if stmt is None or isinstance(stmt, _OPAQUE_STMTS):
        return []
    # A compound header owns only its test/iterable: the body statements
    # are separate CFG nodes.
    events = _assignment_events(stmt)
    for root in stmt_roots(stmt):
        events.extend(_call_events(root))
    events.sort(key=_Event.position)
    return events


def _dirty_description(dirty: frozenset) -> str:
    """``'f' (mutated line N)`` per field, earliest mutation first."""
    earliest: Dict[str, int] = {}
    for field, line in dirty:
        if field == _INHERITED:
            continue
        if field not in earliest or line < earliest[field]:
            earliest[field] = line
    return ", ".join(f"{name!r} (mutated line {line})"
                     for name, line in sorted(earliest.items()))


# -- WAL003: log before send -------------------------------------------------

def _is_clean(expr: Optional[ast.AST], clean: frozenset) -> bool:
    """True if ``expr``'s value cannot carry unlogged volatile state.

    Clean sources: constants, names proven clean on this path, reads of
    ``self`` attributes, stable-storage reads (``retrieve``/``_load``),
    and pure coercions/containers of clean values.  Arithmetic
    (``retrieve(...) + 1``) is *not* clean — the result differs from
    anything on disk.
    """
    if expr is None:
        return False
    if isinstance(expr, ast.Constant):
        return True
    if isinstance(expr, ast.Name):
        return expr.id in clean
    if isinstance(expr, ast.Attribute):
        path = attr_path(expr)
        return bool(path) and path[0] == "self"
    if isinstance(expr, ast.Subscript):
        return _is_clean(expr.value, clean)
    if isinstance(expr, ast.Starred):
        return _is_clean(expr.value, clean)
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        return all(_is_clean(elt, clean) for elt in expr.elts)
    if isinstance(expr, ast.Dict):
        return all(_is_clean(key, clean) for key in expr.keys
                   if key is not None) and \
            all(_is_clean(value, clean) for value in expr.values)
    if isinstance(expr, ast.IfExp):
        return _is_clean(expr.body, clean) and _is_clean(expr.orelse, clean)
    if reads_logged_state(expr):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
            and expr.func.id in _CLEAN_BUILTINS:
        return all(_is_clean(arg, clean) for arg in expr.args)
    return False


class _Summary:
    """Effect summary of one (concrete class, method) pair."""

    __slots__ = ("exit_dirty", "must_barrier", "sends_before_barrier")

    def __init__(self, exit_dirty: frozenset, must_barrier: bool,
                 sends_before_barrier: bool):
        #: Declared fields possibly left dirty when the callee returns.
        self.exit_dirty = exit_dirty
        #: True if every path through the callee writes a barrier.
        self.must_barrier = must_barrier
        #: True if a send is reachable while caller-inherited dirt is
        #: still unlogged.
        self.sends_before_barrier = sends_before_barrier


_NEUTRAL = _Summary(frozenset(), False, False)


class _FunctionRun:
    """Per-function analysis context (one concrete class, one method)."""

    __slots__ = ("name", "module", "concrete", "defining", "fields", "mode",
                 "sends_before", "emit")

    def __init__(self, name: str, module: str,
                 concrete: Optional[ClassInfo],
                 defining: Optional[ClassInfo], fields: frozenset,
                 mode: str, emit=None):
        self.name = name
        self.module = module
        self.concrete = concrete
        self.defining = defining
        self.fields = fields
        self.mode = mode
        self.sends_before = False
        self.emit = emit


class _WalProblem(ForwardProblem):
    """State: (dirty frozenset of (field, line), clean frozenset of names)."""

    def __init__(self, analysis: "_InterProc", run: _FunctionRun,
                 events: Dict[int, List[_Event]]):
        self.analysis = analysis
        self.run = run
        self.events = events

    def initial(self):
        dirty = frozenset({(_INHERITED, 0)}) \
            if self.run.mode == "summary" else frozenset()
        return (dirty, frozenset())

    def join(self, left, right):
        return (left[0] | right[0], left[1] & right[1])

    def transfer(self, node: CFGNode, state):
        return self.analysis.walk(self.events.get(node.index, ()),
                                  state, self.run, emit=False)


class _InterProc:
    """Summary-based interprocedural persist-before-send analysis."""

    def __init__(self, project: ProjectContext):
        self.project = project
        self.symbols = project.symbols
        self.resolver = project.resolver
        self.summaries: Dict[tuple, _Summary] = {}
        self.in_progress: Set[tuple] = set()
        self.resolution_cache: Dict[tuple, list] = {}

    # -- call resolution ---------------------------------------------------

    def resolve(self, call: ast.Call, run: _FunctionRun) -> list:
        key = (id(call),
               run.concrete.qualname if run.concrete else "",
               run.defining.qualname if run.defining else "")
        cached = self.resolution_cache.get(key)
        if cached is None:
            cached = self.resolver.resolve(call, run.module, run.concrete,
                                           run.defining)
            self.resolution_cache[key] = cached
        return cached

    # -- summaries ---------------------------------------------------------

    def summary_of(self, resolved) -> _Summary:
        key = resolved.key()
        cached = self.summaries.get(key)
        if cached is not None:
            return cached
        if key in self.in_progress:
            return _NEUTRAL  # recursion: assume nothing
        self.in_progress.add(key)
        try:
            summary = self._compute_summary(resolved)
        finally:
            self.in_progress.discard(key)
        self.summaries[key] = summary
        return summary

    def _compute_summary(self, resolved) -> _Summary:
        concrete = resolved.concrete
        defining = resolved.defining
        module = defining.module if defining is not None else \
            (concrete.module if concrete is not None else "")
        if not module:
            # A module-level function: find its home for import context.
            for name, symbols in self.symbols.modules.items():
                if resolved.func in symbols.functions.values():
                    module = name
                    break
        fields = frozenset(self.symbols.volatile_fields(concrete.qualname)) \
            if concrete is not None else frozenset()
        run = _FunctionRun(getattr(resolved.func, "name", "?"), module,
                           concrete, defining, fields, "summary")
        states, cfg = self._solve(resolved.func, run)
        exit_state = states.get(cfg.exit.index)
        if exit_state is None:
            # The function never returns (while True service loop):
            # nothing flows back to the caller.
            return _Summary(frozenset(), True, run.sends_before)
        dirty_fields = {field for field, _ in exit_state[0]}
        return _Summary(
            frozenset(dirty_fields - {_INHERITED}),
            _INHERITED not in dirty_fields,
            run.sends_before)

    # -- the core walk -----------------------------------------------------

    def _solve(self, func: ast.AST, run: _FunctionRun):
        cfg = build_cfg(func)
        events = {node.index: _node_events(node) for node in cfg.nodes}
        problem = _WalProblem(self, run, events)
        states = solve_forward(cfg, problem)
        if run.emit is not None:
            for node in cfg.nodes:
                if node.index in states:
                    self.walk(events[node.index], states[node.index], run,
                              emit=True)
        return states, cfg

    def analyze_root(self, module: str, concrete: ClassInfo,
                     defining: ClassInfo, func: ast.AST, emit) -> None:
        fields = frozenset(self.symbols.volatile_fields(concrete.qualname))
        run = _FunctionRun(getattr(func, "name", "?"), module, concrete,
                           defining, fields, "root", emit=emit)
        self._solve(func, run)

    def walk(self, events: Sequence[_Event], state, run: _FunctionRun,
             emit: bool):
        dirty, clean = state
        for event in events:
            if event.kind == "mutate":
                if event.field in run.fields and \
                        not _is_clean(event.value, clean):
                    dirty = dirty | {(event.field, event.position()[0])}
            elif event.kind == "bind":
                if _is_clean(event.value, clean):
                    clean = clean | frozenset(event.names)
                else:
                    clean = clean - frozenset(event.names)
            elif event.kind == "barrier":
                dirty = frozenset()
                logged = frozenset(
                    arg.id for arg in event.node.args
                    if isinstance(arg, ast.Name))
                clean = clean | logged
            elif event.kind == "send":
                self._note_send(event, dirty, run, emit, callee=None)
            elif event.kind == "call":
                dirty, clean = self._apply_call(event, dirty, clean, run,
                                                emit)
        return (dirty, clean)

    def _apply_call(self, event: _Event, dirty, clean, run: _FunctionRun,
                    emit: bool):
        targets = self.resolve(event.node, run)
        if not targets:
            return dirty, clean  # opaque: unknown code, assume no effects
        summaries = [self.summary_of(target) for target in targets]
        if dirty and any(s.sends_before_barrier for s in summaries):
            sender = next(target for target, s in zip(targets, summaries)
                          if s.sends_before_barrier)
            self._note_send(event, dirty, run, emit, callee=sender)
        if all(s.must_barrier for s in summaries):
            dirty = frozenset()
        line = event.position()[0]
        for target, summary in zip(targets, summaries):
            if target.receiver == "self":
                dirty = dirty | {(field, line)
                                 for field in summary.exit_dirty}
        return dirty, clean

    def _note_send(self, event: _Event, dirty, run: _FunctionRun,
                   emit: bool, callee) -> None:
        if not dirty:
            return
        if run.mode == "summary":
            if any(field == _INHERITED for field, _ in dirty):
                run.sends_before = True
            return
        if not emit or run.emit is None:
            return
        description = _dirty_description(dirty)
        if not description:
            return
        owner = run.defining.name if run.defining else "<module>"
        where = f"{owner}.{run.name}"
        if run.concrete is not None and run.concrete.name != owner:
            where += f" (analyzed as {run.concrete.name})"
        if callee is None:
            message = (f"{where}: transport send reachable with volatile "
                       f"field(s) {description} unlogged on some path")
        else:
            message = (f"{where}: call to {callee.name}() can send before "
                       f"any stable-storage write while volatile field(s) "
                       f"{description} are dirty")
        run.emit(run, event.node, message)


class InterprocWalRule(Rule):
    """WAL003: flow-sensitive log-before-send, across helpers."""

    id = "WAL003"
    name = "persist-before-send"
    summary = ("on some path, a volatile-field mutation reaches a "
               "transport send (possibly through helpers or a spawned "
               "task) with no stable-storage write in between")
    rationale = ("Sections 5.1–5.3: a process must never send a message "
                 "that depends on state it could forget across a crash "
                 "(an acceptor that answers before logging its promise "
                 "can un-promise on recovery).  Figures 2/3 log *then* "
                 "broadcast, and a helper boundary does not change the "
                 "crash window.  Resolving calls "
                 "through the concrete class's MRO is what lets the rule "
                 "see that on_start's spawned gossip task advertises the "
                 "incarnation counter, so the counter must be logged "
                 "before the spawn.")
    scope = ("repro.core", "repro.consensus", "repro.membership")
    requires_project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        interproc = _InterProc(project)
        findings: Dict[Tuple[str, int, int], Finding] = {}

        def emit(run: _FunctionRun, node: ast.AST, message: str) -> None:
            anchor_module = run.defining.module if run.defining else \
                run.module
            finding = project.finding(self.id, anchor_module, node, message)
            if finding is not None:
                findings.setdefault(
                    (finding.path, finding.line, finding.col), finding)

        for _, class_info in project.classes_in_scope(self):
            if not project.symbols.volatile_fields(class_info.qualname):
                continue
            methods: Dict[str, Tuple[ClassInfo, ast.AST]] = {}
            for ancestor in project.symbols.mro(class_info.qualname):
                for name, func in ancestor.methods.items():
                    methods.setdefault(name, (ancestor, func))
            for name in sorted(methods):
                owner, func = methods[name]
                interproc.analyze_root(owner.module, class_info, owner,
                                       func, emit)
        for key in sorted(findings):
            yield findings[key]


class DirectTransportSendRule(Rule):
    """WAL002: protocol code must send through its Endpoint component."""

    id = "WAL002"
    name = "no-raw-transport-send"
    summary = ("a protocol module calls send/multisend directly on a "
               "transport medium instead of going through its Endpoint")
    rationale = ("The endpoint sits above whatever TransportMedium the "
                 "harness wired in — in particular the stubborn channel "
                 "layer that turns the paper's fair-lossy links into "
                 "reliable ones via ack/retransmit.  A protocol that grabs "
                 "the raw medium (node.network.send(...)) silently opts "
                 "out of retransmission, so one dropped datagram becomes "
                 "a protocol-level message loss the verifier cannot "
                 "explain.")
    scope = PROTOCOL_SCOPE

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for site in sites_in(ctx.tree):
            # Narrower than the shared notion of a send: one that ends
            # in the node's endpoint is the sanctioned path.
            if site.kind != "send" or "endpoint" in site.receiver[-1]:
                continue
            path = ".".join(site.receiver + (site.op,))
            yield ctx.finding(
                self.id, site.call,
                f"direct {path}(...) bypasses the endpoint (and any "
                f"stubborn-channel layer beneath it); send through the "
                f"node's Endpoint component instead")


WAL_RULES = (DirectTransportSendRule(), InterprocWalRule())
