"""Resource-bounds rules (RES family).

The paper's retransmission and buffer layers may accumulate state, but
every accumulation needs a bound: Section 5's practical considerations
(and PR 8's overload work) hinge on queues that shed load instead of
growing until the process dies.  These rules make the three recurring
accidents machine-checked:

* **RES001 — unbounded growth on a receive path.**  A builtin mutable
  ``self`` container is grown (append/add/``[k] = v``/...) somewhere
  reachable from a message handler, and the class has no eviction for
  that field, no ``deque(maxlen=...)`` construction, and no reachable
  bound check (``len(self.f) >= cap`` guard or ``try_admit``-style
  admission call) on the path to the growth site.  Peer-keyed maps
  (``self.last_seen[sender] = now``) are exempt: they are bounded by
  the membership, not a counter.
* **RES002 — blocking call in async code.**  ``time.sleep`` / sync file
  I/O / ``subprocess`` inside an ``async def`` stalls the whole
  LiveRuntime event loop, turning one slow node into a gray failure of
  every component sharing the loop.
* **RES003 — durable write amplification.**  Storage writes issued in a
  loop outside a ``write_barrier()`` hit the disk once per iteration;
  the barrier exists to group-commit them (ROADMAP item 4).

RES001 is deliberately a *may* analysis on the guard side: a bound
check on any path to the growth site counts.  That under-reports, but
an unbounded-growth lint that cries wolf on every guarded queue would
be suppressed into uselessness within a PR.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.cfg import build_cfg, scoped_walk, stmt_roots
from repro.analysis.dataflow import SetUnionProblem, solve_forward
from repro.analysis.engine import Finding, ProjectContext
from repro.analysis.registry import PROTOCOL_SCOPE, Rule
from repro.analysis.sites import (classify, opens_write_barrier, reachable,
                                  registrations)
from repro.analysis.symbols import (ClassInfo, attr_path, param_names,
                                    self_field)

__all__ = ["RES_RULES", "UnboundedGrowthRule", "BlockingAsyncCallRule",
           "WriteAmplificationRule"]

_RES_SCOPE = PROTOCOL_SCOPE + ("repro.transport",)

_GROWTH_METHODS = frozenset({"append", "add", "insert", "appendleft",
                             "setdefault", "extend", "update"})
_EVICT_METHODS = frozenset({"pop", "popleft", "popitem", "remove",
                            "discard", "clear"})
#: Lifecycle resets do not bound steady-state growth: ``on_crash``
#: clearing a dict is the crash model, not an eviction policy.
_LIFECYCLE_METHODS = frozenset({"__init__", "on_start", "on_crash",
                                "_restore_volatile_state"})
#: Handler-shaped method names that root a receive path even without a
#: statically-resolved registration.
_HANDLER_NAMES = ("on_deliver", "deposit")
#: Subscript keys drawn from these parameters index by *peer* (or by
#: group): the map is bounded by the membership/group configuration,
#: not by a counter.
_PEER_PARAMS = frozenset({"sender", "peer", "src", "dst", "node_id",
                          "target", "coordinator", "origin", "group"})
#: Name fragments that mark the other side of a comparison as a bound.
_BOUND_TOKENS = ("bound", "limit", "max", "capacity", "high_water",
                 "window", "budget", "quorum", "backlog")
_ADMIT_TOKENS = ("try_admit", "admit", "queue_bound")


def _len_of_self_field(node: ast.AST) -> Optional[str]:
    """``len(self.f)`` -> ``f``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
            node.func.id == "len" and len(node.args) == 1:
        return self_field(node.args[0])
    return None


def _mentions_bound_name(node: ast.AST) -> bool:
    for current in ast.walk(node):
        name = ""
        if isinstance(current, ast.Name):
            name = current.id
        elif isinstance(current, ast.Attribute):
            name = current.attr
        if name and any(token in name.lower() for token in _BOUND_TOKENS):
            return True
    return False


def _guarded_fields(expr: ast.AST) -> Set[str]:
    """Fields a statement's expression establishes a bound fact for."""
    guarded: Set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Compare):
            sides = [node.left] + list(node.comparators)
            fields: Set[str] = set()
            for side in sides:
                field = _len_of_self_field(side)
                if field is not None:
                    fields.add(field)
            if fields:
                guarded |= fields
                continue
            # ``self.f`` compared against something bound-shaped
            # (``while self.pending and len(...) < cap`` variants).
            direct = {f for side in sides
                      for f in [self_field(side)] if f is not None}
            if direct and any(_mentions_bound_name(side)
                              for side in sides):
                guarded |= direct
        elif isinstance(node, ast.Call):
            path = attr_path(node.func)
            name = path[-1] if path else ""
            if any(token in name for token in _ADMIT_TOKENS):
                for arg in list(node.args) + \
                        [kw.value for kw in node.keywords]:
                    for sub in ast.walk(arg):
                        field = _len_of_self_field(sub) or self_field(sub)
                        if field is not None:
                            guarded.add(field)
    return guarded


class _GuardProblem(SetUnionProblem):
    """Forward may-analysis: which fields have a bound fact on some
    path reaching each node."""

    def transfer(self, node, state):
        if node.stmt is None:
            return state
        gen: Set[str] = set()
        for root in stmt_roots(node.stmt):
            if root is not None:
                gen |= _guarded_fields(root)
        return state | frozenset(gen) if gen else state


class _GrowthSite:
    __slots__ = ("field", "node", "op")

    def __init__(self, field: str, node: ast.AST, op: str):
        self.field = field
        self.node = node
        self.op = op


def _growth_sites(func: ast.AST, mutable: FrozenSet[str],
                  params: FrozenSet[str]) -> List[_GrowthSite]:
    sites: List[_GrowthSite] = []
    for node in scoped_walk(func):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _GROWTH_METHODS:
            field = self_field(node.func.value)
            if field is not None and field in mutable:
                sites.append(_GrowthSite(field, node, node.func.attr))
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Subscript):
            target = node.targets[0]
            field = self_field(target.value)
            if field is None or field not in mutable:
                continue
            key = target.slice
            if isinstance(key, ast.Name) and key.id in _PEER_PARAMS and \
                    key.id in params:
                continue  # peer-keyed: bounded by the membership
            sites.append(_GrowthSite(field, node, "subscript"))
    return sites


def _evicted_fields(table, concrete: ClassInfo) -> Set[str]:
    """Fields with an eviction op anywhere in the class's MRO (outside
    lifecycle resets)."""
    evicted: Set[str] = set()
    for info in table.mro(concrete.qualname) or (concrete,):
        for name, func in info.methods.items():
            if name in _LIFECYCLE_METHODS:
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr in _EVICT_METHODS:
                    field = self_field(node.func.value)
                    if field is not None:
                        evicted.add(field)
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        if isinstance(target, ast.Subscript):
                            field = self_field(target.value)
                            if field is not None:
                                evicted.add(field)
    return evicted


def _bounded_fields(table, concrete: ClassInfo) -> Set[str]:
    """Fields constructed as ``deque(maxlen=...)`` in any ``__init__``."""
    bounded: Set[str] = set()
    for info in table.mro(concrete.qualname) or (concrete,):
        init = info.methods.get("__init__")
        if init is None:
            continue
        for node in ast.walk(init):
            if not (isinstance(node, ast.Assign) and
                    len(node.targets) == 1):
                continue
            field = self_field(node.targets[0])
            if field is None or not isinstance(node.value, ast.Call):
                continue
            func = node.value.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else "")
            if name == "deque" and any(kw.arg == "maxlen"
                                       for kw in node.value.keywords):
                bounded.add(field)
    return bounded


class UnboundedGrowthRule(Rule):
    """RES001: every receive-path accumulation needs a bound."""

    id = "RES001"
    name = "unbounded-receive-growth"
    summary = ("a mutable self container grows on a message-handler "
               "path with no eviction, maxlen, or reachable bound "
               "check")
    rationale = ("Section 5's buffers survive overload only because "
                 "every accumulation sheds load somewhere; a handler "
                 "that grows a dict per message is the PR 8 bug class "
                 "— memory that scales with traffic, not with the "
                 "protocol's window.")
    scope = _RES_SCOPE
    requires_project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        table = project.symbols
        emitted: Set[Tuple[str, int, str]] = set()
        for ctx in project.in_scope(self):
            classes = table.modules[ctx.module].classes
            for name in sorted(classes):
                yield from self._check_class(project, classes[name], emitted)

    def _check_class(self, project: ProjectContext, concrete: ClassInfo,
                     emitted: Set[Tuple[str, int, str]]
                     ) -> Iterator[Finding]:
        table = project.symbols
        mutable = table.mutable_attrs(concrete.qualname)
        if not mutable:
            return
        roots = self._receive_roots(table, concrete)
        if not roots:
            return
        evicted = _evicted_fields(table, concrete)
        bounded = _bounded_fields(table, concrete)
        suspect = mutable - evicted - bounded
        if not suspect:
            return
        # The receive path stays on this object: a call into another
        # component grows *that* component's fields, under its own roots.
        for _, defining, func, root in reachable(
                project, [(concrete,) + found for _, found in roots],
                self_only=True):
            root_name = roots[root][0]
            params = frozenset(param_names(func, kwonly=True))
            sites = _growth_sites(func, suspect, params)
            if not sites:
                continue
            guards = self._guard_states(func)
            for site in sites:
                if site.field in guards.get(id(site.node), frozenset()):
                    continue
                key = (defining.module, site.node.lineno, site.field)
                if key in emitted:
                    continue
                emitted.add(key)
                finding = project.finding(
                    self.id, defining.module, site.node,
                    f"self.{site.field} grows "
                    f"({site.op}) on a receive path (reached from "
                    f"{concrete.name}.{root_name}) with no eviction, "
                    f"maxlen, or reachable bound check: memory scales "
                    f"with message traffic; add a queue_bound-style "
                    f"guard or an eviction")
                if finding is not None:
                    yield finding

    @staticmethod
    def _receive_roots(table, concrete: ClassInfo) -> list:
        """``(name, (defining, func))`` of every handler-shaped or
        registered method, in name order."""
        names: Set[str] = set()
        for info in table.mro(concrete.qualname) or (concrete,):
            for name in info.methods:
                if name.startswith("_on_") or name in _HANDLER_NAMES:
                    names.add(name)
            names.update(registrations(info))
        found = [(name, table.find_method(concrete.qualname, name))
                 for name in sorted(names)]
        return [(name, method) for name, method in found
                if method is not None]

    @staticmethod
    def _guard_states(func: ast.AST) -> Dict[int, frozenset]:
        """``id(stmt or call node) -> guarded fields`` at that point."""
        cfg = build_cfg(func)
        in_states = solve_forward(cfg, _GuardProblem())
        by_node: Dict[int, frozenset] = {}
        for node in cfg.nodes:
            if node.stmt is None or node.index not in in_states:
                continue
            state = in_states[node.index]
            # A guard in this statement's own header also covers growth
            # nested in the same statement (``if ...: self.f[k] = v``
            # bodies get their own nodes, but a call expression shares
            # its statement's node).
            gen: Set[str] = set()
            for root in stmt_roots(node.stmt):
                if root is not None:
                    gen |= _guarded_fields(root)
            state = state | frozenset(gen)
            for sub in scoped_walk(node.stmt):
                by_node[id(sub)] = state
        return by_node


class BlockingAsyncCallRule(Rule):
    """RES002: no blocking call inside LiveRuntime async code."""

    id = "RES002"
    name = "blocking-call-in-async"
    summary = ("time.sleep / sync file I/O / subprocess inside an "
               "async function")
    rationale = ("The live runtime multiplexes every node's protocol "
                 "stack on one event loop; a blocking call freezes "
                 "all of them at once — a self-inflicted gray "
                 "failure.")
    scope = ("repro.runtime", "repro.harness")

    #: ``(module, attr)`` call paths that block the loop.
    _BLOCKING_PATHS = frozenset({
        ("time", "sleep"), ("os", "fsync"), ("os", "fdatasync"),
        ("os", "replace"), ("os", "rename"), ("os", "remove"),
        ("os", "unlink"),
    })

    def check(self, ctx) -> Iterator[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            for node in scoped_walk(func):
                if not isinstance(node, ast.Call):
                    continue
                reason = self._blocking_reason(node)
                if reason is not None:
                    yield ctx.finding(
                        self.id, node,
                        f"blocking call {reason} inside async function "
                        f"{func.name!r}: this stalls the whole event "
                        f"loop; use the asyncio equivalent or "
                        f"run_in_executor")

    def _blocking_reason(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                return "open() (sync file I/O)"
            return None
        path = attr_path(func)
        if len(path) == 2 and path in self._BLOCKING_PATHS:
            return f"{path[0]}.{path[1]}()"
        if path[:1] == ("subprocess",):
            return f"subprocess.{path[-1]}()"
        return None


class WriteAmplificationRule(Rule):
    """RES003: storage writes in a loop belong inside a write barrier."""

    id = "RES003"
    name = "durable-write-amplification"
    summary = ("storage writes issued in a loop outside a "
               "write_barrier()")
    rationale = ("Each bare storage write is a separate durable "
                 "commit; a loop of them turns one logical state "
                 "change into O(n) disk round-trips — the exact cost "
                 "the write barrier's group commit exists to "
                 "amortize (ROADMAP item 4).")
    scope = _RES_SCOPE

    def check(self, ctx) -> Iterator[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            yield from self._visit(ctx, func, in_loop=False,
                                   in_barrier=False)

    def _visit(self, ctx, node: ast.AST, in_loop: bool,
               in_barrier: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda, ast.ClassDef)):
                continue  # other scopes lint on their own
            loop = in_loop or isinstance(child, (ast.For, ast.While,
                                                 ast.AsyncFor))
            barrier = in_barrier or opens_write_barrier(child)
            if isinstance(child, ast.Call) and loop and not barrier:
                site = classify(child)
                if site is not None and site.kind == "write":
                    field = ".".join(site.receiver + (site.op,)) + "()"
                    yield ctx.finding(
                        self.id, child,
                        f"storage write {field} inside a loop with no "
                        f"enclosing write_barrier(): each iteration "
                        f"is a separate durable commit; wrap the loop "
                        f"in `with storage.write_barrier():` to group "
                        f"commit")
            yield from self._visit(ctx, child, loop, barrier)


RES_RULES = (UnboundedGrowthRule(), BlockingAsyncCallRule(),
             WriteAmplificationRule())
