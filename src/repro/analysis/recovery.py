"""Recovery-completeness rules (REC family).

The paper's recovery procedure (Figure 4) is a *total* replay: on
restart a process reloads **every** piece of durable state it ever
wrote — the incarnation counter, logged proposals, decisions, delivered
prefixes.  A storage key that protocol code writes but never reads back
during recovery is wasted-log-bandwidth at best; at worst it is state
the author *believed* survives crashes but that every recovery silently
ignores (the bug class these rules exist for).  The dual failure is the
phantom read: recovery code retrieving a key nobody writes, which
"works" only because ``retrieve`` has a default.

Both rules are whole-program: the write side is collected from every
module in scope, and the read side is the closure of ``on_start`` —
every method reachable from any concrete component's ``on_start``
through resolved calls, address-taken handler registrations
(``endpoint.register(T, self._on_msg)``) and spawned generator tasks.
A read performed lazily by a message handler still counts: the handler
is registered during recovery, so its reads are part of the recovery
surface.

Storage keys are compared as *patterns*: constants stay literal,
class-constant tuples (``INCARNATION_KEY = ("ab", "incarnation")``) are
spliced through the concrete class's MRO, tuple concatenations
(``self.SEGMENT_KEY + (k,)``) are flattened operand by operand, and
anything dynamic becomes a ``*`` wildcard, so
``("consensus", k, "proposal")`` written by ``propose`` is satisfied by
the ``keys(("consensus",))`` prefix scan in ``logged_instances``.
Helpers that forward a key parameter to a storage call
(``def _store(self, key, value): ... storage.log(key, value)``) are
detected in a first pass, and their *call sites* supply the key
patterns.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import Finding, ProjectContext
from repro.analysis.registry import Rule
from repro.analysis.symbols import ClassInfo, attr_path

__all__ = ["RECOVERY_RULES"]

_WRITE_OPS = frozenset({"log", "append"})
_READ_OPS = frozenset({"retrieve", "retrieve_list"})
_PREFIX_OPS = frozenset({"keys", "delete_prefix"})

#: Pattern element standing for "any single component".
_ANY = "*"

_PROTOCOL_SCOPE = ("repro.core", "repro.consensus", "repro.quorum",
                   "repro.multigroup", "repro.fdetect", "repro.apps",
                   "repro.baselines", "repro.membership", "repro.flow")


def _is_storage_receiver(receiver: Tuple[str, ...]) -> bool:
    return any("storage" in part or part == "store" for part in receiver)


def _canonical_element(value: object) -> str:
    if isinstance(value, str):
        return value
    return repr(value)


class _KeyShape:
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

    def matches(self, other: "_KeyShape") -> bool:
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


def _canonical_key(expr: ast.AST, project: ProjectContext,
                   owner: Optional[ClassInfo],
                   is_prefix: bool = False) -> _KeyShape:
    """Flatten a key expression into a :class:`_KeyShape`."""
    elements: List[str] = []

    def flatten(node: ast.AST) -> None:
        if isinstance(node, ast.Tuple):
            for elt in node.elts:
                flatten(elt)
            return
        if isinstance(node, ast.Constant):
            elements.append(_canonical_element(node.value))
            return
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            # ``self.PREFIX + (k,)``: tuple concatenation, element-wise.
            flatten(node.left)
            flatten(node.right)
            return
        constant = _resolve_constant(node, project, owner)
        if constant is not None:
            found, value = constant
            if found:
                if isinstance(value, tuple):
                    elements.extend(_canonical_element(part)
                                    for part in value)
                else:
                    elements.append(_canonical_element(value))
                return
        elements.append(_ANY)

    flatten(expr)
    return _KeyShape(tuple(elements), is_prefix)


def _resolve_constant(node: ast.AST, project: ProjectContext,
                      owner: Optional[ClassInfo]
                      ) -> Optional[Tuple[bool, object]]:
    """``self.CONST`` / ``CONST`` -> (found, literal) via the MRO."""
    name = ""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    if not name or not name.isupper() or owner is None:
        return None
    return project.symbols.class_constant(owner.qualname, name)


class _StorageEvent:
    """One storage read or write at a concrete call site."""

    __slots__ = ("shape", "node", "owner", "where", "module")

    def __init__(self, shape: _KeyShape, node: ast.AST,
                 owner: Optional[ClassInfo], where: str, module: str):
        self.shape = shape
        self.node = node
        self.owner = owner
        self.where = where
        self.module = module


class _Helper:
    """A method that forwards a key parameter to a storage call."""

    __slots__ = ("kind", "arg_index")

    def __init__(self, kind: str, arg_index: int):
        self.kind = kind          # "write" | "read" | "prefix"
        self.arg_index = arg_index  # 0-based, self excluded


def _param_names(func: ast.AST) -> List[str]:
    args = getattr(func, "args", None)
    if args is None:
        return []
    names = [arg.arg for arg in args.args]
    if names and names[0] == "self":
        names = names[1:]
    return names


class _StorageIndex:
    """All storage reads/writes in scope, with helper forwarding."""

    def __init__(self, project: ProjectContext, scope_rule: Rule):
        self.project = project
        self.writes: List[_StorageEvent] = []
        self.reads_by_func: Dict[int, List[_StorageEvent]] = {}
        self.helpers: Dict[str, _Helper] = {}
        self._contexts = project.in_scope(scope_rule)
        self._find_helpers()
        self._collect()

    # -- pass 1: key-forwarding helpers -----------------------------------

    def _find_helpers(self) -> None:
        for owner, name, func, module in self._functions():
            params = _param_names(func)
            if not params:
                continue
            for call in self._storage_calls(func):
                kind, key = call
                if isinstance(key, ast.Name) and key.id in params:
                    self.helpers[name] = _Helper(kind,
                                                 params.index(key.id))
                    break

    # -- pass 2: concrete events ------------------------------------------

    def _collect(self) -> None:
        for owner, name, func, module in self._functions():
            params = set(_param_names(func))
            where = f"{owner.name}.{name}" if owner else name
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                event = self._event_of(node, params, owner, where, module)
                if event is None:
                    continue
                kind, record = event
                if kind == "write":
                    self.writes.append(record)
                else:
                    self.reads_by_func.setdefault(id(func),
                                                  []).append(record)

    def _event_of(self, call: ast.Call, params: Set[str],
                  owner: Optional[ClassInfo], where: str, module: str):
        resolved = self._classify(call)
        if resolved is None:
            return None
        kind, key = resolved
        if isinstance(key, ast.Name) and key.id in params:
            return None  # the helper's own body; call sites carry keys
        shape = _canonical_key(key, self.project, owner,
                               is_prefix=(kind == "prefix"))
        record = _StorageEvent(shape, call, owner, where, module)
        if kind == "write":
            return "write", record
        return "read", record

    def _classify(self, call: ast.Call):
        """(kind, key expression) of a storage-touching call, else None."""
        path = attr_path(call.func)
        if not path or not call.args:
            return None
        attr = path[-1]
        receiver = path[:-1]
        if _is_storage_receiver(receiver):
            if attr in _WRITE_OPS:
                return "write", call.args[0]
            if attr in _READ_OPS:
                return "read", call.args[0]
            if attr == "keys":
                return "prefix", call.args[0]
        helper = self.helpers.get(attr)
        if helper is not None and receiver[:1] == ("self",) and \
                len(call.args) > helper.arg_index:
            return helper.kind, call.args[helper.arg_index]
        return None

    def _storage_calls(self, func: ast.AST):
        for node in ast.walk(func):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            path = attr_path(node.func)
            if not path:
                continue
            attr, receiver = path[-1], path[:-1]
            if _is_storage_receiver(receiver):
                if attr in _WRITE_OPS:
                    yield "write", node.args[0]
                elif attr in _READ_OPS:
                    yield "read", node.args[0]
                elif attr == "keys":
                    yield "prefix", node.args[0]

    def _functions(self):
        """(owner ClassInfo or None, name, func node, module) in scope."""
        for ctx in self._contexts:
            symbols = self.project.symbols.modules.get(ctx.module)
            if symbols is None:
                continue
            for info in symbols.classes.values():
                for name, func in info.methods.items():
                    yield info, name, func, ctx.module
            for name, func in symbols.functions.items():
                yield None, name, func, ctx.module


class _RecoveryClosure:
    """Methods reachable from every concrete component's ``on_start``."""

    def __init__(self, project: ProjectContext, index: _StorageIndex,
                 scope_rule: Rule):
        self.project = project
        self.index = index
        self.reads: List[_StorageEvent] = []
        self.roots = 0
        self._visited: Set[tuple] = set()
        self._read_funcs: Set[int] = set()
        for ctx in project.in_scope(scope_rule):
            symbols = project.symbols.modules.get(ctx.module)
            if symbols is None:
                continue
            for info in symbols.classes.values():
                found = project.symbols.find_method(info.qualname,
                                                    "on_start")
                if found is None:
                    continue
                self.roots += 1
                owner, func = found
                self._walk(info, owner, func)

    def _walk(self, concrete: ClassInfo, defining: Optional[ClassInfo],
              func: ast.AST) -> None:
        key = (concrete.qualname,
               defining.qualname if defining else "",
               id(func))
        if key in self._visited:
            return
        self._visited.add(key)
        if id(func) not in self._read_funcs:
            self._read_funcs.add(id(func))
        self.reads.extend(self.index.reads_by_func.get(id(func), ()))
        module = defining.module if defining else concrete.module
        resolver = self.project.resolver
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                for target in resolver.resolve(node, module, concrete,
                                               defining):
                    next_concrete = target.concrete or concrete
                    self._walk(next_concrete, target.defining, target.func)
        for stmt in getattr(func, "body", ()):
            for target in resolver.method_refs(stmt, module, concrete):
                next_concrete = target.concrete or concrete
                self._walk(next_concrete, target.defining, target.func)


class _RecoveryAnalysis:
    """Shared write/read collection for both REC rules."""

    def __init__(self, project: ProjectContext, scope_rule: Rule):
        self.index = _StorageIndex(project, scope_rule)
        self.closure = _RecoveryClosure(project, self.index, scope_rule)

    @property
    def has_recovery_surface(self) -> bool:
        """False when nothing in scope defines ``on_start`` (fixtures)."""
        return self.closure.roots > 0


def _shared_analysis(project: ProjectContext,
                     scope_rule: Rule) -> _RecoveryAnalysis:
    cache = project.analysis_cache.get("recovery")
    if not isinstance(cache, _RecoveryAnalysis):
        cache = _RecoveryAnalysis(project, scope_rule)
        project.analysis_cache["recovery"] = cache
    return cache


class UnrecoveredWriteRule(Rule):
    """REC001: every durable write must be read back during recovery."""

    id = "REC001"
    name = "recovery-completeness"
    summary = ("a storage key written by protocol code is never read "
               "back on any recovery path (the on_start closure)")
    rationale = ("Figure 4's recovery is a total replay of the log; a "
                 "key that recovery never consults is state the author "
                 "thinks survives crashes but that every restart silently "
                 "drops — precisely the failure mode the crash-recovery "
                 "model exists to exclude.")
    scope = _PROTOCOL_SCOPE
    requires_project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        analysis = _shared_analysis(project, self)
        if not analysis.has_recovery_surface:
            return
        recovery_reads = analysis.closure.reads
        for write in analysis.index.writes:
            if write.shape.opaque:
                continue  # nothing literal to match against
            if any(write.shape.matches(read.shape)
                   for read in recovery_reads):
                continue
            finding = project.finding(
                self.id, write.module, write.node,
                f"{write.where}: storage key {write.shape.describe()} is "
                f"written but never read back on any recovery path — "
                f"restart silently drops it (add a retrieve to the "
                f"on_start closure, or stop logging it)")
            if finding is not None:
                yield finding


class PhantomRecoveryReadRule(Rule):
    """REC002: recovery must not read keys nobody writes."""

    id = "REC002"
    name = "no-phantom-recovery-read"
    summary = ("a recovery path retrieves a storage key that no code "
               "path ever writes")
    rationale = ("A phantom read 'works' only through retrieve's default "
                 "value, which usually means the write side was renamed "
                 "or removed and recovery now silently reconstructs "
                 "nothing.")
    scope = _PROTOCOL_SCOPE
    requires_project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        analysis = _shared_analysis(project, self)
        if not analysis.has_recovery_surface:
            return
        writes = analysis.index.writes
        emitted: Set[Tuple[str, int, int]] = set()
        for read in analysis.closure.reads:
            if read.shape.opaque:
                continue
            if any(read.shape.matches(write.shape) for write in writes):
                continue
            finding = project.finding(
                self.id, read.module, read.node,
                f"{read.where}: recovery reads storage key "
                f"{read.shape.describe()} that no code path writes — the "
                f"retrieve only ever returns its default")
            if finding is None:
                continue
            key = (finding.path, finding.line, finding.col)
            if key in emitted:
                continue
            emitted.add(key)
            yield finding


RECOVERY_RULES = (UnrecoveredWriteRule(), PhantomRecoveryReadRule())
