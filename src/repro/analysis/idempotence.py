"""Recovery idempotence rule (REC003).

Section 4 re-runs ``on_start`` on every recovery, and a process may
crash *during* recovery — so everything the recovery procedure does to
stable storage must be idempotent, or a crash mid-recovery (or simply
the next recovery) compounds the effect.

REC003 walks the **direct** recovery closure — functions reachable from
``on_start`` through plain calls, excluding handlers that are merely
registered (they run later, after recovery completed) and coroutines
passed to ``spawn(...)`` (same reason) — and flags two shapes:

* **unguarded append** — ``storage.append(K, item)`` with no read
  (``retrieve``/``retrieve_list``/``contains``) or ``delete`` of a
  matching key in the *same function*: every recovery re-appends, so
  the durable list grows (and with it, replayed state) once per crash.
* **retrieve-derived increment** — a durable write whose value is an
  arithmetic derivation of a value retrieved from the *same* key
  (``log(K, retrieve(K) + 1)``, possibly through a local or a
  key-forwarding helper): crashing between the retrieve and the write —
  or after the write but before recovery completes — advances the
  counter again on the next recovery.

Duplicate *sends* during recovery are deliberately not flagged: the
paper's fair-lossy channels already force every protocol to tolerate
message duplication (reception dedups by message id), so a re-send is
harmless by construction — unlike a duplicated durable effect, which
survives the crash that caused it.

Some counters are *meant* to advance monotonically per recovery — the
incarnation number of Section 4.1 is the canonical example.  Those
sites carry a ``# repro: noqa(REC003)`` with the justification; the
rule exists to make that choice explicit.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import value_sources
from repro.analysis.engine import Finding, ProjectContext
from repro.analysis.recovery import (_KeyShape, _canonical_key,
                                     _is_storage_receiver, _shared_analysis)
from repro.analysis.registry import Rule
from repro.analysis.symbols import ClassInfo, attr_path

__all__ = ["IDEMPOTENCE_RULES", "NonIdempotentRecoveryRule"]

_PROTOCOL_SCOPE = ("repro.core", "repro.consensus", "repro.quorum",
                   "repro.multigroup", "repro.fdetect", "repro.apps",
                   "repro.baselines", "repro.membership", "repro.flow")

_GUARD_OPS = frozenset({"retrieve", "retrieve_list", "contains", "keys",
                        "delete", "delete_prefix"})
_READ_OPS = frozenset({"retrieve", "retrieve_list"})


def _spawned_call_ids(func: ast.AST) -> Set[int]:
    """ids of Call nodes passed as arguments to ``spawn(...)``.

    ``node.spawn(self._gossip_task(), ...)`` *calls* ``_gossip_task``
    syntactically, but only to build the coroutine — its body runs
    after recovery, under the scheduler, so it is not recovery code.
    """
    spawned: Set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and \
                attr_path(node.func)[-1:] == ("spawn",):
            for arg in node.args:
                if isinstance(arg, ast.Call):
                    spawned.add(id(arg))
    return spawned


class _DirectClosure:
    """Functions reachable from every ``on_start`` via direct calls."""

    def __init__(self, project: ProjectContext, scope_rule: Rule):
        self.project = project
        #: ``(concrete, defining, func)`` in deterministic walk order.
        self.members: List[Tuple[ClassInfo, Optional[ClassInfo],
                                 ast.AST]] = []
        self._visited: Set[tuple] = set()
        for ctx in project.in_scope(scope_rule):
            symbols = project.symbols.modules.get(ctx.module)
            if symbols is None:
                continue
            for info in symbols.classes.values():
                found = project.symbols.find_method(info.qualname,
                                                    "on_start")
                if found is None:
                    continue
                owner, func = found
                self._walk(info, owner, func)

    def _walk(self, concrete: ClassInfo, defining: Optional[ClassInfo],
              func: ast.AST) -> None:
        key = (concrete.qualname,
               defining.qualname if defining else "", id(func))
        if key in self._visited:
            return
        self._visited.add(key)
        self.members.append((concrete, defining, func))
        spawned = _spawned_call_ids(func)
        module = defining.module if defining else concrete.module
        resolver = self.project.resolver
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and id(node) not in spawned:
                for target in resolver.resolve(node, module, concrete,
                                               defining):
                    next_concrete = target.concrete or concrete
                    self._walk(next_concrete, target.defining,
                               target.func)


class _StorageWrite:
    __slots__ = ("op", "shape", "value", "call")

    def __init__(self, op: str, shape: _KeyShape,
                 value: Optional[ast.AST], call: ast.Call):
        self.op = op        # "log" | "append"
        self.shape = shape
        self.value = value
        self.call = call


class NonIdempotentRecoveryRule(Rule):
    """REC003: recovery effects must be idempotent."""

    id = "REC003"
    name = "non-idempotent-recovery"
    summary = ("a function reachable from on_start performs a "
               "non-idempotent durable effect (unguarded append or "
               "retrieve-derived increment)")
    rationale = ("Section 4: recovery re-runs on every restart and may "
                 "itself be interrupted by a crash; a durable append "
                 "or counter bump without a logged guard compounds "
                 "once per recovery.")
    scope = _PROTOCOL_SCOPE
    requires_project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        analysis = _shared_analysis(project, self)
        if not analysis.has_recovery_surface:
            return
        helpers = analysis.index.helpers
        closure = _DirectClosure(project, self)
        seen_positions: Set[Tuple[str, int, int]] = set()
        for concrete, defining, func in closure.members:
            owner = defining or concrete
            for finding in self._check_function(project, owner, func,
                                                helpers):
                position = (finding.path, finding.line, finding.col)
                if position in seen_positions:
                    continue  # same body walked for several subclasses
                seen_positions.add(position)
                yield finding

    # -- per-function scan -------------------------------------------------

    def _check_function(self, project: ProjectContext, owner: ClassInfo,
                        func: ast.AST,
                        helpers) -> Iterator[Finding]:
        params: Set[str] = set()
        args = getattr(func, "args", None)
        if args is not None:
            params = {arg.arg for arg in
                      list(args.args) + list(args.kwonlyargs)}
        writes: List[_StorageWrite] = []
        guards: List[_KeyShape] = []
        reads: Dict[str, Tuple[_KeyShape, bool]] = {}

        calls = sorted(
            (node for node in ast.walk(func)
             if isinstance(node, ast.Call)),
            key=lambda node: (node.lineno, node.col_offset))
        for call in calls:
            classified = self._classify(call, params, helpers)
            if classified is None:
                continue
            op, key, value = classified
            shape = _canonical_key(key, project, owner)
            if op in _GUARD_OPS:
                if not shape.opaque:
                    guards.append(shape)
                continue
            if not shape.opaque:
                writes.append(_StorageWrite(op, shape, value, call))

        # Bindings whose value derives from a retrieve: name/field ->
        # (source key shape, arithmetic applied at bind time).
        assigns = sorted(
            (node for node in ast.walk(func)
             if isinstance(node, (ast.Assign, ast.AnnAssign))),
            key=lambda node: (node.lineno, node.col_offset))
        for stmt in assigns:
            value = stmt.value
            if value is None:
                continue
            sources = self._read_shapes_in(value, project, owner, params,
                                           helpers)
            if not sources:
                continue
            arith = any(isinstance(node, ast.BinOp)
                        for node in ast.walk(value))
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            for target in targets:
                slot = self._slot_of(target)
                if slot is not None:
                    # Several sources: keep the first (deterministic).
                    reads[slot] = (sources[0], arith)

        for write in writes:
            if write.op == "append":
                guarded = any(write.shape.matches(guard)
                              for guard in guards)
                if not guarded:
                    yield self._append_finding(project, owner, write)
                    continue
            yield from self._increment_finding(project, owner, write,
                                               reads, params, helpers)

    def _classify(self, call: ast.Call, params: Set[str], helpers
                  ) -> Optional[Tuple[str, ast.AST, Optional[ast.AST]]]:
        """(op, key expr, value expr) of a storage call, else None."""
        path = attr_path(call.func)
        if len(path) < 2 or not call.args:
            return None
        attr, receiver = path[-1], path[:-1]
        if _is_storage_receiver(receiver):
            if attr in ("log", "append"):
                key = call.args[0]
                value = call.args[1] if len(call.args) > 1 else None
            elif attr in _GUARD_OPS:
                key, value = call.args[0], None
            else:
                return None
            if isinstance(key, ast.Name) and key.id in params:
                return None  # helper body; the call sites carry keys
            return attr, key, value
        helper = helpers.get(attr)
        if helper is not None and receiver[:1] == ("self",) and \
                len(call.args) > helper.arg_index:
            key = call.args[helper.arg_index]
            if isinstance(key, ast.Name) and key.id in params:
                return None
            if helper.kind == "write":
                value = call.args[helper.arg_index + 1] \
                    if len(call.args) > helper.arg_index + 1 else None
                return "log", key, value
            if helper.kind in ("read", "prefix"):
                return "retrieve", key, None
        return None

    def _read_shapes_in(self, expr: ast.AST, project: ProjectContext,
                        owner: ClassInfo, params: Set[str],
                        helpers) -> List[_KeyShape]:
        shapes: List[_KeyShape] = []
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            classified = self._classify(node, params, helpers)
            if classified is None or classified[0] not in _READ_OPS:
                continue
            shape = _canonical_key(classified[1], project, owner)
            if not shape.opaque:
                shapes.append(shape)
        return shapes

    @staticmethod
    def _slot_of(target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute) and \
                isinstance(target.value, ast.Name) and \
                target.value.id == "self":
            return f"self.{target.attr}"
        return None

    # -- findings ----------------------------------------------------------

    def _append_finding(self, project: ProjectContext, owner: ClassInfo,
                        write: _StorageWrite) -> Finding:
        where = f"{owner.name}.{getattr(write.call.func, 'attr', '?')}"
        finding = project.finding(
            self.id, owner.module, write.call,
            f"non-idempotent recovery: storage.append to "
            f"{write.shape.describe()} is reachable from on_start with "
            f"no read or delete of a matching key in the same function "
            f"— every recovery re-appends, duplicating the durable "
            f"list ({where})")
        assert finding is not None
        return finding

    def _increment_finding(self, project: ProjectContext,
                           owner: ClassInfo, write: _StorageWrite,
                           reads: Dict[str, Tuple[_KeyShape, bool]],
                           params: Set[str],
                           helpers) -> Iterator[Finding]:
        if write.value is None:
            return
        # Inline form: log(K, int(retrieve(K, 0)) + 1).
        inline = self._read_shapes_in(write.value, project, owner,
                                      params, helpers)
        arith_here = any(isinstance(node, ast.BinOp)
                         for node in ast.walk(write.value))
        derived: List[Tuple[_KeyShape, bool]] = \
            [(shape, arith_here) for shape in inline]
        # Through a binding: x = retrieve(K) + 1; log(K, x).
        names, fields = value_sources(write.value)
        for slot in sorted(names) + [f"self.{f}" for f in sorted(fields)]:
            record = reads.get(slot)
            if record is not None:
                shape, arith = record
                derived.append((shape, arith or arith_here))
        for shape, arith in derived:
            if arith and shape.matches(write.shape):
                yield_finding = project.finding(
                    self.id, owner.module, write.call,
                    f"non-idempotent recovery: this durable write to "
                    f"{write.shape.describe()} stores an arithmetic "
                    f"derivation of a value retrieved from the same "
                    f"key — a crash during recovery advances the "
                    f"counter once more on the next restart; guard it "
                    f"with a logged marker or suppress with a "
                    f"justification if monotonic advance is intended")
                assert yield_finding is not None
                yield yield_finding
                return


IDEMPOTENCE_RULES = (NonIdempotentRecoveryRule(),)
